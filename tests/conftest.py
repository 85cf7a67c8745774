import numpy as np
import pytest
from hypothesis import strategies as st

from coxmra import SarhSpec, SpatialGrid, TimeGrid, default_variance_profile
from coxmra.sarh import _ar_fields, _innovations

# Ten-component reference eigenvalue systems used across the test suite.
LAMBDA1 = np.array([0.300, 0.270, 0.230, 0.200, 0.170, 0.130, 0.100, 0.030, 0.010, 0.005])
LAMBDA2 = np.array([0.500, 0.470, 0.430, 0.400, 0.370, 0.330, 0.300, 0.230, 0.200, 0.150])

# stationary AR triples from both branches of the stationarity condition:
# inside the l1 ball of radius 0.95, and factorized th3 = -th1 * th2
_unit = st.floats(min_value=-1.0, max_value=1.0)
triangle_thetas = st.tuples(_unit, _unit, _unit).map(
    lambda th: tuple(0.95 * v / max(1.0, sum(abs(u) for u in th)) for v in th)
)
coupled_thetas = st.tuples(_unit, _unit).map(
    lambda ab: (0.95 * ab[0], 0.95 * ab[1], -(0.95 * ab[0]) * (0.95 * ab[1]))
)
stationary_thetas = st.one_of(triangle_thetas, coupled_thetas)


def ar_field(theta, sigma2, grid: SpatialGrid, burn_in: int, rng) -> np.ndarray:
    """One scalar AR component field cropped to the grid, drawn as
    `simulate` draws each component: `_ar_fields` on an `_innovations` draw."""
    e = _innovations(sigma2, grid, burn_in, rng)
    return _ar_fields(np.array([theta], dtype=float), e[None])[0, burn_in:, burn_in:]


@pytest.fixture(scope="session")
def reference_spec():
    """Coupled ten-component model on a depth-4 time grid."""
    return SarhSpec(
        eigenvalues1=LAMBDA1,
        eigenvalues2=LAMBDA2,
        innovation_variances=default_variance_profile(LAMBDA1, LAMBDA2),
        time=TimeGrid(4),
        couple_l3=True,
    )


@pytest.fixture
def small_grid():
    return SpatialGrid(8, 8)
