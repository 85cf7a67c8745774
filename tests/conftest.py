import concurrent.futures

import numpy as np
import pytest
from hypothesis import strategies as st

from coxmra import SarhSpec, SpatialGrid, TimeGrid, default_variance_profile
from coxmra.sarh import _ar_fields

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
    `simulate` draws each component: innovations into the interior of a
    zero-bordered lattice, which `_ar_fields` overwrites."""
    r1, r2 = grid.s1 + burn_in, grid.s2 + burn_in
    x = np.zeros((1, r1 + 1, r2 + 1))
    x[0, 1:, 1:] = rng.normal(0.0, np.sqrt(sigma2), size=(r1, r2))
    _ar_fields(np.array([theta], dtype=float), x)
    return x[0, 1 + burn_in:, 1 + burn_in:]


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


@pytest.fixture
def pool_maps(monkeypatch):
    """The names of the functions a process pool maps, in order: the CLI's
    pools record each `map` made on their workers here."""
    mapped = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            mapped.append(fn.__name__)
            return super().map(fn, *iterables, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return mapped
