import concurrent.futures

import numpy as np
import pytest
from hypothesis import strategies as st

from coxmra import SarhSpec, SpatialGrid, ThetaDomain, TimeGrid, default_variance_profile
from coxmra.sarh import _ar_fields
from coxmra.spectral import FrequencyGrid, _symbol_coefficients, _symbol_sq

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


# two lockstep Newton batches that mix rows holding no facet with rows
# ending on facets: each a domain, the AR triples its rows scatter about
# and the kinds of facet they end on
FACET_BATCHES = [
    # the narrow uncoupled box: rows inside, on a box face, on an |theta|_1
    # facet and on both
    (ThetaDomain(bounds=((-0.5, 0.5),) * 3),
     [(0.2, 0.1, 0.05), (0.8, 0.1, -0.08), (0.45, 0.45, -0.2025), (0.2, 0.7, 0.1), (0.8, 0.6, -0.48)],
     {"free", "box", "l1"}),
    # the coupled box past the edge: rows inside and on the edge
    (ThetaDomain(bounds=((-1.5, 1.5),) * 3, couple_l3=True),
     [(0.2, 0.1, -0.02), (0.9999, 0.3, -0.29997), (-0.3, -0.9999, -0.29997)],
     {"free", "edge"}),
]


def facet_batch(domain: ThetaDomain, truths) -> list[tuple[FrequencyGrid, np.ndarray]]:
    """The (FrequencyGrid, weights) groups of a `FACET_BATCHES` batch: on a
    16 x 12 and a 10 x 14 lattice, two rows per triple of full-plane
    contrast weights (rows, N), periodograms scattered about the AR density
    of the triple by gamma noise of mean one."""
    rng = np.random.default_rng(41)
    groups = []
    for shape in [(16, 12), (10, 14)]:
        freq = FrequencyGrid(*shape)
        weights = []
        for theta in truths:
            density = 1.0 / _symbol_sq(_symbol_coefficients(np.array([theta])), freq.cosines)[0]
            weights.append(density * freq.eta_measure * rng.gamma(16.0, 1 / 16.0, size=(2, freq.n)))
        groups.append((freq, np.vstack(weights)))
    return groups


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
