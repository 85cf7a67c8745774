"""Spatial frequency-domain machinery for coefficient fields.

This module is the single home of the three quantities every contrast is
built from: the squared AR symbol |1 - th1 e^{i w1} - th2 e^{i w2} -
th3 e^{i(w1+w2)}|^2 = c0 + c1 cos w1 + c2 cos w2 + c3 cos(w1+w2) +
c4 cos(w1-w2), the coefficients of a triple (`_symbol_coefficients`)
times a cosine table (`_symbol_sq`), the fDFT with its 1-based site
phase (`all_periodograms`), and the contrast weight eta = |w1|^2 |w2|^2
(`FrequencyGrid.eta`).  A periodogram table is a product of fDFT
columns, f_a * conj(f_b), taken where it is used (the estimator's
`_row_weights`).  It also holds the one contrast, minus folded weights
times the normalised log-density `_log_psi` of a squared symbol:
`_contrast` scores the estimator's seeds and the population
`contrast_functional` with it, and
`_contrast_derivatives` gives it with its gradient and Hessian in the AR
coefficients for every row of a Newton round, all lattice shapes in one
call, from three contractions of each row against the half plane's
cosines and their 15 products (`FrequencyGrid.half_plane`).  Every
half-plane sum an output bit depends on is a row reduction of fixed order,
numpy's pairwise sum or a non-optimised `einsum`, never BLAS, so a row's
bits depend neither on its batch nor on the BLAS thread count.  The one
table the module keeps of its own is the seed candidates' log-density
rounded to float32 (`_ranking_table`), which only ranks candidates.

Frequencies live on the Fourier grid of the observation lattice, reported
in the symmetric fundamental domain (-pi, pi]^2 so that eta is an even
function.  All frequency integrals are Riemann sums over the N Fourier
frequencies with cell measure (2 pi)^2 / N.  Grid-invariant tables are
built once per `FrequencyGrid` instance and flattened in row-major
(w1, w2) order.  Every contrast sums over the off-axis half plane, the
eta support folded by evenness (`FrequencyGrid.fold`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

TWO_PI = 2.0 * np.pi
# elements (candidates, rows or pairs x half-plane points) of the largest
# temporary of `_contrast`, a block of a ranking table included
_SCORE_BLOCK = 1 << 16
# float32 elements (candidates x half-plane points) the ranking tables
# recorded between `_contrast` calls hold in all, 4 MiB
_RANKING_BUDGET = 1 << 20
# the recorded ranking-table names, least recently used first, each with
# the elements of its table and the table once kept, and the lock that
# fits on several threads take to use them
_ranking_tables: OrderedDict = OrderedDict()
_ranking_lock = threading.Lock()
_EPS = np.finfo(float).eps
# the (k, l) index pairs, k <= l, of the cosine products cos_k cos_l
_PRODUCTS = np.triu_indices(5)


def stationarity_check(theta) -> bool:
    """Sufficient stationarity condition for one AR triple: the uncoupled
    edge norm is below one, or th3 = -th1*th2 and the coupled one is."""
    th = np.asarray(theta, dtype=float)
    if edge_norm(th, couple_l3=False) < 1.0:
        return True
    return bool(np.isclose(th[2], -th[0] * th[1], rtol=0, atol=1e-12) and edge_norm(th, couple_l3=True) < 1.0)


def edge_norm(thetas, couple_l3: bool) -> np.ndarray:
    """Stationarity-edge norm per AR triple, < 1 inside: max(|th1|, |th2|)
    when th3 is tied to them, |th1| + |th2| + |th3| otherwise."""
    a = np.abs(np.asarray(thetas, dtype=float))
    return a[..., :2].max(axis=-1) if couple_l3 else a.sum(axis=-1)


@dataclass(frozen=True)
class FrequencyGrid:
    """Fourier frequencies of an s1 x s2 lattice, mapped into (-pi, pi]^2."""

    s1: int
    s2: int

    @property
    def n(self) -> int:
        return self.s1 * self.s2

    @property
    def w1(self) -> np.ndarray:
        return _fundamental(TWO_PI * np.arange(self.s1) / self.s1)

    @property
    def w2(self) -> np.ndarray:
        return _fundamental(TWO_PI * np.arange(self.s2) / self.s2)

    @cached_property
    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(map(_readonly, np.meshgrid(self.w1, self.w2, indexing="ij")))

    @property
    def cell_measure(self) -> float:
        """Riemann cell size (2 pi)^2 / N for frequency-domain sums."""
        return TWO_PI**2 / self.n

    @cached_property
    def cosines(self) -> np.ndarray:
        """1, cos w1, cos w2, cos(w1 + w2), cos(w1 - w2) over the flattened grid, (5, N)."""
        w1, w2 = (w.ravel() for w in self.mesh)
        cos = [np.ones_like(w1), np.cos(w1), np.cos(w2), np.cos(w1 + w2), np.cos(w1 - w2)]
        return _readonly(np.stack(cos))

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat index of one point of each conjugate pair off the axes, and
        of its partner at -w; (pi, pi) is its own partner."""
        p, q = np.divmod(np.arange(self.n), self.s2)
        mirror = (-p % self.s1) * self.s2 + (-q % self.s2)
        keep = (p > 0) & (q > 0) & (np.arange(self.n) <= mirror)
        return np.flatnonzero(keep), mirror[keep]

    def fold(self, values: np.ndarray) -> np.ndarray:
        """Sum of `values` (..., N) over each pair of `_pairs`, (..., N');
        (pi, pi) counts once.  np.take keeps rows C-ordered, so a row
        reduces alike in any batch."""
        idx, mirror = self._pairs
        pair = np.take(values, mirror, axis=-1) * (idx != mirror)
        return np.take(values, idx, axis=-1) + pair

    @cached_property
    def half_plane(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`cosines`, folded `eta_measure` and the 15 cosine products
        cos_k cos_l, k <= l in `_PRODUCTS` order, on the off-axis half
        plane, (5, N'), (N',) and (15, N').  All are C-ordered, so every
        product with them sums a contiguous row."""
        cosines = np.take(self.cosines, self._pairs[0], axis=-1)
        products = cosines[_PRODUCTS[0]] * cosines[_PRODUCTS[1]]
        return _readonly(cosines), _readonly(self.fold(self.eta_measure)), _readonly(products)

    @cached_property
    def eta(self) -> np.ndarray:
        """Contrast weight |w1|^2 |w2|^2 over the flattened grid.

        Vanishes on the axes, removing the zero frequency (and with it any
        imperfect-detrending DC bias) from every contrast integral.
        """
        w1, w2 = self.mesh
        return _readonly((np.abs(w1) ** 2 * np.abs(w2) ** 2).ravel())

    @cached_property
    def eta_measure(self) -> np.ndarray:
        """eta times the cell measure, flattened: the Riemann-sum weight."""
        return _readonly(self.eta * self.cell_measure)


def _readonly(a: np.ndarray) -> np.ndarray:
    """Freeze a cached table: every caller of the grid shares it."""
    a.setflags(write=False)
    return a


def _fundamental(w: np.ndarray) -> np.ndarray:
    """Map angles from [0, 2 pi) into (-pi, pi]."""
    out = np.where(w > np.pi, w - TWO_PI, w)
    return np.where(np.isclose(out, -np.pi), np.pi, out)


def all_periodograms(coeffs: np.ndarray) -> np.ndarray:
    """fDFT tables for every coefficient simultaneously.

    `coeffs` has shape (s1, s2, n); the result has the same shape and
    holds the complex fDFT per coefficient, from which any diagonal or
    cross table is a single product.  Sites are indexed from 1 in the
    phase, matching the lattice origin of the state equation; the
    prefactor is 1 / (2 pi sqrt(N)).
    """
    x = np.asarray(coeffs, dtype=float)
    s1, s2, _ = x.shape
    f = np.fft.fft2(x, axes=(0, 1))
    # shift from 0-based to 1-based site indexing
    w1 = TWO_PI * np.arange(s1) / s1
    w2 = TWO_PI * np.arange(s2) / s2
    f *= (np.exp(-1j * w1)[:, None] * np.exp(-1j * w2)[None, :])[:, :, None]
    f /= TWO_PI * np.sqrt(s1 * s2)
    return f


def contrast_weights(cross: np.ndarray, freq: FrequencyGrid) -> np.ndarray:
    """Re(I) * eta * cell_measure of one periodogram table, (s1, s2) or
    flattened, as (N,), or of a stack (m, s1, s2) of tables, as (m, N).

    The empirical contrast of a candidate is the `_contrast` of these
    weights folded onto the half plane.
    """
    return cross.real.reshape(cross.shape[:-2] + (freq.n,)) * freq.eta_measure


def _symbol_coefficients(thetas: np.ndarray) -> np.ndarray:
    """Cosine coefficients c0..c4 of the squared AR symbol of m candidates,
    (m, 5); elementwise, so a candidate's values do not depend on its batch."""
    t1, t2, t3 = np.asarray(thetas, dtype=float).T
    c = np.empty(t1.shape + (5,))
    c[..., 0] = 1.0 + t1**2 + t2**2 + t3**2
    c[..., 1] = 2.0 * (t2 * t3 - t1)
    c[..., 2] = 2.0 * (t1 * t3 - t2)
    c[..., 3] = -2.0 * t3
    c[..., 4] = 2.0 * t1 * t2
    return c


def _symbol_sq(coefs: np.ndarray, cosines: np.ndarray) -> np.ndarray:
    """Squared AR symbol of m candidates' `_symbol_coefficients` over a
    cosine table, (m, N).

    Each row is its own (1, 5) @ (5, N) product of a C-ordered copy of the
    rows, so a candidate's values depend neither on its batch nor on the
    layout of the rows passed in.
    """
    return (np.ascontiguousarray(coefs)[:, None, :] @ cosines)[:, 0]


def _log_psi(sym: np.ndarray, eta_measure: np.ndarray) -> np.ndarray:
    """log Psi = log(f / sigma2) of m candidates' squared symbols
    (`_symbol_sq`, (m, N)), f the spectral density at unit innovation
    variance and sigma2 its integral under the Riemann weights
    `eta_measure`, so every row of exp(log Psi) has unit weighted mass."""
    out = _minus_log_psi(sym, (eta_measure / sym).sum(axis=-1))
    return np.negative(out, out=out)


def _minus_log_psi(sym: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """log S + log scale = -log Psi of squared symbols S (m, N) whose
    weighted integrals of 1 / S are `scale` (m,), in one new array; its
    negation has the bits of -log S - log scale."""
    if (scale <= 0).any():
        raise ValueError("degenerate weight: eta-weighted density integrates to zero")
    out = np.log(sym)
    out += np.log(scale)[:, None]
    return out


def _rounded_log_psi(coefs: np.ndarray, table: tuple[np.ndarray, ...]):
    """`_log_psi` of m candidates' coefficients on a `half_plane` table,
    (m, N'), with its rows rounded to float32, each row's rounding error
    delta = max |log Psi - float32(log Psi)|, exact, and its peak max |log
    Psi|, (m,) each."""
    exact = _log_psi(_symbol_sq(coefs, table[0]), table[1])
    rounded = exact.astype(np.float32)
    diff = exact - rounded  # without rounding: the two lie within a factor 2
    peak = np.maximum(exact.max(axis=1), -exact.min(axis=1))
    return exact, rounded, np.abs(diff, out=diff).max(axis=1), peak


def _ranking_table(coefs: np.ndarray, table: tuple[np.ndarray, ...], step: int, retain):
    """The rounded rows, rounding errors and peaks of `_rounded_log_psi`
    kept under the hashable name `retain` of (coefs, table), built `step`
    candidates at a time; None without a name, for a table over
    `_RANKING_BUDGET` elements, or on the name's first use.  A first use
    only records the name, as (elements, None), and the second builds and
    keeps the table, as (elements, table), so a shape fitted once builds
    nothing.  A recorded name counts in the budget as the table it would
    keep, and the least recently used names are dropped while the recorded
    ones would hold more than the budget.  Every use holds `_ranking_lock`,
    so fits on several threads share the tables."""
    m, n = coefs.shape[0], table[1].size
    if retain is None or m * n > _RANKING_BUDGET:
        return None
    with _ranking_lock:
        entry = _ranking_tables.pop(retain, None)
        if entry is None:
            while _ranking_tables and sum(size for size, _ in _ranking_tables.values()) + m * n > _RANKING_BUDGET:
                _ranking_tables.popitem(last=False)
            kept = None
        elif entry[1] is None:
            kept = np.empty((m, n), dtype=np.float32), np.empty(m), np.empty(m)
            for i in range(0, m, step):
                for part, block in zip(kept, _rounded_log_psi(coefs[i : i + step], table)[1:]):
                    part[i : i + step] = block
            kept = tuple(map(_readonly, kept))
        else:
            kept = entry[1]
        _ranking_tables[retain] = m * n, kept
    return kept


def _contrast(folded: np.ndarray, coefs: np.ndarray, table: tuple[np.ndarray, ...],
              within: np.ndarray | None = None, retain=None) -> np.ndarray:
    """The contrast of every row of folded weights (rows, N') at every
    candidate's coefficients, (rows, m): minus the weights times the
    candidate's `_log_psi` row on a `half_plane` table, summed over each
    pair by numpy's pairwise sum.  That sum has a fixed order for a given
    length and uses no BLAS, so a contrast's bits depend neither on its
    batch nor on the BLAS thread count.

    With `within` (rows,), only the pairs that may lie within it of their
    row's least contrast are summed so, and the others are +inf.  They are
    ranked by a rows x candidates BLAS product against the candidates'
    log Psi rows rounded to float32 (`_rounded_log_psi`), each within
    delta_c of the exact row and at most M_c in size.  The product and the
    pairwise sum each err by at most gamma sum |h| |log Psi|, gamma = N'
    eps / (1 - N' eps), whatever their order, so a ranked contrast lies
    within E = |h|_1 (delta_c + gamma (2 M_c + delta_c)) of the exact one.
    A pair is dropped only if its ranked contrast less E exceeds the row's
    least ranked contrast plus E, plus `within`.  gamma counts N' + 4
    terms, so E also covers its own rounding and the comparison's, and E
    is taken 0.1 % larger still.  No output bit depends on the product.
    The rounded table is kept between calls under the name `retain`, from
    the name's second use, while it fits `_RANKING_BUDGET`
    (`_ranking_table`); otherwise each block of it is built, used and
    dropped in the ranking loop.  Candidates are
    ranked, and pairs summed, one block at a time, so no temporary holds
    more than `_SCORE_BLOCK` elements.
    """
    cosines, eta_measure = table[:2]
    rows, m, n = folded.shape[0], coefs.shape[0], eta_measure.size
    step = max(1, _SCORE_BLOCK // n)
    reach, last = np.ones((rows, m), dtype=bool), None
    if within is not None:
        kept = _ranking_table(coefs, table, step, retain)
        ranked, bound = np.empty((rows, m)), np.empty(m)
        gamma = (n + 4) * _EPS / (1.0 - (n + 4) * _EPS)
        for i in range(0, m, step):
            if kept is None:
                exact, rounded, delta, peak = _rounded_log_psi(coefs[i : i + step], table)
                last = i, exact
            else:
                rounded, delta, peak = (part[i : i + step] for part in kept)
            ranked[:, i : i + step] = folded @ rounded.astype(float).T
            bound[i : i + step] = (delta + gamma * (2.0 * peak + delta)) * 1.001
        np.negative(ranked, out=ranked)
        norm = np.concatenate([np.abs(folded[k : k + step]).sum(axis=1) for k in range(0, rows, step)])
        error = np.multiply.outer(norm, bound)
        reach = ranked - error <= ((ranked + error).min(axis=1) + within)[:, None]
    out = np.full((rows, m), np.inf)
    for i in range(0, m, step):
        cols = i + np.flatnonzero(reach[:, i : i + step].any(axis=0))
        if not cols.size:
            continue
        if last and last[0] == i:  # the last block ranked is still at hand
            log_psi = last[1][cols - i]
        else:
            log_psi = _log_psi(_symbol_sq(coefs[cols], cosines), eta_measure)
        r, c = np.nonzero(reach[:, cols])
        for k in range(0, r.size, step):
            pair = slice(k, k + step)
            out[r[pair], cols[c[pair]]] = -(folded[r[pair]] * log_psi[c[pair]]).sum(axis=-1)
    return out


# d2 c / d th_i d th_j of `_symbol_coefficients`, (3, 3, 5): constant, since
# every coefficient is quadratic; c0 = 1 + th1^2 + th2^2 + th3^2,
# c1 = 2 th2 th3, c2 = 2 th1 th3, c4 = 2 th1 th2
_D2C = np.zeros((3, 3, 5))
_D2C[(0, 1, 2, 1, 2, 0, 2, 0, 1), (0, 1, 2, 2, 1, 2, 0, 1, 0), (0, 0, 0, 1, 1, 2, 2, 4, 4)] = 2.0
_D2C.setflags(write=False)
# d c / d th_i, rows th1, th2, th3, as indices into (2 th1, 2 th2, 2 th3, -2, 0)
_DC = np.array([[0, 3, 2, 4, 1], [1, 2, 3, 4, 0], [2, 1, 0, 3, 4]])


def _coefficient_derivatives(thetas: np.ndarray, couple_l3: bool) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of m candidates' `_symbol_coefficients`
    in their free coordinates, (m, f, 5) and (m, f, f, 5) or, uncoupled,
    the constant (3, 3, 5): th1, th2 and th3, or th1 and th2 with th3 =
    -th1 th2 entering by the chain rule."""
    th = np.asarray(thetas, dtype=float)
    m = th.shape[0]
    doubled = np.empty((m, 5))
    np.multiply(th, 2.0, out=doubled[:, :3])
    doubled[:, 3:] = (-2.0, 0.0)
    dc = doubled.take(_DC, axis=1)
    if not couple_l3:
        return dc, _D2C
    # th3 = -th1 th2: d th3 / d th_i = u_i = -th2, -th1 and d2 th3 / d th1 d th2 = -1
    u = -th[:, 1::-1, None]
    u1, u2 = u[:, 0], u[:, 1]
    d2c = np.empty((m, 4, 5))  # entries 00, 01, 10, 11
    # both diagonal entries at once: D_ii + 2 u_i D_i3 + u_i^2 D_33, where D_ii = D_33
    d2c[:, ::3] = _D2C[2, 2] + 2.0 * u * _D2C[:2, 2] + u * u * _D2C[2, 2]
    d2c[:, 1] = d2c[:, 2] = _D2C[0, 1] + u2 * _D2C[0, 2] + u1 * _D2C[2, 1] + u1 * u2 * _D2C[2, 2] - dc[:, 2]
    return dc[:, :2] + u * dc[:, 2:], d2c.reshape(m, 2, 2, 5)


def _contrast_derivatives(
    groups: list[tuple[np.ndarray, np.ndarray, tuple]], thetas: np.ndarray, couple_l3: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_contrast` of the rows of every (folded weights (m_g, N'_g), their
    row sums (m_g,), `half_plane` table) group, in order, at one candidate
    each (sum m_g, 3), with its gradient (rows, f) and Hessian (rows, f, f)
    in the candidates' free coordinates (`_coefficient_derivatives`).

    With S the squared symbol, h the folded weights, e the folded eta
    measure, H = sum h and Z = sum e / S, the contrast is
    L = sum h log S + H log Z, so in the symbol coefficients c

        dL/dc_k = sum u cos_k,  u = (h - (H / Z) e / S) / S,
        d2L/dc_k dc_l = M_kl - (H / Z^2) g_k g_l,  M_kl = sum w cos_k cos_l,
        w = (2 (H / Z) e / S - h) / S^2,  g_k = -dZ/dc_k = sum (e / S^2) cos_k,

    mapped to theta as dc^T (d2L/dc2) dc through dc/dtheta, plus the
    second derivatives of c against dL/dc.  The value and Z are pairwise
    row sums as in `_contrast`.  The three half-plane sums, over cos_k and
    over the table's 15 products cos_k cos_l, are contractions by
    non-optimised `einsum`: no BLAS, and each row summed on its own, in an
    order fixed by N'_g, so the largest temporary is (m_g, N'_g).  The
    algebra in theta runs once over all rows, elementwise, so a row's bits
    depend neither on its group nor on the rows beside it."""
    coefs = _symbol_coefficients(thetas)
    dc, d2c = _coefficient_derivatives(thetas, couple_l3)
    m = dc.shape[0]
    values, ratio, z = np.empty(m), np.empty(m), np.empty(m)  # L, H / Z and Z
    dl_dc, gz_dc, moments = np.empty((m, 5)), np.empty((m, 5)), np.empty((m, 5, 5))
    stops = accumulate(len(folded) for folded, _, _ in groups)
    for (folded, sums, (cosines, eta_measure, products)), stop in zip(groups, stops):
        g = slice(stop - len(folded), stop)
        sym = _symbol_sq(coefs[g], cosines)
        v = eta_measure / sym  # e / S
        z[g] = v.sum(axis=-1)
        # sum h (log S + log Z): minus the weights times `_log_psi`, bit for bit
        u = _minus_log_psi(sym, z[g])
        u *= folded
        values[g] = u.sum(axis=-1)
        ratio[g] = sums / z[g]
        # v = e / S^2, u = h / S - (H / Z) v and w = ((H / Z) v - u) / S, in
        # place: three (m_g, N'_g) arrays in all, as fresh ones cost more
        # than the arithmetic
        v /= sym
        w = ratio[g, None] * v
        u = np.divide(folded, sym, out=u)
        u -= w
        w -= u
        w /= sym
        dl_dc[g] = np.einsum("rn,kn->rk", u, cosines)
        gz_dc[g] = np.einsum("rn,kn->rk", v, cosines)
        moments[g, _PRODUCTS[0], _PRODUCTS[1]] = moments[g, _PRODUCTS[1], _PRODUCTS[0]] = np.einsum(
            "rn,kn->rk", w, products)
    grad = (dc * dl_dc[:, None, :]).sum(axis=-1)
    # the Hessian in c, M - (H / Z^2) g g^T, mapped to theta and made exactly symmetric
    moments -= (ratio / z)[:, None, None] * gz_dc[:, :, None] * gz_dc[:, None, :]
    terms = (dc[:, :, None, :] * moments[:, None]).sum(axis=-1)
    terms = (terms[:, :, None, :] * dc[:, None]).sum(axis=-1)
    hess = (d2c * dl_dc[:, None, None, :]).sum(axis=-1)
    hess += 0.5 * (terms + terms.transpose(0, 2, 1))
    return values, grad, hess


def _stationary_coefficients(theta) -> np.ndarray:
    """`_symbol_coefficients` of one AR triple, (1, 5); rejects a
    non-stationary one."""
    if not stationarity_check(theta):
        raise ValueError(f"non-stationary theta {tuple(theta)}")
    return _symbol_coefficients(np.asarray(theta, dtype=float).reshape(1, 3))


def _population_weights(theta0, freq: FrequencyGrid) -> np.ndarray:
    """Model density 1 / (2 pi^2) / |symbol|^2 at theta0 (unit innovation
    variance) times the folded eta measure on the half plane: the expected
    folded contrast weights."""
    cosines, eta_measure, _ = freq.half_plane
    f0 = 1.0 / _symbol_sq(_stationary_coefficients(theta0), cosines)[0] / (2.0 * np.pi**2)
    return f0 * eta_measure


def contrast_functional(theta0, theta, freq: FrequencyGrid) -> float:
    """Population analogue of the empirical contrast under theta0."""
    weights = _population_weights(theta0, freq)
    return float(_contrast(weights[None, :], _stationary_coefficients(theta), freq.half_plane)[0, 0])


def divergence(theta0, theta, freq: FrequencyGrid) -> float:
    """Relative-entropy loss between the models at theta0 and theta.

    Nonnegative on the discrete grid (both normalised densities sum to
    the same eta-weighted mass) and exactly zero at theta = theta0.
    """
    weights = _population_weights(theta0, freq)
    coefs = np.vstack([_stationary_coefficients(theta0), _stationary_coefficients(theta)])
    lp = _log_psi(_symbol_sq(coefs, freq.half_plane[0]), freq.half_plane[1])
    return float((weights * (lp[0] - lp[1])).sum())
