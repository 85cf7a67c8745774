import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxmra import (
    FunctionalField,
    SpatialGrid,
    TimeGrid,
    dwt,
    field_dwt,
    idwt,
    normalized_eigenfunctions,
    operator_to_wavelet,
    wavelet_to_operator_eigs,
)
from coxmra.wavelet import MultiscaleCoefficients, OperatorWaveletMatrix, level_slices

SQRT2 = np.sqrt(2.0)


def test_dwt_frozen_oracle():
    # hand-computed Haar analysis of [4, 2, 5, 5]:
    # level-1 details ((4-2)/sqrt2, (5-5)/sqrt2), then approx (6,10)/sqrt2
    # gives detail0 = (6-10)/2 = -2 and scaling0 = (6+10)/2 = 8
    out = dwt(np.array([4.0, 2.0, 5.0, 5.0]), 0)
    np.testing.assert_allclose(out, [8.0, -2.0, SQRT2, 0.0], atol=1e-14)


def test_dwt_partial_depth():
    # analysing only one level leaves two scaling coefficients
    out = dwt(np.array([4.0, 2.0, 5.0, 5.0]), 1)
    np.testing.assert_allclose(out, [6.0 / SQRT2, 10.0 / SQRT2, SQRT2, 0.0], atol=1e-14)


def test_dwt_rejects_bad_lengths():
    with pytest.raises(ValueError):
        dwt(np.zeros(6), 0)
    with pytest.raises(ValueError):
        dwt(np.zeros(8), 4)


@st.composite
def dyadic_vectors(draw):
    depth = draw(st.integers(min_value=1, max_value=8))
    j0 = draw(st.integers(min_value=0, max_value=depth))
    vals = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1 << depth,
            max_size=1 << depth,
        )
    )
    return np.array(vals), j0


@given(dyadic_vectors())
@settings(max_examples=100, deadline=None)
def test_perfect_reconstruction(data):
    x, j0 = data
    np.testing.assert_allclose(idwt(dwt(x, j0), j0), x, rtol=1e-10, atol=1e-8)


@given(dyadic_vectors())
@settings(max_examples=100, deadline=None)
def test_parseval(data):
    x, j0 = data
    c = dwt(x, j0)
    assert np.sum(c**2) == pytest.approx(np.sum(x**2), rel=1e-10, abs=1e-8)


@given(dyadic_vectors(), st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_linearity(data, alpha):
    x, j0 = data
    y = np.sin(np.arange(x.size))
    lhs = dwt(alpha * x + y, j0)
    rhs = alpha * dwt(x, j0) + dwt(y, j0)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-7)


def test_layout_structure():
    sl = level_slices(1, 3)
    kinds = [key for key, s in sl.items() for _ in range(s.start, s.stop)]
    assert kinds == [
        ("scaling", 1), ("scaling", 1),
        ("detail", 1), ("detail", 1),
        ("detail", 2), ("detail", 2), ("detail", 2), ("detail", 2),
    ]
    assert sl[("scaling", 1)] == slice(0, 2)
    assert sl[("detail", 2)] == slice(4, 8)


def test_field_transform_roundtrip():
    rng = np.random.default_rng(3)
    fld = FunctionalField(SpatialGrid(5, 6), TimeGrid(4), rng.normal(size=(5, 6, 16)))
    mc = field_dwt(fld, 2)
    back = idwt(mc.coeffs, mc.j0)
    np.testing.assert_allclose(back, fld.values, atol=1e-12)


def test_normalized_eigenfunctions_orthonormal():
    tg = TimeGrid(5)
    phi = normalized_eigenfunctions(tg, 10)
    gram = phi @ phi.T * tg.weight
    np.testing.assert_allclose(gram, np.eye(10), atol=1e-12)


def test_normalized_eigenfunctions_limits():
    with pytest.raises(ValueError):
        normalized_eigenfunctions(TimeGrid(2), 5)
    with pytest.raises(ValueError):
        normalized_eigenfunctions(TimeGrid(2), 0)


def test_operator_roundtrip_single_component():
    # rank-one operator: the wavelet matrix must have the one stated
    # eigenvalue and rank one
    tg = TimeGrid(4)
    phi = normalized_eigenfunctions(tg, 1)
    op = operator_to_wavelet(np.array([0.4]), phi, tg, 1)
    eigs = wavelet_to_operator_eigs(op, 3)
    np.testing.assert_allclose(eigs[0], 0.4, atol=1e-12)
    np.testing.assert_allclose(eigs[1:], 0.0, atol=1e-12)


def test_operator_matrix_applies_operator():
    # applying the wavelet matrix to dwt(f) must equal dwt of the operator
    # applied to f by quadrature
    tg = TimeGrid(4)
    lam = np.array([0.3, -0.2, 0.1])
    phi = normalized_eigenfunctions(tg, 3)
    op = operator_to_wavelet(lam, phi, tg, 2)
    rng = np.random.default_rng(12)
    f = rng.normal(size=tg.n)
    # direct operator action: sum_p lam_p <phi_p, f> phi_p
    scores = phi @ f * tg.weight
    direct = (lam * scores) @ phi
    via_matrix = idwt(op.matrix @ dwt(f, 2), 2)
    np.testing.assert_allclose(via_matrix, direct, atol=1e-10)


def test_operator_shape_validation():
    tg = TimeGrid(3)
    with pytest.raises(ValueError, match=r"^eigenfunction array shape \(2, 8\) != \(1, 8\)$"):
        operator_to_wavelet(np.array([0.5]), np.zeros((2, tg.n)), tg, 0)


@pytest.mark.parametrize("make, what", [
    (lambda: dwt(np.zeros(6), 0), "length 6 is not a power of two"),
    (lambda: MultiscaleCoefficients(SpatialGrid(2, 3), 0, 2, np.zeros((2, 3, 8))),
     r"coefficient shape \(2, 3, 8\) != \(2, 3, 4\)"),
    (lambda: OperatorWaveletMatrix(0, 2, np.zeros((4, 3))), r"matrix shape \(4, 3\) != \(4, 4\)"),
    (lambda: OperatorWaveletMatrix(0, 1, np.array([[0.0, np.nan], [0.0, 0.0]])), "matrix contains non-finite entries"),
    (lambda: wavelet_to_operator_eigs(OperatorWaveletMatrix(0, 1, np.eye(2)), 0), "need 1 <= k <= 2, got 0"),
    (lambda: wavelet_to_operator_eigs(OperatorWaveletMatrix(0, 1, np.eye(2)), 3), "need 1 <= k <= 2, got 3"),
], ids=["length", "coefficient shape", "matrix shape", "non-finite matrix", "k of 0", "k past n"])
def test_wavelet_containers_reject_their_faults(make, what):
    with pytest.raises(ValueError, match=f"^{what}$"):
        make()


def test_coefficients_roundtrip():
    rng = np.random.default_rng(5)
    mc = MultiscaleCoefficients(SpatialGrid(3, 3), 1, 3, rng.normal(size=(3, 3, 8)))
    back = field_dwt(FunctionalField(mc.grid, TimeGrid(mc.depth), idwt(mc.coeffs, mc.j0)), mc.j0)
    assert (back.j0, back.depth) == (1, 3)
    np.testing.assert_allclose(back.coeffs, mc.coeffs)
