"""Property tests of pseudoinverse and fit: identities to round-off, typed errors.

A is drawn as U diag(s) V^T with orthonormal U, V, a planted rank r (r = 0
is the zero matrix), singular values spread over 0, 4 or 8 decades and
scaled by 1e-8, 1 or 1e8, so that every case is well inside or far from the
relative cutoff.  Each bound is a multiple c of round-off, and each c sits
a few times above the largest ratio measured over 4000 such cases (see the
constants).
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from georeg import NumericError, ShapeError, fit, pseudoinverse

EPS = np.finfo(float).eps
# Largest measured |residual| / (max(m, n) eps |A| |A^+| |term|) over the
# four Penrose identities: 6.5, on (A A^+)^T = A A^+.
C_PENROSE = 20.0
# Largest measured ridge residual over its bound with c = 1: 1.4, on a
# square A (SVD route); 0.2 tall and 0.3 wide (Gram routes).
C_RIDGE = 5.0


def _orthonormal(rng, n, r):
    return np.linalg.qr(rng.normal(size=(n, r)))[0]


@st.composite
def matrices(draw, shape=None):
    """(A, rng) with A of the given shape kind ("tall", "wide", "square") or any shape."""
    a, b = sorted(draw(st.lists(st.integers(1, 12), min_size=2, max_size=2)))
    m, n = {"tall": (b + 1, a), "wide": (a, b + 1), "square": (b, b), None: (a, b)}[shape]
    if shape is None and draw(st.booleans()):
        m, n = n, m
    r = draw(st.integers(0, min(m, n)))
    s = draw(st.sampled_from([1e-8, 1.0, 1e8])) * np.logspace(0, -draw(st.sampled_from([0, 4, 8])), r)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _orthonormal(rng, m, r) @ np.diag(s) @ _orthonormal(rng, n, r).T, rng


@settings(derandomize=True, deadline=None, max_examples=200)
@given(matrices())
def test_pseudoinverse_satisfies_the_penrose_identities(case):
    A, _ = case
    P = pseudoinverse(A)
    assert P.shape == A.T.shape
    norm_a, norm_p = np.linalg.norm(A, 2), np.linalg.norm(P, 2)
    tol = C_PENROSE * max(A.shape) * EPS * norm_a * norm_p
    assert np.linalg.norm(A @ P @ A - A, 2) <= tol * norm_a
    assert np.linalg.norm(P @ A @ P - P, 2) <= tol * norm_p
    assert np.linalg.norm(A @ P - (A @ P).T, 2) <= tol
    assert np.linalg.norm(P @ A - (P @ A).T, 2) <= tol


@pytest.mark.parametrize("shape", ["tall", "wide", "square"])
@settings(derandomize=True, deadline=None, max_examples=80)
@given(data=st.data())
def test_ridge_fit_solves_its_normal_equations(shape, data):
    """|Z^T (y - Z w) - lam w| <= c max(m, n) eps (|Z|^2 + lam) (|w| + |Z| |y| / (s_min^2 + lam)).

    The second term is the round-off of forming Z^T y or of the wide Gram
    solve K u = y, w = Z^T u, which reaches |Z| |K^-1 y| with s_min the
    smallest of the min(m, n) singular values of Z.
    """
    Z, rng = data.draw(matrices(shape))
    lam = data.draw(st.sampled_from([1e-8, 1e-2, 1.0])) * data.draw(st.sampled_from([1.0, np.linalg.norm(Z, 2) ** 2]))
    if lam == 0.0:  # the zero matrix scaled lam to 0
        lam = 1.0
    y = rng.normal(size=Z.shape[0])
    w = fit(Z, y, lam=lam).w_hat
    norm_z = np.linalg.norm(Z, 2)
    s_min = np.linalg.svd(Z, compute_uv=False)[-1]
    residual = np.linalg.norm(Z.T @ (y - Z @ w) - lam * w)
    scale = (norm_z**2 + lam) * (np.linalg.norm(w) + norm_z * np.linalg.norm(y) / (s_min**2 + lam))
    assert residual <= C_RIDGE * max(Z.shape) * EPS * scale


@settings(derandomize=True, deadline=None, max_examples=40)
@given(matrices(), st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 2**16), st.booleans())
def test_non_finite_input_raises_numeric_error(case, bad, where, in_labels):
    A, rng = case
    y = rng.normal(size=A.shape[0])
    target = y if in_labels else A
    target.flat[where % target.size] = bad
    with pytest.raises(NumericError):
        fit(A, y, lam=1e-8)
    if not in_labels:
        with pytest.raises(NumericError):
            pseudoinverse(A)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.lists(st.integers(1, 4), max_size=4).filter(lambda dims: len(dims) != 2))
def test_non_2d_input_raises_shape_error(dims):
    A = np.ones(dims)
    with pytest.raises(ShapeError):
        pseudoinverse(A)
    with pytest.raises(ShapeError):
        fit(A, np.ones(dims[0] if dims else 1), lam=1e-8)
