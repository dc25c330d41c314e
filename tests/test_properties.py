"""Property tests of pseudoinverse, fit, analyze_operator and decompose_perturbation.

Each test checks identities to round-off or typed errors.  A is drawn as
U diag(s) V^T with orthonormal U, V, a planted rank r (r = 0 is the zero
matrix), singular values spread over 0, 4 or 8 decades and scaled by 1e-8,
1 or 1e8, so that every case is well inside or far from the relative
cutoff.  Each bound is a multiple c of round-off, and each c sits a few
times above the largest ratio measured over 4000 or more such cases (see the
constants).
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from georeg import (
    ConfigurationError,
    DegenerateDirectionError,
    NumericError,
    ShapeError,
    analyze_operator,
    decompose_perturbation,
    fit,
    pseudoinverse,
)

EPS = np.finfo(float).eps
# Largest measured |residual| / (max(m, n) eps |A| |A^+| |term|) over the
# four Penrose identities: 6.5, on (A A^+)^T = A A^+.
C_PENROSE = 20.0
# Largest measured ridge residual over its bound with c = 1: 1.4, on a
# square A (SVD route); 0.2 tall and 0.3 wide (Gram routes).
C_RIDGE = 5.0
# analyze_operator.  Largest measured |F^T F - I| / (n eps) over the columns
# F of f_x and f_w: 3.5.
C_ORTHONORMAL = 10.0
# Largest measured |P f_w - f_x diag(sigma)| / (n eps |P|): 16.
C_SVD = 50.0
# Largest measured |sigma cos theta - 1| / (n eps |P|) on oblique projectors: 1.5.
C_OBLIQUE = 5.0
# decompose_perturbation.  Largest measured unit-length error / (n eps): 0.5,
# and |e_par . e_perp| / (n eps |e|^2 / (|e_par'| |e_perp'|)), with e_par'
# and e_perp' the parts before normalization: 1.6.
C_SPLIT = 5.0
# Largest measured |P e_perp| / (n eps |P| |e| / |e_perp'|): 3.8.
C_KERNEL = 15.0


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


@settings(derandomize=True, deadline=None, max_examples=200)
@given(matrices("square"))
def test_analyze_operator_returns_the_kept_svd_of_p(case):
    P, _ = case
    an = analyze_operator(P)
    n, s = P.shape[0], an.sigmas
    # descending and above the one cut 1e-10 * n * sigma_max
    assert np.all(np.diff(s) <= 0) and np.all(s > 1e-10 * n * s[:1])
    for F in (an.f_x, an.f_w):
        assert F.shape == (n, an.rank)
        assert np.linalg.norm(F.T @ F - np.eye(an.rank), 2) <= C_ORTHONORMAL * n * EPS
    assert np.linalg.norm(P @ an.f_w - an.f_x * s, 2) <= C_SVD * n * EPS * np.linalg.norm(P, 2)
    assert np.all((an.thetas_deg >= 0) & (an.thetas_deg <= 180))


@st.composite
def oblique_projectors(draw):
    """(B (C^T B)^-1 C^T, k): orthonormal n x k B and C, k principal angles up to 89.99 degrees."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n // 2))
    phi = np.radians(draw(st.lists(st.sampled_from([0.0, 30.0, 60.0, 85.0, 89.0, 89.9, 89.99]), min_size=k, max_size=k)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = _orthonormal(rng, n, 2 * k)
    B = (Q[:, :k] * np.cos(phi) + Q[:, k:] * np.sin(phi)) @ _orthonormal(rng, k, k)
    C = Q[:, :k] @ _orthonormal(rng, k, k)
    return B @ np.linalg.solve(C.T @ B, C.T), k


@settings(derandomize=True, deadline=None, max_examples=200)
@given(oblique_projectors())
def test_oblique_projector_modes_have_sigma_cos_theta_one(case):
    P, k = case
    an = analyze_operator(P)
    assert an.rank == k
    err = np.abs(an.sigmas * np.cos(np.radians(an.thetas_deg)) - 1.0)
    assert np.all(err <= C_OBLIQUE * P.shape[0] * EPS * np.linalg.norm(P, 2))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(matrices("square"), st.sampled_from([1.0, 1e-4, 1e-8]), st.sampled_from([1.0, 1e-4, 1e-8]))
def test_decompose_perturbation_splits_into_orthogonal_unit_parts(case, a, b):
    """e = a f_w x + b g: the parts are unit, orthogonal and e_perp is in the kernel of P."""
    P, rng = case
    an = analyze_operator(P)
    n = P.shape[0]
    assume(0 < an.rank < n)
    e = a * an.f_w @ rng.normal(size=an.rank) + b * rng.normal(size=n)
    e_par, e_perp = decompose_perturbation(e, an)
    par = an.f_w @ (an.f_w.T @ e)
    n_e, n_par, n_perp = (np.linalg.norm(v) for v in (e, par, e - par))
    for v in (e_par, e_perp):
        assert abs(np.linalg.norm(v) - 1.0) <= C_SPLIT * n * EPS
    assert abs(e_par @ e_perp) <= C_SPLIT * n * EPS * n_e**2 / (n_par * n_perp)
    assert np.linalg.norm(P @ e_perp) <= C_KERNEL * n * EPS * np.linalg.norm(P, 2) * n_e / n_perp


@settings(derandomize=True, deadline=None, max_examples=40)
@given(matrices("square"), st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 2**16))
def test_decompose_perturbation_raises_typed_errors(case, bad, where):
    P, rng = case
    an = analyze_operator(P)
    n = P.shape[0]
    e = rng.normal(size=n)
    if an.rank == 0:  # P_f is null: there is no split
        with pytest.raises(ConfigurationError):
            decompose_perturbation(e, an)
        return
    with pytest.raises(ShapeError):
        decompose_perturbation(np.append(e, 1.0), an)
    with pytest.raises(ConfigurationError):
        decompose_perturbation(np.zeros(n), an)
    e_bad = e.copy()
    e_bad[where % n] = bad
    with pytest.raises(NumericError):
        decompose_perturbation(e_bad, an)
    with pytest.raises(DegenerateDirectionError, match="perpendicular"):
        decompose_perturbation(an.f_w @ rng.normal(size=an.rank), an)
    if an.rank < n:
        with pytest.raises(DegenerateDirectionError, match="parallel"):
            decompose_perturbation(e - an.f_w @ (an.f_w.T @ e), an)
