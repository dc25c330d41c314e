"""The two routes of linreg_core.factorize: the thin SVD and the Gram route.

A non-square A at lam > 0 is factorized through the Gram matrix of its
smaller side when its Cholesky pivots pass the guard of factorize; every
other call is np.linalg.svd as it returns.  The differential test compares
the fit with the normal equations and with a Factorization built from the
SVD in the test, on tall and wide Z with s_min / s_max >= 1e-4.  The Gram
route squares the condition number kappa of Z, so each tolerance is
GRAM_TOL * max(M, N_p) * kappa^2 * eps in the natural scale of the quantity
(the largest normalized gap seen over 4000 draws, tall and wide, was 2.0).
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from georeg import STREAM_TRAIN, ExperimentConfig, apply_features, fit, make_feature_map, sample_dataset, sample_teacher
from georeg.config import default_rel_tol
from georeg.geometry import feature_operator_from_model, prediction_decomposition
from georeg.linreg_core import Factorization, FeatureMap, FittedModel, factorize

EPS = np.finfo(float).eps
GRAM_TOL = 50.0


def _svd_reference(Z: np.ndarray, lam: float) -> Factorization:
    U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    return Factorization(U, s, Vt, lam, keep=s > default_rel_tol(Z.shape) * s[0])


@st.composite
def ridge_design(draw):
    """(Z, y, lam, kappa): a tall or wide Z with planted singular values from 1 down to 1/kappa, times a scale."""
    big = draw(st.integers(2, 40))
    small = draw(st.integers(1, big - 1))
    m, n = (small, big) if draw(st.booleans()) else (big, small)
    log_kappa = draw(st.floats(0.0, 4.0))
    scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    lam = 10.0 ** draw(st.floats(-10.0, 0.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q1, _ = np.linalg.qr(rng.normal(size=(m, small)))
    Q2, _ = np.linalg.qr(rng.normal(size=(n, small)))
    s = scale * np.logspace(0.0, -log_kappa, small)
    return (Q1 * s) @ Q2.T, rng.normal(size=m), lam, s[0] / s[-1]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(ridge_design())
def test_gram_route_matches_normal_equations_and_svd(case):
    Z, y, lam, kappa = case
    m, n = Z.shape
    tol = GRAM_TOL * max(m, n) * kappa**2 * EPS
    rng = np.random.default_rng(n)
    fmap = FeatureMap("linear", rng.normal(size=(3, n)))
    X = rng.normal(size=(m, 3))
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        model = fit(Z, y, lam=lam, feature_map=fmap)
    # The guard sends a fit to the SVD only when K is ill-conditioned, and
    # cond(K) <= kappa^2 bounds the pivot ratio it reads.
    assert svd.call_count == 0 or kappa**2 > 1.0 / np.sqrt(EPS)
    ref = _svd_reference(Z, lam)
    G_ref = ref.effective_inverse()
    g_norm = np.linalg.norm(G_ref, 2)

    if m > n:
        w_closed = np.linalg.solve(Z.T @ Z + lam * np.eye(n), Z.T @ y)
    else:
        w_closed = Z.T @ np.linalg.solve(Z @ Z.T + lam * np.eye(m), y)
    w_ref = ref.solve(y)
    assert np.linalg.norm(model.w_hat - w_closed) <= tol * g_norm * np.linalg.norm(y)
    assert np.linalg.norm(model.w_hat - w_ref) <= tol * g_norm * np.linalg.norm(y)
    assert np.linalg.norm(model.effective_inverse() - G_ref, 2) <= tol * g_norm
    r = y - Z @ w_ref
    assert abs(model.train_error - np.mean(r * r)) <= tol * np.dot(y, y) / m

    assert model.rank_z == ref.rank == min(m, n)
    assert np.all(np.abs(model.factors.s - ref.s) <= tol * ref.s)
    assert abs(model.sigma_z_min - ref.sigma_min) <= tol * ref.sigma_min
    # the span of U_k: its projector, which no sign or rotation choice changes
    U_k = model.factors.U_k
    assert np.linalg.norm(U_k @ U_k.T - ref.U_k @ ref.U_k.T, 2) <= tol

    p_f = feature_operator_from_model(model, X)
    p_f_ref = feature_operator_from_model(FittedModel(w_ref, fmap, ref, float(np.mean(r * r))), X)
    scale = np.linalg.norm(fmap.W, 2) * g_norm * np.linalg.norm(X, 2)
    assert np.linalg.norm(p_f - p_f_ref, 2) <= tol * scale


# --------------------------------------------------------------- routes


def _forbid_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd was called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)


# every (shape, lam) but a tall shape at lam > 0, whose spectrum is eigh of
# Z^T Z; a wide shape at lam > 0 takes the Gram route and reads its spectrum
# from the same thin SVD
_SVD_CASES = [
    (shape, lam)
    for shape in [(5, 9), (8, 8), (1, 4), (9, 5), (6, 1)]
    for lam in (0.0, 1e-8, 0.5)
    if lam == 0 or shape[0] <= shape[1]
]


@pytest.mark.parametrize("shape, lam", _SVD_CASES)
def test_wide_square_and_lam_zero_are_the_thin_svd(shape, lam):
    Z = np.random.default_rng(sum(shape)).normal(size=shape)
    U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    f = factorize(Z, lam)
    for got, want in ((f.U, U), (f.s, s), (f.Vt, Vt)):
        assert got.tobytes() == want.tobytes()


def test_tall_ridge_calls_eigh_not_svd(monkeypatch):
    _forbid_svd(monkeypatch)
    Z = np.random.default_rng(0).normal(size=(9, 4))
    f = factorize(Z, 1e-8)
    assert f.U is None
    assert np.allclose(f.U_k.T @ f.U_k, np.eye(4), atol=1e-13)
    # K holds Z^T Z + lam I, and the spectrum is eigh of Z^T Z itself
    ev, V = np.linalg.eigh(Z.T @ Z)
    assert f.s.tobytes() == np.sqrt(np.maximum(ev[::-1], 0.0)).tobytes()
    assert f.Vt.tobytes() == np.ascontiguousarray(V[:, ::-1].T).tobytes()


def _relu_or_linear_fit(m, n_f, n_p, activation, lam=1e-8):
    """(teacher, training data, fit) of one draw of the named family."""
    cfg = ExperimentConfig(m=m, n_f=n_f, n_p=n_p, activation=activation, lam=lam)
    teacher = sample_teacher(cfg)
    data = sample_dataset(cfg, teacher, (0, 0, STREAM_TRAIN))
    fmap = make_feature_map(cfg)
    return teacher, data, fit(apply_features(fmap, data.X), data.y, lam=lam, feature_map=fmap)


def _decomposition_residual(model, teacher, data) -> float:
    """The largest |y_hat - (x_hat . beta + delta_y_hat)| / (1 + |y_hat|) over 20 fresh inputs (c06)."""
    rng = np.random.default_rng(42)
    fmap, worst = model.feature_map, 0.0
    for _ in range(20):
        x = rng.normal(0.0, 1.0 / np.sqrt(fmap.W.shape[0]), fmap.W.shape[0])
        y_hat = float(apply_features(fmap, x) @ model.w_hat)
        xb, dy = prediction_decomposition(model, teacher, data, x)
        worst = max(worst, abs(y_hat - (xb + dy)) / (1.0 + abs(y_hat)))
    return worst


@pytest.mark.parametrize("m, n_f, n_p", [(64, 32, 96), (256, 307, 768), (64, 32, 16), (256, 64, 128)])
def test_relu_fits_take_the_gram_route(monkeypatch, m, n_f, n_p):
    _forbid_svd(monkeypatch)
    teacher, data, model = _relu_or_linear_fit(m, n_f, n_p, "relu")
    feature_operator_from_model(model, data.X)
    assert _decomposition_residual(model, teacher, data) <= 1e-12


@pytest.mark.parametrize("m, n_f, n_p", [(64, 32, 96), (256, 64, 512), (256, 64, 128)])
def test_rank_deficient_linear_fits_fall_back_to_the_svd(m, n_f, n_p):
    # Z = X W has rank n_f < min(M, N_p): at lam = 1e-8 the smallest pivot
    # of K reads about 1.5 lam, so the guard takes the SVD, and the fit is
    # bitwise the one built from np.linalg.svd here
    teacher, data, model = _relu_or_linear_fit(m, n_f, n_p, "linear")
    Z = apply_features(model.feature_map, data.X)
    ref = _svd_reference(Z, model.factors.lam)
    assert model.w_hat.tobytes() == ref.solve(data.y).tobytes()
    assert model.factors.U.tobytes() == ref.U.tobytes()
    p_f = feature_operator_from_model(model, data.X)
    assert p_f.tobytes() == ref.solve(data.X, left=model.feature_map.W).T.tobytes()
    assert model.rank_z == n_f
    assert _decomposition_residual(model, teacher, data) <= 1e-12


@pytest.mark.parametrize("m, n_f, n_p", [(256, 64, 512), (256, 64, 128)])
def test_large_lam_keeps_a_rank_deficient_design_on_the_gram_route(monkeypatch, m, n_f, n_p):
    # at lam = 1e-2 the pivots still read Z as rank-deficient (min d^2 near
    # lam), but K is well conditioned, so the Gram route is accurate
    lam = 1e-2
    with monkeypatch.context() as patched:
        _forbid_svd(patched)
        teacher, data, model = _relu_or_linear_fit(m, n_f, n_p, "linear", lam=lam)
    w_ref = _svd_reference(apply_features(model.feature_map, data.X), lam).solve(data.y)
    assert np.linalg.norm(model.w_hat - w_ref) <= 1e-12 * np.linalg.norm(w_ref)
    assert _decomposition_residual(model, teacher, data) <= 1e-12


# ------------------------------------------------- the spectrum of a wide fit


def test_wide_gram_fit_reads_the_spectrum_of_the_thin_svd(monkeypatch):
    calls, svd = [], np.linalg.svd

    def counted(*args, **kwargs):
        calls.append("svd")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    _, data, model = _relu_or_linear_fit(64, 32, 96, "relu")
    assert calls == []
    ref = _svd_reference(apply_features(model.feature_map, data.X), model.factors.lam)
    assert model.rank_z == ref.rank == 64
    assert model.sigma_z_min == ref.sigma_min
    assert model.factors.U_k.tobytes() == ref.U_k.tobytes()
    assert calls == ["svd", "svd"]  # the reference's, and the fit's once


# ------------------------------------------------------------ rank rule


@pytest.mark.parametrize("m, n, r", [(256, 192, 128), (256, 64, 40), (40, 12, 5), (7, 6, 1)])
def test_gram_cut_reports_planted_rank_of_duplicate_columns(m, n, r):
    rng = np.random.default_rng(m + n + r)
    B = rng.normal(size=(m, r))
    Z = B[:, np.concatenate([np.arange(r), rng.integers(0, r, n - r)])]
    for scale in (1e-6, 1.0, 1e6):
        model = fit(scale * Z, rng.normal(size=m), lam=1e-8)
        assert model.rank_z == r


def test_gram_cut_keeps_a_relu_design_at_full_rank():
    cfg = ExperimentConfig(m=256, n_f=64, n_p=192, activation="relu")
    teacher = sample_teacher(cfg)
    data = sample_dataset(cfg, teacher, (0, 0, STREAM_TRAIN))
    Z = apply_features(make_feature_map(cfg), data.X)
    model = fit(Z, data.y, lam=cfg.lam)
    assert model.factors.U is None
    assert model.rank_z == 192
    s_min = np.linalg.svd(Z, compute_uv=False)[-1]
    assert model.sigma_z_min == pytest.approx(s_min, rel=1e-10)
