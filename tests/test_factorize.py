"""The two routes of linreg_core.factorize: the thin SVD and the Gram route.

A strictly tall A at lam > 0 is factorized through eigh of A^T A; every other
call is np.linalg.svd as it returns.  The differential test compares the Gram
route with the normal equations and with a Factorization built from the SVD
in the test, on tall Z with s_min / s_max >= 1e-4.  The Gram route squares
the condition number kappa of Z, so each tolerance is
GRAM_TOL * max(M, N_p) * kappa^2 * eps in the natural scale of the quantity
(the largest normalized gap seen over 6000 draws was 2.2).
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from georeg import STREAM_TRAIN, ExperimentConfig, apply_features, fit, make_feature_map, sample_dataset, sample_teacher
from georeg.config import default_rel_tol
from georeg.geometry import feature_operator_from_model
from georeg.linreg_core import Factorization, FeatureMap, FittedModel, factorize

EPS = np.finfo(float).eps
GRAM_TOL = 50.0


def _svd_reference(Z: np.ndarray, lam: float) -> Factorization:
    U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    return Factorization(U, s, Vt, lam, keep=s > default_rel_tol(Z.shape) * s[0])


@st.composite
def tall_ridge(draw):
    """(Z, y, lam, kappa): a tall Z with planted singular values from 1 down to 1/kappa, times a scale."""
    m = draw(st.integers(2, 40))
    n = draw(st.integers(1, m - 1))
    log_kappa = draw(st.floats(0.0, 4.0))
    scale = 10.0 ** draw(st.floats(-2.0, 2.0))
    lam = 10.0 ** draw(st.floats(-10.0, 0.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q1, _ = np.linalg.qr(rng.normal(size=(m, n)))
    Q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    s = scale * np.logspace(0.0, -log_kappa, n)
    return (Q1 * s) @ Q2.T, rng.normal(size=m), lam, s[0] / s[-1]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(tall_ridge())
def test_gram_route_matches_normal_equations_and_svd(case):
    Z, y, lam, kappa = case
    m, n = Z.shape
    tol = GRAM_TOL * m * kappa**2 * EPS
    rng = np.random.default_rng(n)
    fmap = FeatureMap("linear", rng.normal(size=(3, n)))
    X = rng.normal(size=(m, 3))
    model = fit(Z, y, lam=lam, feature_map=fmap)
    assert model.factors.U is None  # the Gram route was taken
    ref = _svd_reference(Z, lam)
    G_ref = ref.effective_inverse()
    g_norm = np.linalg.norm(G_ref, 2)

    w_closed = np.linalg.solve(Z.T @ Z + lam * np.eye(n), Z.T @ y)
    w_ref = ref.solve(y)
    assert np.linalg.norm(model.w_hat - w_closed) <= tol * g_norm * np.linalg.norm(y)
    assert np.linalg.norm(model.w_hat - w_ref) <= tol * g_norm * np.linalg.norm(y)
    assert np.linalg.norm(model.effective_inverse() - G_ref, 2) <= tol * g_norm
    r = y - Z @ w_ref
    assert abs(model.train_error - np.mean(r * r)) <= tol * np.dot(y, y) / m

    assert model.rank_z == ref.rank == n
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


# every (shape, lam) but a tall shape at lam > 0, which is the Gram route
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
    assert f.AV is None
    for got, want in ((f.U, U), (f.s, s), (f.Vt, Vt)):
        assert got.tobytes() == want.tobytes()


def test_tall_ridge_calls_eigh_not_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("the Gram route called np.linalg.svd")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    Z = np.random.default_rng(0).normal(size=(9, 4))
    f = factorize(Z, 1e-8)
    assert f.U is None and f.AV.shape == (9, 4)
    assert np.allclose(f.U_k.T @ f.U_k, np.eye(4), atol=1e-13)


# ------------------------------------------------------------ rank rule


@pytest.mark.parametrize("m, n, r", [(256, 192, 128), (256, 64, 40), (40, 12, 5), (7, 6, 1)])
def test_gram_cut_reports_planted_rank_of_duplicate_columns(m, n, r):
    rng = np.random.default_rng(m + n + r)
    B = rng.normal(size=(m, r))
    Z = B[:, np.concatenate([np.arange(r), rng.integers(0, r, n - r)])]
    for scale in (1e-6, 1.0, 1e6):
        model = fit(scale * Z, rng.normal(size=m), lam=1e-8)
        assert model.factors.U is None
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
