"""w_hat of fit against an extended-precision oracle that shares no code with factorize.

The reference solves the ridge normal equations (Z^T Z + lam I) w = Z^T y
by iterative refinement: each correction is a float64 np.linalg.solve with
Z^T Z + lam I, and each residual Z^T (y - Z w) - lam w is taken in
np.longdouble.  Written this way, and not as Z^T y - (Z^T Z + lam I) w, the
residual's round-off stays in the row space of Z, so the 1/lam that the
null space of a wide Z carries does not amplify it.  The reference then
holds about kappa * eps(longdouble) relative error, far below the bound.

A backward-stable solver has relative error O(kappa * eps) with
kappa = (s_max^2 + lam) / (s_min^2 + lam) from the thin SVD of Z, which is
what each route is held to here.  C is the largest ratio seen, 0.52 over
200 seeds of every case below, with headroom.
"""
import numpy as np
import pytest

from georeg import STREAM_TRAIN, ExperimentConfig, apply_features, fit, make_feature_map, sample_dataset, sample_teacher

EPS = np.finfo(float).eps
C = 2.0
REFINE_STEPS = 8

pytestmark = pytest.mark.skipif(
    np.finfo(np.longdouble).precision <= 15, reason="np.longdouble is no wider than float64 here"
)


def _refined_ridge(Z: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    A = Z.T @ Z + lam * np.eye(Z.shape[1])
    Zl, yl, lam_l = Z.astype(np.longdouble), y.astype(np.longdouble), np.longdouble(lam)
    w = np.linalg.solve(A, Z.T @ y).astype(np.longdouble)
    for _ in range(REFINE_STEPS):
        r = Zl.T @ (yl - Zl @ w) - lam_l * w
        w = w + np.linalg.solve(A, r.astype(float))
    return w


# (activation, N_p, lam, route) at M = 32, N_f = 8: the linear family has
# rank N_f, so at lam = 1e-8 the guard sends it to the thin SVD, and at
# lam = 1e-2 its K is well conditioned and it keeps the Gram route
CASES = [
    ("relu", 16, 1e-8, "tall_gram"),
    ("relu", 16, 1e-2, "tall_gram"),
    ("relu", 32, 1e-8, "svd"),
    ("relu", 32, 1e-2, "svd"),
    ("relu", 64, 1e-8, "wide_gram"),
    ("relu", 64, 1e-2, "wide_gram"),
    ("linear", 16, 1e-8, "svd"),
    ("linear", 16, 1e-2, "tall_gram"),
    ("linear", 64, 1e-8, "svd"),
    ("linear", 64, 1e-2, "wide_gram"),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("activation, n_p, lam, route", CASES)
def test_w_hat_matches_the_refined_normal_equations(activation, n_p, lam, route, seed):
    cfg = ExperimentConfig(m=32, n_f=8, n_p=n_p, activation=activation, lam=lam, seed=seed)
    teacher = sample_teacher(cfg)
    data = sample_dataset(cfg, teacher, (0, 0, STREAM_TRAIN))
    Z = apply_features(make_feature_map(cfg), data.X)
    model = fit(Z, data.y, lam=lam)
    assert model.factors.route == route

    w_ref = _refined_ridge(Z, data.y, lam)
    s = np.linalg.svd(Z, compute_uv=False)
    kappa = (s[0] ** 2 + lam) / (s[-1] ** 2 + lam)
    err = np.linalg.norm(model.w_hat - w_ref) / np.linalg.norm(w_ref)
    assert err <= C * kappa * EPS
