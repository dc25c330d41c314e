"""The two routes of linreg_core.factorize: the thin SVD and the Gram route.

A non-square A at lam > 0 is factorized through the Gram matrix of its
smaller side when K passes the guard of factorize; every other call is
np.linalg.svd as it returns.  The differential test compares
the fit with the normal equations and with Factorization(Z, lam), the
SVD route built by hand, on tall and wide Z with s_min / s_max >= 1e-4.
The Gram route squares the condition number kappa of Z, so each tolerance is
GRAM_TOL * max(M, N_p) * kappa^2 * eps in the natural scale of the quantity
(the largest normalized gap seen over 4000 draws, tall and wide, was 2.0).
The spectrum is the thin SVD's on every route, so the singular values are
held to the backward-stable SPECTRUM_TOL * max(M, N_p) * eps * s_max (the
largest normalized gap seen over 6000 draws, against the SVD route and
against the planted values, was 0.94).
"""
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from georeg import STREAM_TRAIN, ExperimentConfig, NumericError, apply_features, fit, make_feature_map, sample_dataset, sample_teacher
from georeg.cli import main
from georeg.experiments import _replica, _replica_metrics
from georeg.geometry import feature_operator_from_model, label_projector, prediction_decomposition
from georeg.linreg_core import Factorization, FeatureMap, FittedModel, factorize

EPS = np.finfo(float).eps
GRAM_TOL = 50.0
SPECTRUM_TOL = 4.0


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
    # The guard sends a fit to the SVD only when lam_min(K) < sqrt(eps) |K|_F,
    # and |K|_F <= sqrt(min(m, n)) lam_max with cond(K) <= kappa^2.
    assert svd.call_count == 0 or kappa**2 * np.sqrt(min(m, n)) > 1.0 / np.sqrt(EPS)
    ref = Factorization(Z, lam)
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

    assert model.factors.rank == ref.rank == min(m, n)
    s_tol = SPECTRUM_TOL * max(m, n) * EPS * ref.s[0]
    assert np.all(np.abs(model.factors.s - ref.s) <= s_tol)
    assert abs(model.factors.sigma_min - ref.sigma_min) <= s_tol
    if model.factors.route == "tall_gram":  # takes the singular values alone
        assert m > n and model.factors.U_k is None and model.factors.Vt_k is None
    else:  # every other route reads the SVD route's own thin SVD
        assert model.factors.U_k.tobytes() == ref.U_k.tobytes()

    p_f = feature_operator_from_model(model, X)
    p_f_ref = feature_operator_from_model(FittedModel(w_ref, fmap, ref, float(np.mean(r * r))), X)
    scale = np.linalg.norm(fmap.W, 2) * g_norm * np.linalg.norm(X, 2)
    assert np.linalg.norm(p_f - p_f_ref, 2) <= tol * scale


# --------------------------------------------------------------- routes


def _forbid_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd was called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)


def _is_tall_ridge(shape, lam) -> bool:
    return lam > 0 and shape[0] > shape[1]


# every (shape, lam) that factorize sends to the thin SVD or, for a wide
# shape at lam > 0, to the Gram route, which reads its spectrum from the
# same thin SVD; then each tall shape at lam > 0, whose factorize spectrum is
# the singular values alone, as the SVD route that Factorization(Z, lam)
# builds
_SHAPES, _LAMS = [(5, 9), (8, 8), (1, 4), (9, 5), (6, 1)], (0.0, 1e-8, 0.5)
_SVD_CASES = [(shape, lam) for shape in _SHAPES for lam in _LAMS if not _is_tall_ridge(shape, lam)]
_SVD_CASES += [(shape, lam) for shape in _SHAPES for lam in _LAMS if _is_tall_ridge(shape, lam)]


@pytest.mark.parametrize("shape, lam", _SVD_CASES)
def test_wide_square_and_lam_zero_are_the_thin_svd(shape, lam):
    Z = np.random.default_rng(sum(shape)).normal(size=shape)
    U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    f = Factorization(Z, lam) if _is_tall_ridge(shape, lam) else factorize(Z, lam)
    assert f.rank == min(shape)  # every mode is kept, so U_k and Vt_k are U and Vt
    for got, want in ((f.U_k, U), (f.s, s), (f.Vt_k, Vt)):
        assert got.tobytes() == want.tobytes()


def test_tall_ridge_spectrum_is_the_singular_values_alone(monkeypatch):
    Z = np.random.default_rng(0).normal(size=(9, 4))
    svd, calls = np.linalg.svd, []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return svd(*args, **kwargs)

    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh was called")

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    f = factorize(Z, 1e-8)
    assert f.route == "tall_gram" and calls == []
    assert f.U_k is None and f.Vt_k is None
    assert calls == [{"compute_uv": False}]
    assert f.s.tobytes() == svd(Z, compute_uv=False).tobytes()
    assert (f.rank, f.sigma_min) == (4, f.s[-1])


def _relu_or_linear_fit(m, n_f, n_p, activation, lam=1e-8):
    """(beta, training data, fit) of one draw of the named family."""
    cfg = ExperimentConfig(m=m, n_f=n_f, n_p=n_p, activation=activation, lam=lam)
    beta = sample_teacher(cfg)
    data = sample_dataset(cfg, beta, (0, 0, STREAM_TRAIN))
    fmap = make_feature_map(cfg)
    return beta, data, fit(apply_features(fmap, data.X), data.y, lam=lam, feature_map=fmap)


def _decomposition_residual(model, beta, data) -> float:
    """The largest |y_hat - (x_hat . beta + delta_y_hat)| / (1 + |y_hat|) over 20 fresh inputs (c06)."""
    rng = np.random.default_rng(42)
    fmap, worst = model.feature_map, 0.0
    for _ in range(20):
        x = rng.normal(0.0, 1.0 / np.sqrt(fmap.W.shape[0]), fmap.W.shape[0])
        y_hat = float(apply_features(fmap, x) @ model.w_hat)
        xb, dy = prediction_decomposition(model, beta, data.X, x)
        worst = max(worst, abs(y_hat - (xb + dy)) / (1.0 + abs(y_hat)))
    return worst


@pytest.mark.parametrize("m, n_f, n_p", [(64, 32, 96), (256, 307, 768), (64, 32, 16), (256, 64, 128)])
def test_relu_fits_take_the_gram_route(monkeypatch, m, n_f, n_p):
    _forbid_svd(monkeypatch)
    beta, data, model = _relu_or_linear_fit(m, n_f, n_p, "relu")
    feature_operator_from_model(model, data.X)
    assert _decomposition_residual(model, beta, data) <= 1e-12


@pytest.mark.parametrize("m, n_f, n_p", [(64, 32, 96), (256, 64, 512), (256, 64, 128), (256, 128, 768)])
def test_rank_deficient_linear_fits_fall_back_to_the_svd(m, n_f, n_p):
    # Z = X W has rank n_f < min(M, N_p): at lam = 1e-8 lam_min of K is
    # about lam, so the guard takes the SVD, and the fit is bitwise the one
    # built from np.linalg.svd here.  The last design is georeg angles
    # --model linear --nf-ratio 0.5 --np-ratio 3, whose pivot ratio 1.56e-8
    # sits just above sqrt(eps).
    beta, data, model = _relu_or_linear_fit(m, n_f, n_p, "linear")
    Z = apply_features(model.feature_map, data.X)
    ref = Factorization(Z, model.factors.lam)
    assert model.w_hat.tobytes() == ref.solve(data.y).tobytes()
    for got, want in ((model.factors.U_k, ref.U_k), (model.factors.s, ref.s), (model.factors.Vt_k, ref.Vt_k)):
        assert got.tobytes() == want.tobytes()
    p_f = feature_operator_from_model(model, data.X)
    assert p_f.tobytes() == ref.solve(data.X, left=model.feature_map.W).T.tobytes()
    assert model.factors.rank == n_f
    assert _decomposition_residual(model, beta, data) <= 1e-12


@pytest.mark.parametrize("m, n_f, n_p", [(256, 64, 512), (256, 64, 128)])
def test_large_lam_keeps_a_rank_deficient_design_on_the_gram_route(monkeypatch, m, n_f, n_p):
    # at lam = 1e-2 Z is still rank-deficient (lam_min of K near lam), but
    # lam_min is far above sqrt(eps) |K|_F, so the Gram route is accurate
    lam = 1e-2
    with monkeypatch.context() as patched:
        _forbid_svd(patched)
        beta, data, model = _relu_or_linear_fit(m, n_f, n_p, "linear", lam=lam)
    w_ref = Factorization(apply_features(model.feature_map, data.X), lam).solve(data.y)
    assert np.linalg.norm(model.w_hat - w_ref) <= 1e-12 * np.linalg.norm(w_ref)
    assert _decomposition_residual(model, beta, data) <= 1e-12


# -------------------------------------------------------------- the guard


def _gram(Z, lam) -> np.ndarray:
    """K = Z^T Z + lam I for a tall Z and Z Z^T + lam I otherwise, formed as factorize forms it."""
    K = Z.T @ Z if Z.shape[0] > Z.shape[1] else Z @ Z.T
    K.flat[:: K.shape[0] + 1] += lam
    return K


def _eigenvalue_rule_rejects(Z, lam) -> bool:
    """lam_min < 1e3 lam and lam_min / lam_max < sqrt(eps), read from np.linalg.eigvalsh(K)."""
    ev = np.linalg.eigvalsh(_gram(Z, lam))
    return bool(ev[0] < 1e3 * lam and ev[0] < np.sqrt(EPS) * ev[-1])


def test_an_ill_conditioned_wide_fit_takes_the_svd_without_eigvalsh():
    # a wide 2 x 3 Z with singular values (1, 1e-8) at lam = 1e-8: lam_min
    # of K is 2e-8, below both 1e3 lam and sqrt(eps) |K|_F
    rng = np.random.default_rng(1827)
    U, V = np.linalg.qr(rng.normal(size=(2, 2)))[0], np.linalg.qr(rng.normal(size=(3, 2)))[0]
    Z, lam = (U * [1.0, 1e-8]) @ V.T, 1e-8
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        f = factorize(Z, lam)
    assert f.route == "svd" and eigvalsh.call_count == 0
    y = rng.normal(size=2)
    assert f.solve(y).tobytes() == Factorization(Z, lam).solve(y).tobytes()


@pytest.mark.parametrize("shape", [(9, 5), (5, 9)])
def test_the_guard_is_one_cholesky_and_keeps_the_bits_of_k(monkeypatch, shape):
    Z, lam = np.random.default_rng(4).normal(size=shape), 1e-8
    K = _gram(Z, lam)
    for name in ("svd", "eigh", "eigvalsh", "qr", "solve", "lstsq"):
        monkeypatch.setattr(np.linalg, name, mock.Mock(side_effect=AssertionError(name)))
    with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky:
        f = factorize(Z, lam)
    assert cholesky.call_count == 1 and f._K.tobytes() == K.tobytes()


def _random_design(family, seed) -> np.ndarray:
    """A non-square Z of M in [8, 128] rows and N_p in [8, 256] columns:
    a random low-rank product, or linear or relu features of N_f random inputs."""
    rng = np.random.default_rng(seed)
    m, n_p = int(rng.integers(8, 129)), int(rng.integers(8, 257))
    while m == n_p:
        n_p = int(rng.integers(8, 257))
    if family == "low-rank":
        r = int(rng.integers(1, min(m, n_p)))
        return rng.normal(size=(m, r)) @ rng.normal(size=(r, n_p)) / np.sqrt(r)
    n_f = int(rng.integers(1, 2 * m))
    W = rng.normal(0.0, 1.0 / np.sqrt(n_p), (n_f, n_p))
    return apply_features(FeatureMap(family, W), rng.normal(0.0, 1.0 / np.sqrt(n_f), (m, n_f)))


@pytest.mark.parametrize("family", ["low-rank", "linear", "relu"])
def test_every_design_the_eigenvalue_rule_rejects_takes_the_svd(family):
    for seed in range(200):
        Z = _random_design(family, seed)
        for lam in (1e-8, 1e-6, 1e-4):
            if _eigenvalue_rule_rejects(Z, lam):
                assert factorize(Z, lam).route == "svd", (seed, lam)


def _det_one_design() -> np.ndarray:
    """[L | 0] for L L^T = K0 = [[1, b], [b, 1e6]] with det(K0) = 1: the
    pivots d^2 of K0 are (1, 1) but its eigenvalues about (1e-6, 1e6)."""
    b = np.sqrt(1e6 - 1.0)
    return np.hstack([np.linalg.cholesky(np.array([[1.0, b], [b, 1e6]])), np.zeros((2, 1))])


# designs whose Cholesky pivots of K all read d^2 >= 1e3 lam at lam = 1e-8
# while the eigenvalue rule rejects K; the seeds come from a seeded search
# over seeds 0-999 of _random_design
_PIVOT_ESCAPES = {
    "det-one": _det_one_design,
    "low-rank-108": lambda: _random_design("low-rank", 108),
    "linear-31": lambda: _random_design("linear", 31),
    "relu-587": lambda: _random_design("relu", 587),
}


@pytest.mark.parametrize("design", _PIVOT_ESCAPES)
def test_a_design_whose_pivots_all_pass_takes_the_svd(design):
    Z, lam = _PIVOT_ESCAPES[design](), 1e-8
    d2 = np.diagonal(np.linalg.cholesky(_gram(Z, lam))) ** 2
    assert d2.min() >= 1e3 * lam and _eigenvalue_rule_rejects(Z, lam)
    f = factorize(Z, lam)
    y = np.random.default_rng(0).normal(size=Z.shape[0])
    assert f.route == "svd" and f.solve(y).tobytes() == Factorization(Z, lam).solve(y).tobytes()


_GRAM_ROUTES = {(4, 6): "wide_gram", (6, 4): "tall_gram"}


@pytest.mark.parametrize("shape", [(4, 6), (6, 4)])
def test_a_huge_design_fits_without_a_runtime_warning(shape):
    # |K|_F overflows at entries of 1e100 while K stays finite, which
    # leaves tau = 1e3 lam and the fit on the Gram route
    rng = np.random.default_rng(5)
    Z = 1e100 * rng.normal(size=shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        model = fit(Z, rng.normal(size=shape[0]), lam=1e-8)
    assert model.factors.route == _GRAM_ROUTES[shape] and np.all(np.isfinite(model.w_hat))


@pytest.mark.parametrize("shape", [(4, 6), (6, 4)])
def test_an_overflowing_gram_fit_is_a_numeric_error(shape):
    # at entries of 1e160, K = Z Z^T (or Z^T Z) overflows to inf and the
    # Gram solve returns an all-NaN w_hat, which fit must not hand back
    Z = 1e160 * np.random.default_rng(5).normal(size=shape)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match=f"not finite on the {_GRAM_ROUTES[shape]} route"):
        fit(Z, np.ones(shape[0]), lam=1e-8)


def test_an_overflowing_svd_filter_is_a_numeric_error():
    # at entries of 1e160 the s^2 of a square ridge fit overflows, and the
    # filter s/(s^2 + lam) would read 0 and hand back an all-zero w_hat
    Z = 1e160 * np.random.default_rng(5).normal(size=(4, 4))
    with pytest.raises(NumericError, match="overflows on the svd route"):
        fit(Z, np.ones(4), lam=1e-8)


def test_c06_linear_fit_is_the_svd_routes_at_seeds_0_to_39():
    # c06's linear design (64 x 96, rank 32, lam = 1e-8); at 8 of these
    # seeds a guard that read the Cholesky pivots alone kept the Gram route,
    # whose w_hat was 2.0e-8 off
    for seed in range(40):
        cfg = ExperimentConfig(m=64, n_f=32, n_p=96, activation="linear", seed=seed)
        data = sample_dataset(cfg, sample_teacher(cfg), (0, 0, STREAM_TRAIN))
        Z = apply_features(make_feature_map(cfg), data.X)
        model = fit(Z, data.y, lam=cfg.lam)
        assert model.w_hat.tobytes() == Factorization(Z, cfg.lam).solve(data.y).tobytes(), seed


# ------------------------------------------------- the spectrum of a wide fit


def test_wide_gram_fit_reads_the_spectrum_of_the_thin_svd(monkeypatch):
    calls, svd = [], np.linalg.svd

    def counted(*args, **kwargs):
        calls.append("svd")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    _, data, model = _relu_or_linear_fit(64, 32, 96, "relu")
    assert calls == []
    ref = Factorization(apply_features(model.feature_map, data.X), model.factors.lam)
    assert model.factors.rank == ref.rank == 64
    assert model.factors.sigma_min == ref.sigma_min
    assert model.factors.U_k.tobytes() == ref.U_k.tobytes()
    assert calls == ["svd", "svd"]  # the reference's, and the fit's once


# ---------------------------------------------- the SVD taken at construction


def _rank_deficient(m, n, r, seed=0):
    """An m x n Z of rank r: r random columns, then copies of them."""
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(m, r))
    return B[:, np.concatenate([np.arange(r), rng.integers(0, r, n - r)])]


_SVD_ROUTE_DESIGNS = {  # name: (a fresh Z, lam)
    "lam_zero": (lambda: np.random.default_rng(1).normal(size=(9, 6)), 0.0),
    "square_ridge": (lambda: np.random.default_rng(2).normal(size=(8, 8)), 0.5),
    "guard_rejected": (lambda: _rank_deficient(40, 12, 5), 1e-8),
}


@pytest.mark.parametrize("design", _SVD_ROUTE_DESIGNS)
def test_the_svd_route_does_not_see_a_later_write_to_Z(design):
    make, lam = _SVD_ROUTE_DESIGNS[design]
    Z, Z0 = make(), make()
    want = factorize(Z0, lam)
    f = factorize(Z, lam)
    assert f.route == "svd"
    Z[:] = 0.0
    y = np.random.default_rng(3).normal(size=Z.shape[0])
    assert f.solve(y).tobytes() == want.solve(y).tobytes()
    assert f.s.tobytes() == want.s.tobytes() and f.rank == want.rank
    if lam == 0.0:
        assert np.allclose(f.solve(y), np.linalg.lstsq(Z0, y, rcond=None)[0], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "Z, lam",
    [
        (np.random.default_rng(0).normal(size=(9, 4)), 1e-8),  # tall Gram route
        (np.random.default_rng(1).normal(size=(4, 9)), 1e-8),  # wide Gram route
        (np.random.default_rng(2).normal(size=(6, 6)), 1e-8),  # square, the thin SVD
        (np.random.default_rng(3).normal(size=(9, 4)), 0.0),  # lam = 0, the thin SVD
        (_rank_deficient(40, 12, 5), 1e-8),  # the guard's SVD fallback, rank 5
    ],
    ids=["tall_gram", "wide_gram", "square", "lam_zero", "guard_rejected"],
)
def test_frob_complement_is_the_norm_of_I_minus_P_l(Z, lam):
    f = factorize(Z, lam)
    m = Z.shape[0]
    want = np.linalg.norm(np.eye(m) - label_projector(Z).p_l)
    # the Gram identity cancels to the root of its round-off
    assert abs(f.frob_complement - want) <= 4.0 * np.sqrt(m * EPS)
    if f.route == "tall_gram":  # exact
        assert f.frob_complement == np.sqrt(m - f.rank)


def test_a_failing_deferred_svd_fails_the_fit_the_replica_and_the_command(monkeypatch, tmp_path):
    # the SVD route takes its SVD when it is built, inside fit, so a
    # LinAlgError from it still fails the fit, drops the replica with its
    # reason and ends a command with exit 3
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(np.linalg.LinAlgError):
        fit(np.random.default_rng(0).normal(size=(8, 8)), np.ones(8), lam=1e-8)
    square = ExperimentConfig(m=16, n_f=4, n_p=16, activation="relu")
    assert _replica(_replica_metrics, square, 0, 0).startswith("LinAlgError:")
    assert main(["angles", "--model", "linear", "--m", "16", "--out", str(tmp_path)]) == 3


# ------------------------------------------------------------ rank rule


@pytest.mark.parametrize("s_min", [1e-6, 1e-7, 1e-9])
def test_tall_gram_fit_reports_the_rank_of_the_thin_svd(s_min):
    # a tall Z = Q1 diag(s) Q2^T with s from 1 down to s_min; at lam = 1 the
    # guard accepts K, and the fit's rank and sigma_min are the thin SVD's,
    # as label_projector reads them
    rng = np.random.default_rng(0)
    Q1, _ = np.linalg.qr(rng.normal(size=(256, 64)))
    Q2, _ = np.linalg.qr(rng.normal(size=(64, 64)))
    Z = (Q1 * np.geomspace(1.0, s_min, 64)) @ Q2.T
    model = fit(Z, rng.normal(size=256), lam=1.0)
    assert model.factors.route == "tall_gram"
    rank = label_projector(Z).rank
    assert model.factors.rank == rank
    s = np.linalg.svd(Z, compute_uv=False)
    assert abs(model.factors.sigma_min - s[rank - 1]) <= SPECTRUM_TOL * 256 * EPS * s[0]


@pytest.mark.parametrize("m, n, r", [(256, 192, 128), (256, 64, 40), (40, 12, 5), (7, 6, 1)])
def test_gram_cut_reports_planted_rank_of_duplicate_columns(m, n, r):
    rng = np.random.default_rng(m + n + r)
    B = rng.normal(size=(m, r))
    Z = B[:, np.concatenate([np.arange(r), rng.integers(0, r, n - r)])]
    for scale in (1e-6, 1.0, 1e6):
        model = fit(scale * Z, rng.normal(size=m), lam=1e-8)
        assert model.factors.rank == r


def test_gram_cut_keeps_a_relu_design_at_full_rank():
    cfg = ExperimentConfig(m=256, n_f=64, n_p=192, activation="relu")
    data = sample_dataset(cfg, sample_teacher(cfg), (0, 0, STREAM_TRAIN))
    Z = apply_features(make_feature_map(cfg), data.X)
    model = fit(Z, data.y, lam=cfg.lam)
    assert model.factors.route == "tall_gram"
    assert model.factors.rank == 192
    s_min = np.linalg.svd(Z, compute_uv=False)[-1]
    assert model.factors.sigma_min == pytest.approx(s_min, rel=1e-10)
