"""What the solves of linreg_core.Factorization compute, and what they skip.

On the Gram route (lam > 0, Z not square, K accepted by the guard) a fit
solves with np.linalg.solve on K = Z^T Z + lam I (tall Z) or
K = Z Z^T + lam I (wide Z), and the spectrum of Z is taken only when
something reads it.  When cholesky rejects K the fit is the thin SVD's.
P_f = (W G X)^T is built on every route without forming G.
"""
import numpy as np
import pytest

from georeg import ExperimentConfig, NumericError, ShapeError, apply_features, draw_paired_replica, fit
from georeg.decomposition import _one_sided_metrics, _paired_metrics
from georeg.experiments import _replica_metrics
from georeg.geometry import feature_operator_from_model, prediction_decomposition
from georeg.linreg_core import Dataset, Factorization, FeatureMap, factorize

FACTOR_KERNELS = ("svd", "eigh", "cholesky", "qr", "solve", "lstsq")


def _forbid(monkeypatch, *names):
    for name in names:
        def raiser(*args, _name=name, **kwargs):
            raise AssertionError(f"np.linalg.{_name} was called")

        monkeypatch.setattr(np.linalg, name, raiser)


def _count_calls(monkeypatch, name) -> list:
    calls, orig = [], getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


# ------------------------------------------------------------ y checks


@pytest.mark.parametrize("shape, lam", [((1200, 900), 1e-8), ((300, 400), 1e-8), ((300, 200), 0.0)])
def test_fit_checks_y_before_factorizing(monkeypatch, shape, lam):
    Z = np.random.default_rng(0).normal(size=shape)
    _forbid(monkeypatch, *FACTOR_KERNELS)
    with pytest.raises(ShapeError):
        fit(Z, np.ones(3), lam=lam)
    y = np.ones(shape[0])
    y[7] = np.nan
    with pytest.raises(NumericError):
        fit(Z, y, lam=lam)


# ------------------------------------------------------ deferred spectrum


def test_one_sided_replica_skips_the_spectrum(monkeypatch):
    cfg = ExperimentConfig(m=64, n_f=16, n_p=48, activation="relu")
    _forbid(monkeypatch, "eigh", "svd")
    draw = draw_paired_replica(cfg, 0, 0)
    metrics = _paired_metrics(draw, symmetric=False)
    assert np.all(np.isfinite(list(metrics.values())))

    model = draw.models[0]
    monkeypatch.undo()
    _forbid(monkeypatch, "eigh")
    calls = _count_calls(monkeypatch, "svd")
    assert model.factors.rank == 48
    assert model.factors.rank == 48
    assert model.factors.U_k is None  # the tall Gram route forms no singular vectors
    assert calls == ["svd"]


def test_paired_replica_reads_the_thin_svd_spectrum_of_a_wide_fit(monkeypatch):
    # a wide replica takes the Gram route; the sweep's metrics then read
    # each fit's spectrum, which is the thin SVD's, bits and all
    cfg = ExperimentConfig(m=32, n_f=8, n_p=64, activation="relu")
    svd, cholesky = _count_calls(monkeypatch, "svd"), _count_calls(monkeypatch, "cholesky")
    draw = draw_paired_replica(cfg, 0, 0)
    assert (svd, cholesky) == ([], ["cholesky", "cholesky"])
    frobs = [m.factors.frob_complement for m in draw.models]
    assert svd == ["svd", "svd"]
    monkeypatch.undo()
    assert _replica_metrics(cfg, 0, 0)["frob_I_minus_Pl"] == 0.5 * (frobs[0] + frobs[1])
    for model, data in zip(draw.models, draw.trains):
        U, s, _ = np.linalg.svd(apply_features(model.feature_map, data.X), full_matrices=False)
        keep = s > 1e-10 * max(cfg.m, cfg.n_p) * s[0]
        assert model.factors.U_k.tobytes() == U[:, keep].tobytes()
        assert model.factors.sigma_min == s[keep].min()


# ------------------------------------------------- one solve per fit


@pytest.mark.parametrize("n_p", [48, 96])  # a tall and a wide Gram-route fit
def test_replica_solves_y_and_X_beta_together(monkeypatch, n_p):
    # one LU per fit for [y, X beta]; the sweep's P_f adds one per fit
    cfg = ExperimentConfig(m=64, n_f=16, n_p=n_p, activation="relu")
    draw = draw_paired_replica(cfg, 0, 0)
    assert all(m.factors._K is not None for m in draw.models)
    rhs, orig = [], np.linalg.solve

    def counted(K, B):
        rhs.append(B.shape)
        return orig(K, B)

    monkeypatch.setattr(np.linalg, "solve", counted)
    assert isinstance(_one_sided_metrics(cfg, 0, 0), dict)
    assert [shape[1:] for shape in rhs] == [(2,), (2,)]
    rhs.clear()
    assert isinstance(_replica_metrics(cfg, 0, 0), dict)
    assert len(rhs) == 4


# ------------------------------------------------------- the four routes

_ROUTES = {  # name: (shape of Z, lam, whether factorize takes the Gram route)
    "tall_gram": ((9, 4), 1e-8, True),
    "wide_gram": ((4, 9), 1e-8, True),
    "svd_ridge": ((8, 8), 0.5, False),
    "svd_min_norm": ((9, 4), 0.0, False),
}


def _factorize_route(route: str) -> tuple[Factorization, int]:
    """(the factorization of a random Z on the named route, rows of Z)."""
    shape, lam, gram = _ROUTES[route]
    factors = factorize(np.random.default_rng(sum(shape)).normal(size=shape), lam)
    assert (factors._K is not None) == gram
    return factors, shape[0]


@pytest.mark.parametrize("route", _ROUTES)
def test_effective_inverse_is_the_solve_of_the_identity(route):
    factors, rows = _factorize_route(route)
    assert factors.effective_inverse().tobytes() == factors.solve(np.eye(rows)).tobytes()


@pytest.mark.parametrize("route", _ROUTES)
def test_solve_takes_one_row_per_row_of_A_or_raises_a_shape_error(route):
    factors, rows = _factorize_route(route)
    y = np.random.default_rng(1).normal(size=rows)
    assert factors.solve(list(y)).tobytes() == factors.solve(y).tobytes()
    for B in (np.float64(1.0), 1.0, np.ones((rows, 2, 2)), np.ones(rows + 1), [[1.0, 2.0]] * (rows + 1)):
        with pytest.raises(ShapeError):
            factors.solve(B)
    # left is converted as B is, and needs one column per column of A
    cols = _ROUTES[route][0][1]
    B, left = np.ones((rows, 2)), np.random.default_rng(2).normal(size=(3, cols))
    assert factors.solve(B, left=left.tolist()).tobytes() == factors.solve(B, left=left).tobytes()
    for bad in (np.ones(cols), [1.0] * cols, np.ones((3, cols + 1)), [[1.0] * (cols + 1)]):
        with pytest.raises(ShapeError):
            factors.solve(B, left=bad)


# ------------------------------------------------------ cholesky fallback


def test_rejected_cholesky_falls_back_to_the_svd():
    m, n, r, lam = 256, 64, 40, 1e-8
    rng = np.random.default_rng(3)
    B = rng.normal(size=(m, r))
    Z = 1e6 * B[:, np.concatenate([np.arange(r), rng.integers(0, r, n - r)])]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(Z.T @ Z + lam * np.eye(n))

    y = rng.normal(size=m)
    fmap = FeatureMap("linear", rng.normal(size=(5, n)))
    model = fit(Z, y, lam=lam, feature_map=fmap)
    ref = Factorization(Z, lam)
    assert model.w_hat.tobytes() == ref.solve(y).tobytes()
    resid = y - Z @ model.w_hat
    assert model.train_error == np.mean(resid * resid)
    assert model.factors.rank == r
    assert np.all(np.isfinite(feature_operator_from_model(model, rng.normal(size=(m, 5)))))


# ------------------------------------------------------------ P_f without G

_NO_G_CASES = [
    (60, 12, 40, 1e-8),  # tall ridge: the Gram route
    (60, 12, 90, 1e-8),  # wide ridge: the Gram route
    (60, 12, 40, 0.0),  # lam = 0, tall
    (60, 12, 90, 0.0),  # lam = 0, wide
    (40, 70, 120, 1e-8),  # n_f > M
]


def _forbid_G(monkeypatch):
    def no_G(self):
        raise AssertionError("G was formed")

    monkeypatch.setattr(Factorization, "effective_inverse", no_G)


@pytest.mark.parametrize("m, n_f, n_p, lam", _NO_G_CASES)
def test_feature_operator_never_forms_G(monkeypatch, m, n_f, n_p, lam):
    rng = np.random.default_rng(m + n_f + n_p)
    X = rng.normal(size=(m, n_f)) / np.sqrt(n_f)
    fmap = FeatureMap("relu", rng.normal(size=(n_f, n_p)) / np.sqrt(n_p))
    Z = 2.0 * np.maximum(0.0, X @ fmap.W)
    model = fit(Z, rng.normal(size=m), lam=lam, feature_map=fmap)
    want = (fmap.W @ model.effective_inverse() @ X).T

    _forbid_G(monkeypatch)
    got = feature_operator_from_model(model, X)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("m, n_f, n_p, lam", _NO_G_CASES)
def test_prediction_decomposition_never_forms_G(monkeypatch, m, n_f, n_p, lam):
    rng = np.random.default_rng(m + n_f + n_p)
    X = rng.normal(size=(m, n_f)) / np.sqrt(n_f)
    fmap = FeatureMap("relu", rng.normal(size=(n_f, n_p)) / np.sqrt(n_p))
    beta = rng.normal(size=n_f)
    eps = 0.1 * rng.normal(size=m)
    data = Dataset(X, X @ beta + eps)
    model = fit(2.0 * np.maximum(0.0, X @ fmap.W), data.y, lam=lam, feature_map=fmap)
    x = rng.normal(size=n_f) / np.sqrt(n_f)
    G = model.effective_inverse()
    dz_nl = 2.0 * np.maximum(0.0, fmap.W.T @ x) - fmap.W.T @ x
    want = (x @ fmap.W @ G @ X @ beta, dz_nl @ G @ data.y + x @ fmap.W @ G @ eps)

    _forbid_G(monkeypatch)
    got = prediction_decomposition(model, beta, data, x)
    y_hat = 2.0 * np.maximum(0.0, fmap.W.T @ x) @ model.w_hat
    assert abs(sum(got) - y_hat) <= 1e-12 * (1.0 + abs(y_hat))
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12 * (1.0 + abs(y_hat)))
