"""What the solves of linreg_core.Factorization compute, and what they skip.

On the Gram route (lam > 0, Z strictly tall) a fit solves with
np.linalg.solve on K = Z^T Z + lam I once np.linalg.cholesky accepts K, and
the spectrum of Z (np.linalg.eigh of Z^T Z) is taken only when something
reads it.  When cholesky rejects K the solves fall back to that spectrum.
P_f = (W G X)^T is built on every route without forming G.
"""
import numpy as np
import pytest

from georeg import ExperimentConfig, NumericError, ShapeError, draw_paired_replica, fit
from georeg.decomposition import _paired_metrics
from georeg.geometry import feature_operator_from_model
from georeg.linreg_core import Factorization, FeatureMap

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


# ---------------------------------------------------------- deferred eigh


def test_one_sided_replica_skips_the_spectrum(monkeypatch):
    cfg = ExperimentConfig(m=64, n_f=16, n_p=48, activation="relu")
    _forbid(monkeypatch, "eigh", "svd")
    draw = draw_paired_replica(cfg, 0, 0)
    metrics = _paired_metrics(draw, symmetric=False)
    assert np.all(np.isfinite(list(metrics.values())))

    model = draw.model_1
    assert model.factors.U is None  # the Gram route was taken
    monkeypatch.undo()
    calls = _count_calls(monkeypatch, "eigh")
    assert model.rank_z == 48
    assert model.rank_z == 48
    assert calls == ["eigh"]


# ------------------------------------------------------ cholesky fallback


def test_rank_deficient_fit_falls_back_to_the_spectrum():
    m, n, r, lam = 256, 64, 40, 1e-8
    rng = np.random.default_rng(3)
    B = rng.normal(size=(m, r))
    Z = 1e6 * B[:, np.concatenate([np.arange(r), rng.integers(0, r, n - r)])]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(Z.T @ Z + lam * np.eye(n))

    y = rng.normal(size=m)
    fmap = FeatureMap("linear", rng.normal(size=(5, n)))
    model = fit(Z, y, lam=lam, feature_map=fmap)
    assert model.factors.U is None
    assert np.all(np.isfinite(model.w_hat))
    resid = y - Z @ model.w_hat
    assert model.train_error == np.mean(resid * resid)
    assert model.rank_z == r
    assert np.all(np.isfinite(feature_operator_from_model(model, rng.normal(size=(m, 5)))))


# ------------------------------------------------------------ P_f without G


@pytest.mark.parametrize(
    "m, n_f, n_p, lam",
    [
        (60, 12, 40, 1e-8),  # tall ridge: the Gram route
        (60, 12, 90, 1e-8),  # wide ridge: the SVD route
        (60, 12, 40, 0.0),  # lam = 0, tall
        (60, 12, 90, 0.0),  # lam = 0, wide
        (40, 70, 120, 1e-8),  # n_f > M
    ],
)
def test_feature_operator_never_forms_G(monkeypatch, m, n_f, n_p, lam):
    rng = np.random.default_rng(m + n_f + n_p)
    X = rng.normal(size=(m, n_f)) / np.sqrt(n_f)
    fmap = FeatureMap("relu", rng.normal(size=(n_f, n_p)) / np.sqrt(n_p))
    Z = 2.0 * np.maximum(0.0, X @ fmap.W)
    model = fit(Z, rng.normal(size=m), lam=lam, feature_map=fmap)
    want = (fmap.W @ model.effective_inverse() @ X).T

    def no_G(self):
        raise AssertionError("P_f formed G")

    monkeypatch.setattr(Factorization, "effective_inverse", no_G)
    got = feature_operator_from_model(model, X)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
