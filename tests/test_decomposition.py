"""Paired draws and the Monte-Carlo bias-variance estimator, run_bias_variance.

Closed-form oracle: a linear family with N_p >= N_f at lam = 0 has
Z = X W with W of full row rank, so Z^+ = W^+ X^+ and P_f = (W Z^+ X)^T = I.
The prediction x^T W Z^+ y = x^T X^+ y is then ordinary least squares on the
N_f inputs, whose risk with X entries ~ N(0, 1/N_f) on noisy test labels is
sigma_eps^2 (1 + N_f / (M - N_f - 1)) (Hastie et al. 2019, arXiv:1903.08560),
and the geometric error, bias^2 and variance all vanish.

Hand oracle for the geometric error: identity features fitted on the single
row x_1 = (1, 0) give P_f = diag(1, 0).  With beta = (1, 1) and test input
x = (3, 2) the lost component is (I - P_f) x = (0, 2), so the geometric error
is (0*1 + 2*1)^2 = 4.
"""
from dataclasses import replace

import numpy as np
import pytest

import georeg.decomposition
from georeg import (
    ConfigurationError,
    Dataset,
    ExperimentConfig,
    NumericError,
    STREAM_TEST,
    STREAM_TRAIN,
    STREAM_TRAIN_PAIR,
    SweepSpec,
    apply_features,
    draw_paired_replica,
    feature_operator_from_model,
    fit,
    run_bias_variance,
    sample_dataset,
    sigma_eps_for_snr,
)
from georeg import experiments
from georeg.decomposition import PairedDraw, _paired_metrics
from georeg.linreg_core import FeatureMap


def _spec(cfg, n_replicas):
    """The one-point grid at cfg's N_p/M, whose replica streams are grid index 0's."""
    return SweepSpec(cfg, (cfg.n_p / cfg.m,), n_replicas)


def _estimate(cfg, n_replicas):
    """run_bias_variance's row for cfg, run in-process."""
    return run_bias_variance(_spec(cfg, n_replicas)).rows[0]


def _geometric_error(X_train, beta, X_test):
    """geom_error of the sweep's reduction for identity features fitted on
    noiseless labels of X_train, so that P_f = (X_train^+ X_train)^T."""
    beta = np.asarray(beta, dtype=float)
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    X_test = np.atleast_2d(np.asarray(X_test, dtype=float))
    fmap = FeatureMap(kind="identity", W=np.eye(beta.shape[0]))
    train = Dataset(X=X_train, y=X_train @ beta)
    test = Dataset(X=X_test, y=X_test @ beta)
    model = fit(X_train, train.y, lam=0.0, feature_map=fmap)
    beta_hat = feature_operator_from_model(model, X_train).T @ beta
    draw = PairedDraw(beta, (train, train), test, (model, model), (beta_hat, beta_hat))
    return _paired_metrics(draw, symmetric=False)["geom_error"]


class TestGeometricTestError:
    def test_hand_oracle(self):
        err = _geometric_error([[1.0, 0.0]], [1.0, 1.0], [3.0, 2.0])
        assert err == pytest.approx(4.0, abs=1e-12)

    def test_identity_operator_loses_nothing(self):
        # a full-rank training design gives P_f = I
        rng = np.random.default_rng(5)
        err = _geometric_error(rng.normal(size=(4, 4)), rng.normal(size=4), rng.normal(size=4))
        assert err <= 1e-20

    def test_kernel_direction_loses_everything(self):
        err = _geometric_error([[1.0, 0.0]], [0.0, 3.0], [0.0, 1.0])
        assert err == pytest.approx(9.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            err = _geometric_error(
                rng.normal(size=(3, 5)), rng.normal(size=5), rng.normal(size=(4, 5))
            )
            assert err >= 0.0


# (n_p, lam, route) at m = 32, n_f = 8: the tall Gram, wide Gram, square SVD and lam = 0 SVD routes
_ROUTES = [(16, 1e-8, "tall_gram"), (64, 1e-8, "wide_gram"), (32, 1e-8, "svd"), (16, 0.0, "svd")]


class TestPairedDraw:
    def test_deterministic(self):
        cfg = ExperimentConfig(m=12, n_f=5, n_p=16)
        a = draw_paired_replica(cfg, 0, 0)
        b = draw_paired_replica(cfg, 0, 0)
        assert np.array_equal(a.trains[0].X, b.trains[0].X)
        assert np.array_equal(a.models[0].w_hat, b.models[0].w_hat)
        assert np.array_equal(a.beta, b.beta)

    def test_streams_differ(self):
        cfg = ExperimentConfig(m=12, n_f=5, n_p=16)
        d = draw_paired_replica(cfg, 0, 0)
        other = draw_paired_replica(cfg, 0, 1)
        assert not np.array_equal(d.trains[0].X, d.trains[1].X)
        assert not np.array_equal(d.trains[0].X, d.test.X)
        assert not np.array_equal(d.beta, other.beta)
        assert not np.array_equal(d.models[0].feature_map.W, other.models[0].feature_map.W)

    def test_shared_teacher_and_weights_within_pair(self):
        cfg = ExperimentConfig(m=12, n_f=5, n_p=16)
        d = draw_paired_replica(cfg, 2, 3)
        assert d.models[0].feature_map is d.models[1].feature_map
        # every set of the pair is labelled by the one beta of the draw
        for data, stream in zip((*d.trains, d.test), (STREAM_TRAIN, STREAM_TRAIN_PAIR, STREAM_TEST)):
            want = sample_dataset(cfg, d.beta, (2, 3, stream))
            assert np.array_equal(data.X, want.X) and np.array_equal(data.y, want.y)

    @pytest.mark.parametrize("n_p, lam, route", _ROUTES)
    def test_paired_metrics_are_those_of_the_fits_P_f(self, n_p, lam, route):
        # A_k = X_test P_f^T beta on every route, though P_f is never built
        d = draw_paired_replica(ExperimentConfig(m=32, n_f=8, n_p=n_p, lam=lam), 0, 0)
        X = d.test.X
        t = X @ d.beta
        a = [X @ (feature_operator_from_model(m, train.X).T @ d.beta) for m, train in zip(d.models, d.trains)]
        want = {
            "geom_error": [np.mean((t - a_k) ** 2) for a_k in a],
            "bias_sq": [np.mean((t - a[0]) * (t - a[1]))] * 2,
            "variance": [np.mean(a_k**2) - np.mean(a[0] * a[1]) for a_k in a],
        }
        tol = 1e-12 * np.mean(t * t)
        for symmetric in (False, True):
            got = _paired_metrics(d, symmetric)
            for name, (one_sided, other) in want.items():
                value = 0.5 * (one_sided + other) if symmetric else one_sided
                assert abs(got[name] - value) <= tol, (name, symmetric)

    @pytest.mark.parametrize("n_p, lam, route", _ROUTES)
    def test_beta_hats_are_the_fits_P_f_transpose_beta(self, n_p, lam, route):
        # the draw's two-column solve gives fit's w_hat up to round-off
        d = draw_paired_replica(ExperimentConfig(m=32, n_f=8, n_p=n_p, lam=lam), 0, 0)
        for model, train, beta_hat in zip(d.models, d.trains, d.beta_hats):
            assert model.factors.route == route
            expected = feature_operator_from_model(model, train.X).T @ d.beta
            assert np.linalg.norm(beta_hat - expected) <= 1e-12 * np.linalg.norm(expected)
            ref = fit(apply_features(model.feature_map, train.X), train.y, lam=lam, feature_map=model.feature_map)
            assert np.linalg.norm(model.w_hat - ref.w_hat) <= 1e-12 * np.linalg.norm(ref.w_hat)
            assert model.train_error == pytest.approx(ref.train_error, rel=1e-6, abs=1e-14)


class TestBiasVarianceMC:
    """The Monte-Carlo estimator, run_bias_variance, at one grid point."""

    def test_identity_noiseless_is_exact(self):
        # square identity features on noiseless linear labels: the fit is the
        # teacher itself, so every error component collapses to round-off
        cfg = ExperimentConfig(
            m=24, n_f=8, n_p=8, activation="identity", sigma_eps=0.0, lam=0.0
        )
        est = _estimate(cfg, 10).means
        tol = 1e-12 * cfg.sigma_y_sq
        assert est["geom_error"] <= tol
        assert abs(est["bias_sq"]) <= tol
        assert abs(est["variance"]) <= tol
        assert est["test_error"] <= tol
        assert est["train_error"] <= tol

    def test_decomposition_consistency(self):
        cfg = ExperimentConfig(m=32, n_f=8, n_p=48, activation="relu")
        row = _estimate(cfg, 80)
        est, se = row.means, row.standard_errors
        gap = est["bias_sq"] + est["variance"] - est["geom_error"]
        assert abs(gap) <= 4.0 * np.hypot(np.hypot(se["bias_sq"], se["variance"]), se["geom_error"])

    def test_metadata_and_se_fields(self):
        cfg = ExperimentConfig(m=16, n_f=4, n_p=24)
        row = _estimate(cfg, 5)
        assert row.n_effective == 5
        assert (row.n_p, row.n_f) == (cfg.n_p, cfg.n_f)
        assert tuple(row.means) == tuple(row.standard_errors) == georeg.decomposition._PAIRED_METRICS
        for key in georeg.decomposition._PAIRED_METRICS:
            assert row.standard_errors[key] >= 0.0

    def test_deterministic(self):
        cfg = ExperimentConfig(m=16, n_f=4, n_p=24)
        a = _estimate(cfg, 4)
        b = _estimate(cfg, 4)
        assert a.means["geom_error"] == b.means["geom_error"]
        assert a.means["variance"] == b.means["variance"]

    def test_rejects_single_replica(self):
        cfg = ExperimentConfig(m=16, n_f=4, n_p=24)
        with pytest.raises(ConfigurationError):
            _estimate(cfg, 1)
        with pytest.raises(ConfigurationError):
            _estimate(cfg, 2.5)

    def test_degenerate_replicas_are_dropped_up_to_ten_percent(self, monkeypatch):
        cfg = ExperimentConfig(m=16, n_f=4, n_p=24)
        full = _estimate(cfg, 10)
        draw = georeg.decomposition.draw_paired_replica
        bad = {3}

        def degenerate_at(config, grid_idx, replica_idx):
            if replica_idx in bad:
                raise NumericError("degenerate on purpose")
            return draw(config, grid_idx, replica_idx)

        monkeypatch.setattr(georeg.decomposition, "draw_paired_replica", degenerate_at)
        est = _estimate(cfg, 10)
        assert est.n_effective == 9
        assert est.means["geom_error"] != full.means["geom_error"]
        bad.add(7)
        result = run_bias_variance(_spec(cfg, 10))
        point = (cfg.n_p / cfg.m, cfg.n_f / cfg.m)
        assert result.rows == ()
        assert result.point_errors == {point: "2/10 replicas degenerate"}
        assert result.drop_reasons == {point: {"NumericError: degenerate on purpose": 2}}

    def test_dropped_replica_returns_its_reason(self, monkeypatch):
        # a non-finite metric is named in the reason, so equal failures count together
        cfg = ExperimentConfig(m=16, n_f=4, n_p=24)
        paired = georeg.decomposition._paired_metrics
        monkeypatch.setattr(georeg.decomposition, "_paired_metrics",
                            lambda draw, symmetric: {**paired(draw, symmetric), "variance": np.nan})
        kernel = georeg.decomposition._one_sided_metrics
        reasons = [experiments._replica(kernel, cfg, 0, r) for r in range(2)]
        assert reasons == ["NumericError: non-finite replica metrics: variance"] * 2
        result = run_bias_variance(_spec(cfg, 2))
        assert result.drop_reasons == {(cfg.n_p / cfg.m, cfg.n_f / cfg.m): {reasons[0]: 2}}

    def test_builds_no_feature_operator(self, monkeypatch):
        # the one-sided metrics read P_f only through P_f^T beta
        def forbidden(*args):
            raise AssertionError("P_f built")

        monkeypatch.setattr(experiments, "feature_operator_from_model", forbidden)
        for n_p in (24, 48):  # a tall and a wide Gram-route fit
            assert _estimate(ExperimentConfig(m=32, n_f=8, n_p=n_p), 3).n_effective == 3

    def test_variance_peaks_at_interpolation(self):
        # classic double-descent variance spike at n_p = m
        base = ExperimentConfig(m=64, n_f=16, activation="relu", n_p=64)
        var = {}
        for ratio in (0.5, 1.0, 2.0):
            cfg = replace(base, n_p=int(round(ratio * base.m)))
            var[ratio] = _estimate(cfg, 60).means["variance"]
        assert var[1.0] > var[0.5]
        assert var[1.0] > var[2.0]


@pytest.mark.parametrize("m,n_f,n_p", [(64, 16, 48), (128, 32, 96)])
class TestLinearFamilyOracle:
    def _config(self, m, n_f, n_p):
        return ExperimentConfig(m=m, n_f=n_f, n_p=n_p, activation="linear", lam=0.0)

    def test_feature_operator_is_identity(self, m, n_f, n_p):
        cfg = self._config(m, n_f, n_p)
        for r in range(20):
            d = draw_paired_replica(cfg, 0, r)
            for model, train in zip(d.models, d.trains):
                p_f = feature_operator_from_model(model, train.X)
                assert np.linalg.norm(p_f - np.eye(n_f)) <= 1e-12

    def test_risk_is_ordinary_least_squares(self, m, n_f, n_p):
        cfg = self._config(m, n_f, n_p)
        row = _estimate(cfg, 300)
        est = row.means
        assert abs(est["geom_error"]) <= 1e-12
        assert abs(est["bias_sq"]) <= 1e-12
        assert abs(est["variance"]) <= 1e-12
        risk = cfg.sigma_eps**2 * (1.0 + n_f / (m - n_f - 1))
        z = (est["test_error"] - risk) / row.standard_errors["test_error"]
        assert abs(z) <= 4.0, z


@pytest.mark.parametrize("m,n_f,n_p", [(64, 128, 16), (64, 32, 8)])
def test_linear_family_oracle_below_n_f(m, n_f, n_p):
    """Linear features with N_p < N_f at lam = 0.

    For isotropic Gaussian x the part of beta outside span(W) acts as
    independent label noise of variance b = 1 - N_p/N_f, and the fit is least
    squares on the N_p features.  With k = N_p / (M - N_p - 1):
    bias^2 = b, variance = b k, E_geom = b (1 + k) and the test error is
    (sigma_eps^2 + b)(1 + k).
    """
    cfg = ExperimentConfig(m=m, n_f=n_f, n_p=n_p, activation="linear", lam=0.0)
    est = _estimate(cfg, 300)
    b, k = 1.0 - n_p / n_f, n_p / (m - n_p - 1)
    expected = {
        "bias_sq": b,
        "variance": b * k,
        "geom_error": b * (1.0 + k),
        "test_error": (cfg.sigma_eps**2 + b) * (1.0 + k),
    }
    for field, value in expected.items():
        z = (est.means[field] - value) / est.standard_errors[field]
        assert abs(z) <= 4.0, (field, z)


class TestIdentityFamilyOracle:
    """Z = X at lam = 0: minimum-norm least squares on the inputs themselves.

    With x ~ N(0, I/n_f) and beta ~ N(0, I), an under-parameterized fit
    (n_f < M) has P_f = I, so the geometric error, bias^2 and variance
    vanish and the risk is sigma_eps^2 (1 + n_f / (M - n_f - 1)).  An
    over-parameterized one (n_f > M) has P_f = the projector onto the M
    training rows, so E_geom = 1 - M/n_f and the risk is
    E_geom + sigma_eps^2 (1 + M / (n_f - M - 1)) (Belkin, Hsu & Xu 2019,
    arXiv:1903.07571; Hastie et al. 2019, arXiv:1903.08560).  The two
    projectors of a pair are independent with mean (M/n_f) I, so
    bias^2 = (1 - M/n_f)^2 and the variance is (M/n_f)(1 - M/n_f).
    """

    N_REPLICAS = 300

    def _estimate(self, m, n_f):
        cfg = ExperimentConfig(m=m, n_f=n_f, n_p=n_f, activation="identity", lam=0.0)
        return cfg, _estimate(cfg, self.N_REPLICAS)

    @staticmethod
    def _z(est, field, expected):
        return (est.means[field] - expected) / est.standard_errors[field]

    def test_under_parameterized(self):
        cfg, est = self._estimate(64, 16)
        assert abs(est.means["geom_error"]) <= 1e-12
        assert abs(est.means["bias_sq"]) <= 1e-12
        assert abs(est.means["variance"]) <= 1e-12
        risk = cfg.sigma_eps**2 * (1.0 + cfg.n_f / (cfg.m - cfg.n_f - 1))
        assert abs(self._z(est, "test_error", risk)) <= 4.0

    def test_over_parameterized(self):
        cfg, est = self._estimate(32, 64)
        kept = cfg.m / cfg.n_f
        geom = 1.0 - kept
        expected = {
            "geom_error": geom,
            "bias_sq": geom**2,
            "variance": kept * geom,
            "test_error": geom + cfg.sigma_eps**2 * (1.0 + cfg.m / (cfg.n_f - cfg.m - 1)),
        }
        for field, value in expected.items():
            assert abs(self._z(est, field, value)) <= 4.0, field


def test_c01_train_error_is_the_ridge_estimators_own():
    """A certificate for the standing c01 failure at N_p/M = 1.

    Each D1 fit of c01's grid point (the acceptance spec's grid index 3,
    lam = 1e-8) is refitted by a solver that shares no code with factorize:
    np.linalg.lstsq on the augmented system [Z; sqrt(lam) I] w ~ [y; 0].
    The train errors agree per replica to 1.8e-10 relative at most
    (measured, OpenBLAS at one and at two threads), so the bound is 2e-9.
    Their mean, 2.0e-5 sigma_y^2, is itself above c01's bound of 1e-6: the
    failure is the value of the ridge estimator at this lam, not round-off
    of a route.
    """
    cfg = ExperimentConfig(m=256, n_f=64, n_p=256, activation="relu", lam=1e-8, sigma_eps=sigma_eps_for_snr(10.0))
    aug = np.sqrt(cfg.lam) * np.eye(cfg.n_p)
    certified = []
    for r in range(100):
        draw = draw_paired_replica(cfg, 3, r)
        model, train = draw.models[0], draw.trains[0]
        Z, y = apply_features(model.feature_map, train.X), train.y
        w = np.linalg.lstsq(np.vstack([Z, aug]), np.concatenate([y, np.zeros(cfg.n_p)]), rcond=None)[0]
        resid = y - Z @ w
        certified.append(np.mean(resid * resid))
        assert abs(model.train_error - certified[-1]) <= 2e-9 * certified[-1], r
    assert np.mean(certified) / cfg.sigma_y_sq > 1e-6
