"""Paired draws and the Monte-Carlo bias-variance estimator.

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
import numpy as np
import pytest

import georeg.decomposition
from georeg import (
    ConfigurationError,
    Dataset,
    ExperimentConfig,
    NumericError,
    TeacherModel,
    bias_variance_mc,
    draw_paired_replica,
    feature_operator_from_model,
    fit,
    paired_projections,
)
from georeg.decomposition import PairedDraw, _paired_metrics
from georeg.linreg_core import FeatureMap


def _geometric_error(X_train, beta, X_test):
    """geom_error of the sweep's reduction for identity features fitted on
    noiseless labels of X_train, so that P_f = (X_train^+ X_train)^T."""
    beta = np.asarray(beta, dtype=float)
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    X_test = np.atleast_2d(np.asarray(X_test, dtype=float))
    fmap = FeatureMap(kind="identity", W=np.eye(beta.shape[0]))
    train = Dataset(X=X_train, y=X_train @ beta, eps=np.zeros(X_train.shape[0]))
    test = Dataset(X=X_test, y=X_test @ beta, eps=np.zeros(X_test.shape[0]))
    model = fit(X_train, train.y, lam=0.0, feature_map=fmap)
    beta_hat = feature_operator_from_model(model, X_train).T @ beta
    draw = PairedDraw(TeacherModel(beta), fmap, train, train, test, model, model, (beta_hat, beta_hat))
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


class TestPairedDraw:
    def test_deterministic(self):
        cfg = ExperimentConfig(m=12, n_f=5, n_p=16)
        a = draw_paired_replica(cfg, 0, 0)
        b = draw_paired_replica(cfg, 0, 0)
        assert np.array_equal(a.train_1.X, b.train_1.X)
        assert np.array_equal(a.model_1.w_hat, b.model_1.w_hat)
        assert np.array_equal(a.teacher.beta, b.teacher.beta)

    def test_streams_differ(self):
        cfg = ExperimentConfig(m=12, n_f=5, n_p=16)
        d = draw_paired_replica(cfg, 0, 0)
        other = draw_paired_replica(cfg, 0, 1)
        assert not np.array_equal(d.train_1.X, d.train_2.X)
        assert not np.array_equal(d.train_1.X, d.test.X)
        assert not np.array_equal(d.teacher.beta, other.teacher.beta)
        assert not np.array_equal(d.feature_map.W, other.feature_map.W)

    def test_shared_teacher_and_weights_within_pair(self):
        cfg = ExperimentConfig(m=12, n_f=5, n_p=16)
        d = draw_paired_replica(cfg, 2, 3)
        assert d.model_1.feature_map is d.feature_map
        assert d.model_2.feature_map is d.feature_map
        assert np.allclose(d.train_1.y - d.train_1.eps, d.train_1.X @ d.teacher.beta, atol=1e-12)

    def test_projections_shapes_and_meaning(self):
        cfg = ExperimentConfig(m=33, n_f=5, n_p=16)
        d = draw_paired_replica(cfg, 0, 0)
        t, a1, a2 = paired_projections(d)
        assert t.shape == a1.shape == a2.shape == (33,)
        assert np.allclose(t, d.test.X @ d.teacher.beta, atol=1e-14)
        # A_k = X_test P_f^T beta on every route, though P_f is never built:
        # (n_p, lam) -> the tall Gram, wide Gram, square SVD and lam = 0 SVD
        routes = {(16, 1e-8): "gram", (64, 1e-8): "gram", (32, 1e-8): "svd", (16, 0.0): "svd"}
        for (n_p, lam), route in routes.items():
            d = draw_paired_replica(ExperimentConfig(m=32, n_f=8, n_p=n_p, lam=lam), 0, 0)
            _, *got = paired_projections(d)
            for model, train, a in zip((d.model_1, d.model_2), (d.train_1, d.train_2), got):
                assert (model.factors._K is not None) == (route == "gram")
                expected = d.test.X @ (feature_operator_from_model(model, train.X).T @ d.teacher.beta)
                assert np.linalg.norm(a - expected) <= 1e-12 * np.linalg.norm(expected), (n_p, lam)

    @pytest.mark.parametrize("n_p, lam, route", [(16, 1e-8, "gram"), (64, 1e-8, "gram"), (32, 1e-8, "svd"), (16, 0.0, "svd")])
    def test_beta_hats_are_the_fits_P_f_transpose_beta(self, n_p, lam, route):
        # the tall Gram, wide Gram, square SVD and lam = 0 SVD routes; the
        # draw's two-column solve gives fit's w_hat up to round-off
        d = draw_paired_replica(ExperimentConfig(m=32, n_f=8, n_p=n_p, lam=lam), 0, 0)
        for model, train, beta_hat in zip((d.model_1, d.model_2), (d.train_1, d.train_2), d.beta_hats):
            assert (model.factors._K is not None) == (route == "gram")
            expected = feature_operator_from_model(model, train.X).T @ d.teacher.beta
            assert np.linalg.norm(beta_hat - expected) <= 1e-12 * np.linalg.norm(expected)
            ref = fit(georeg.apply_features(d.feature_map, train.X), train.y, lam=lam, feature_map=d.feature_map)
            assert np.linalg.norm(model.w_hat - ref.w_hat) <= 1e-12 * np.linalg.norm(ref.w_hat)
            assert model.train_error == pytest.approx(ref.train_error, rel=1e-6, abs=1e-14)


class TestBiasVarianceMC:
    def test_identity_noiseless_is_exact(self):
        # square identity features on noiseless linear labels: the fit is the
        # teacher itself, so every error component collapses to round-off
        cfg = ExperimentConfig(
            m=24, n_f=8, n_p=8, activation="identity", sigma_eps=0.0, lam=0.0
        )
        est = bias_variance_mc(cfg, n_replicas=10)
        tol = 1e-12 * cfg.sigma_y_sq
        assert est.geometric_error <= tol
        assert abs(est.bias_squared) <= tol
        assert abs(est.variance) <= tol
        assert est.total_test_error <= tol
        assert est.train_error <= tol

    def test_decomposition_consistency(self):
        cfg = ExperimentConfig(m=32, n_f=8, n_p=48, activation="relu")
        est = bias_variance_mc(cfg, n_replicas=80)
        gap = est.bias_squared + est.variance - est.geometric_error
        se = np.hypot(
            np.hypot(est.standard_errors["bias_squared"], est.standard_errors["variance"]),
            est.standard_errors["geometric_error"],
        )
        assert abs(gap) <= 4.0 * se

    def test_metadata_and_se_fields(self):
        cfg = ExperimentConfig(m=16, n_f=4, n_p=24)
        est = bias_variance_mc(cfg, n_replicas=5)
        assert est.n_replicas == 5
        assert est.n_test_points == cfg.m
        for key in (
            "geometric_error",
            "bias_squared",
            "variance",
            "total_test_error",
            "train_error",
        ):
            assert est.standard_errors[key] >= 0.0

    def test_deterministic(self):
        cfg = ExperimentConfig(m=16, n_f=4, n_p=24)
        a = bias_variance_mc(cfg, n_replicas=4)
        b = bias_variance_mc(cfg, n_replicas=4)
        assert a.geometric_error == b.geometric_error
        assert a.variance == b.variance

    def test_rejects_single_replica(self):
        cfg = ExperimentConfig(m=16, n_f=4, n_p=24)
        with pytest.raises(ConfigurationError):
            bias_variance_mc(cfg, n_replicas=1)
        with pytest.raises(ConfigurationError):
            bias_variance_mc(cfg, n_replicas=2.5)

    def test_degenerate_replicas_are_dropped_up_to_ten_percent(self, monkeypatch):
        cfg = ExperimentConfig(m=16, n_f=4, n_p=24)
        full = bias_variance_mc(cfg, n_replicas=10)
        draw = georeg.decomposition.draw_paired_replica
        bad = {3}

        def degenerate_at(config, grid_idx, replica_idx):
            if replica_idx in bad:
                raise NumericError("degenerate on purpose")
            return draw(config, grid_idx, replica_idx)

        monkeypatch.setattr(georeg.decomposition, "draw_paired_replica", degenerate_at)
        est = bias_variance_mc(cfg, n_replicas=10)
        assert est.n_replicas == 9
        assert est.geometric_error != full.geometric_error
        bad.add(7)
        with pytest.raises(NumericError, match="2/10 replicas degenerate"):
            bias_variance_mc(cfg, n_replicas=10)

    def test_dropped_replica_returns_its_reason(self, monkeypatch):
        # a non-finite metric is named in the reason, so equal failures count together
        cfg = ExperimentConfig(m=16, n_f=4, n_p=24)
        paired = georeg.decomposition._paired_metrics
        monkeypatch.setattr(georeg.decomposition, "_paired_metrics",
                            lambda draw, symmetric: {**paired(draw, symmetric), "variance": np.nan})
        reasons = [georeg.decomposition._one_sided_metrics(cfg, 0, r) for r in range(2)]
        assert reasons == ["NumericError: non-finite replica metrics: variance"] * 2
        kept, counts = georeg.decomposition._kept_replicas([{"x": 1.0}] * 18 + reasons)
        assert kept == [{"x": 1.0}] * 18
        assert counts == {"NumericError: non-finite replica metrics: variance": 2}

    def test_builds_no_feature_operator(self, monkeypatch):
        # the one-sided metrics read P_f only through P_f^T beta
        def forbidden(*args):
            raise AssertionError("P_f built")

        monkeypatch.setattr(georeg.decomposition, "feature_operator_from_model", forbidden)
        for n_p in (24, 48):  # a tall and a wide Gram-route fit
            est = bias_variance_mc(ExperimentConfig(m=32, n_f=8, n_p=n_p), n_replicas=3)
            assert est.n_replicas == 3

    def test_variance_peaks_at_interpolation(self):
        # classic double-descent variance spike at n_p = m
        base = ExperimentConfig(m=64, n_f=16, activation="relu", n_p=64)
        var = {}
        for ratio in (0.5, 1.0, 2.0):
            cfg = base.with_updates(n_p=int(round(ratio * base.m)))
            var[ratio] = bias_variance_mc(cfg, n_replicas=60).variance
        assert var[1.0] > var[0.5]
        assert var[1.0] > var[2.0]


@pytest.mark.parametrize("m,n_f,n_p", [(64, 16, 48), (128, 32, 96)])
class TestLinearFamilyOracle:
    def _config(self, m, n_f, n_p):
        return ExperimentConfig(m=m, n_f=n_f, n_p=n_p, activation="linear", lam=0.0)

    def test_feature_operator_is_identity(self, m, n_f, n_p):
        cfg = self._config(m, n_f, n_p)
        for r in range(20):
            for p_f in draw_paired_replica(cfg, 0, r).p_fs:
                assert np.linalg.norm(p_f - np.eye(n_f)) <= 1e-12

    def test_risk_is_ordinary_least_squares(self, m, n_f, n_p):
        cfg = self._config(m, n_f, n_p)
        est = bias_variance_mc(cfg, n_replicas=300)
        assert abs(est.geometric_error) <= 1e-12
        assert abs(est.bias_squared) <= 1e-12
        assert abs(est.variance) <= 1e-12
        risk = cfg.sigma_eps**2 * (1.0 + n_f / (m - n_f - 1))
        z = (est.total_test_error - risk) / est.standard_errors["total_test_error"]
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
    est = bias_variance_mc(cfg, n_replicas=300)
    b, k = 1.0 - n_p / n_f, n_p / (m - n_p - 1)
    expected = {
        "bias_squared": b,
        "variance": b * k,
        "geometric_error": b * (1.0 + k),
        "total_test_error": (cfg.sigma_eps**2 + b) * (1.0 + k),
    }
    for field, value in expected.items():
        z = (getattr(est, field) - value) / est.standard_errors[field]
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
        return cfg, bias_variance_mc(cfg, n_replicas=self.N_REPLICAS)

    @staticmethod
    def _z(est, field, expected):
        return (getattr(est, field) - expected) / est.standard_errors[field]

    def test_under_parameterized(self):
        cfg, est = self._estimate(64, 16)
        assert abs(est.geometric_error) <= 1e-12
        assert abs(est.bias_squared) <= 1e-12
        assert abs(est.variance) <= 1e-12
        risk = cfg.sigma_eps**2 * (1.0 + cfg.n_f / (cfg.m - cfg.n_f - 1))
        assert abs(self._z(est, "total_test_error", risk)) <= 4.0

    def test_over_parameterized(self):
        cfg, est = self._estimate(32, 64)
        kept = cfg.m / cfg.n_f
        geom = 1.0 - kept
        expected = {
            "geometric_error": geom,
            "bias_squared": geom**2,
            "variance": kept * geom,
            "total_test_error": geom + cfg.sigma_eps**2 * (1.0 + cfg.m / (cfg.n_f - cfg.m - 1)),
        }
        for field, value in expected.items():
            assert abs(self._z(est, field, value)) <= 4.0, field
