"""Geometric test error, the error-reduction identity, and paired-draw MC.

Hand oracle: P_f = diag(1, 0), beta = (1, 1), x = (3, 2).  The lost component
is (I - P_f) x = (0, 2), so the geometric error is (0*1 + 2*1)^2 = 4.
"""
import numpy as np
import pytest

from georeg import (
    ConfigurationError,
    ExperimentConfig,
    STREAM_TRAIN,
    analyze_operator,
    apply_features,
    bias_variance_mc,
    draw_paired_replica,
    error_reduction_check,
    feature_operator_from_model,
    fit,
    geometric_test_error,
    make_feature_map,
    paired_projections,
    sample_dataset,
    sample_teacher,
)


class TestGeometricTestError:
    def test_hand_oracle(self):
        an = analyze_operator(np.diag([1.0, 0.0]))
        err = geometric_test_error(an, np.array([1.0, 1.0]), np.array([3.0, 2.0]))
        assert err == pytest.approx(4.0, abs=1e-12)

    def test_identity_operator_loses_nothing(self):
        an = analyze_operator(np.eye(4))
        rng = np.random.default_rng(5)
        err = geometric_test_error(an, rng.normal(size=4), rng.normal(size=4))
        assert err <= 1e-20

    def test_kernel_direction_loses_everything(self):
        an = analyze_operator(np.diag([1.0, 0.0]))
        err = geometric_test_error(an, np.array([0.0, 3.0]), np.array([0.0, 1.0]))
        assert err == pytest.approx(9.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            an = analyze_operator(rng.normal(size=(5, 5)))
            err = geometric_test_error(an, rng.normal(size=5), rng.normal(size=5))
            assert err >= 0.0


class TestErrorReductionCheck:
    @pytest.mark.parametrize("activation,n_p", [("identity", 10), ("linear", 35)])
    def test_noiseless_linear_gap_vanishes(self, activation, n_p):
        cfg = ExperimentConfig(
            m=20, n_f=10, n_p=n_p, activation=activation, sigma_eps=0.0, lam=0.0
        )
        teacher = sample_teacher(cfg)
        data = sample_dataset(cfg, teacher, (0, 0, STREAM_TRAIN))
        fmap = make_feature_map(cfg)
        model = fit(apply_features(fmap, data.X), data.y, lam=cfg.lam, feature_map=fmap)
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = rng.normal(0.0, cfg.sigma_x / np.sqrt(cfg.n_f), size=cfg.n_f)
            out = error_reduction_check(model, teacher, data, x)
            assert abs(out["gap"]) <= 1e-10 * cfg.sigma_y_sq
            assert out["total"] == pytest.approx(out["geometric"], abs=1e-10 * cfg.sigma_y_sq)

    def test_relu_gap_reported_not_zero(self):
        # nonlinear features break the identity; the check must still report
        # both components and their (nonzero) gap
        cfg = ExperimentConfig(m=20, n_f=10, n_p=40, activation="relu", sigma_eps=0.0)
        teacher = sample_teacher(cfg)
        data = sample_dataset(cfg, teacher, (0, 0, STREAM_TRAIN))
        fmap = make_feature_map(cfg)
        model = fit(apply_features(fmap, data.X), data.y, lam=cfg.lam, feature_map=fmap)
        x = np.full(10, 0.1)
        out = error_reduction_check(model, teacher, data, x)
        assert set(out) == {"total", "geometric", "gap"}
        assert out["total"] >= 0.0 and out["geometric"] >= 0.0
        assert out["gap"] == pytest.approx(out["total"] - out["geometric"], abs=1e-14)


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
        cfg = ExperimentConfig(m=12, n_f=5, n_p=16, m_test=33)
        d = draw_paired_replica(cfg, 0, 0)
        t, a1, a2 = paired_projections(d)
        assert t.shape == a1.shape == a2.shape == (33,)
        assert np.allclose(t, d.test.X @ d.teacher.beta, atol=1e-14)
        p_f = feature_operator_from_model(d.model_1, d.train_1.X)
        assert np.allclose(a1, d.test.X @ (p_f.T @ d.teacher.beta), atol=1e-12)


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
        assert est.n_test_points == cfg.effective_m_test
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

    def test_variance_peaks_at_interpolation(self):
        # classic double-descent variance spike at n_p = m
        base = ExperimentConfig(m=64, n_f=16, activation="relu", n_p=64)
        var = {}
        for ratio in (0.5, 1.0, 2.0):
            cfg = base.with_updates(n_p=int(round(ratio * base.m)))
            var[ratio] = bias_variance_mc(cfg, n_replicas=60).variance
        assert var[1.0] > var[0.5]
        assert var[1.0] > var[2.0]
