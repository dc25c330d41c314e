"""Configuration, sampling, feature maps, and the fitting layer."""
import numpy as np
import pytest

from georeg import (
    ConfigurationError,
    Dataset,
    ExperimentConfig,
    NumericError,
    ShapeError,
    STREAM_TRAIN,
    SweepSpec,
    apply_features,
    fit,
    make_feature_map,
    pseudoinverse,
    ratio_to_count,
    run_sweep,
    sample_dataset,
    sample_teacher,
    sigma_eps_for_snr,
    stream_rng,
)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert (cfg.m, cfg.n_f, cfg.n_p) == (256, 64, 256)
        assert cfg.activation == "relu"
        assert cfg.sigma_y_sq == pytest.approx(1.1)

    def test_identity_requires_matching_dims(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(n_f=8, n_p=16, activation="identity")
        ExperimentConfig(n_f=8, n_p=8, activation="identity")  # fine

    @pytest.mark.parametrize(
        "kw",
        [
            dict(m=0),
            dict(n_f=-1),
            dict(n_p=0),
            dict(m=2.5),
            dict(n_f=3.0),
            dict(activation="tanh"),
            dict(sigma_eps=-0.1),
            dict(lam=-1e-8),
            dict(seed=-1),
            dict(seed=2**64),
            dict(seed=2.5),
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**kw)

    def test_snr_helper(self):
        assert sigma_eps_for_snr(10.0) == pytest.approx(0.1**0.5)
        with pytest.raises(ConfigurationError):
            sigma_eps_for_snr(0.0)

    def test_ratio_to_count(self):
        assert ratio_to_count(0.25, 256) == 64
        assert ratio_to_count(1.0, 256) == 256
        assert ratio_to_count(0.001, 256) == 1  # floors to 0 -> clamped to 1
        assert ratio_to_count(0.3, 640) == 192  # exact decimal intent survives
        assert ratio_to_count(0.7, 10) == 7
        with pytest.raises(ConfigurationError):
            ratio_to_count(0.0, 256)



NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda: ExperimentConfig(lam=NAN),
        lambda: ExperimentConfig(sigma_eps=NAN),
        lambda: ExperimentConfig(lam=INF),
        lambda: ExperimentConfig(sigma_eps=INF),
        lambda: fit(np.eye(4), np.ones(4), lam=NAN),
        lambda: fit(np.eye(4), np.ones(4), lam=INF),
        lambda: sigma_eps_for_snr(NAN),
        lambda: ratio_to_count(NAN, 256),
        lambda: ratio_to_count(INF, 256),
        lambda: ExperimentConfig(seed=NAN),
        lambda: SweepSpec(ExperimentConfig(), np_over_m_grid=(NAN,)),
        lambda: SweepSpec(ExperimentConfig(), np_over_m_grid=(INF,)),
    ],
    ids=[
        "config-lam", "config-sigma_eps", "config-lam-inf", "config-sigma_eps-inf", "fit-lam", "fit-lam-inf",
        "snr", "ratio-nan", "ratio-inf",
        "config-seed", "sweep-ratio-nan", "sweep-ratio-inf",
    ],
)
def test_nan_and_inf_rejected(call):
    # NaN fails every comparison, so a range check written as "v < 0" lets it through
    with pytest.raises(ConfigurationError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: ExperimentConfig(m=True),
        lambda: ExperimentConfig(n_f=True),
        lambda: ExperimentConfig(n_p=True),
        lambda: ExperimentConfig(seed=True),
        lambda: SweepSpec(ExperimentConfig(m=8, n_f=2, n_p=8), np_over_m_grid=(0.5,), n_replicas=True),
        lambda: run_sweep(SweepSpec(ExperimentConfig(m=8, n_f=2, n_p=8), np_over_m_grid=(0.5,), n_replicas=1), workers=True),
    ],
    ids=["config-m", "config-n_f", "config-n_p", "config-seed", "sweep-n_replicas", "sweep-workers"],
)
def test_bool_counts_rejected(call):
    # bool is a subclass of int, so an isinstance(v, int) check alone passes True as 1
    with pytest.raises(ConfigurationError):
        call()


class TestStreams:
    def test_same_tag_reproduces(self):
        a = stream_rng(7, (0, 3, STREAM_TRAIN)).normal(size=10)
        b = stream_rng(7, (0, 3, STREAM_TRAIN)).normal(size=10)
        assert np.array_equal(a, b)

    def test_distinct_tags_differ(self):
        a = stream_rng(7, (0, 3, 0)).normal(size=10)
        b = stream_rng(7, (0, 3, 1)).normal(size=10)
        c = stream_rng(7, (0, 4, 0)).normal(size=10)
        d = stream_rng(8, (0, 3, 0)).normal(size=10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestSampling:
    def test_teacher_shape_and_determinism(self):
        cfg = ExperimentConfig(n_f=32)
        b1 = sample_teacher(cfg)
        b2 = sample_teacher(cfg)
        assert b1.shape == (32,)
        assert np.array_equal(b1, b2)

    def test_dataset_determinism_and_invariant(self):
        cfg = ExperimentConfig(m=40, n_f=8)
        beta = sample_teacher(cfg)
        d1 = sample_dataset(cfg, beta, (0, 0, STREAM_TRAIN))
        d2 = sample_dataset(cfg, beta, (0, 0, STREAM_TRAIN))
        assert np.array_equal(d1.X, d2.X) and np.array_equal(d1.y, d2.y)
        # y = X beta + eps holds exactly, with X and then eps drawn from the tag's stream
        rng = stream_rng(cfg.seed, (0, 0, STREAM_TRAIN))
        X = rng.normal(0.0, cfg.sigma_x / np.sqrt(cfg.n_f), (cfg.m, cfg.n_f))
        eps = rng.normal(0.0, cfg.sigma_eps, cfg.m)
        assert np.array_equal(d1.X, X) and np.array_equal(d1.y, X @ beta + eps)

    def test_dataset_scales(self):
        cfg = ExperimentConfig(m=4000, n_f=16, sigma_eps=0.5)
        beta = sample_teacher(cfg)
        d = sample_dataset(cfg, beta, (0, 1, STREAM_TRAIN))
        assert d.X.std() == pytest.approx(1.0 / 4.0, rel=0.05)
        assert (d.y - d.X @ beta).std() == pytest.approx(0.5, rel=0.05)

    def test_dataset_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Dataset(X=np.zeros((4, 3)), y=np.zeros(5))


class TestFeatureMaps:
    def test_identity(self):
        cfg = ExperimentConfig(n_f=6, n_p=6, activation="identity")
        fmap = make_feature_map(cfg)
        X = np.arange(12.0).reshape(2, 6)
        assert np.array_equal(apply_features(fmap, X), X)

    def test_linear_is_xw(self):
        cfg = ExperimentConfig(m=8, n_f=4, n_p=10, activation="linear")
        fmap = make_feature_map(cfg)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(8, 4))
        assert np.allclose(apply_features(fmap, X), X @ fmap.W, rtol=0, atol=0)

    def test_linear_identity_design(self):
        # X = I picks out the rows of W
        cfg = ExperimentConfig(m=4, n_f=4, n_p=7, activation="linear")
        fmap = make_feature_map(cfg)
        assert np.array_equal(apply_features(fmap, np.eye(4)), fmap.W)

    def test_relu_prefactor_and_cancellation(self):
        from georeg import FeatureMap

        fmap = FeatureMap(kind="relu", W=np.array([[1.0], [-1.0]]))
        # w^T x = 0 stays 0 through the activation
        assert apply_features(fmap, np.array([1.0, 1.0]))[0] == 0.0
        assert apply_features(fmap, np.array([3.0, 1.0]))[0] == pytest.approx(4.0)  # 2*max(0,2)

    def test_relu_is_computed_in_place_with_the_same_bits(self):
        from georeg import FeatureMap

        rng = np.random.default_rng(11)
        fmap = FeatureMap(kind="relu", W=rng.normal(size=(64, 48)))
        X, x = rng.normal(size=(40, 64)), rng.normal(size=64)
        X[0, :] = 0.0  # a row of zeros in the product
        saved = (X.copy(), x.copy(), fmap.W.copy())
        for inp in (X, x):
            got = apply_features(fmap, inp)
            assert got.tobytes() == (2.0 * np.maximum(0.0, inp @ fmap.W)).tobytes()
            assert not np.any(np.signbit(got))  # max(0.0, -0.0) is +0.0
        for before, after in zip(saved, (X, x, fmap.W)):
            assert after.tobytes() == before.tobytes()

    def test_relu_weight_scale(self):
        cfg = ExperimentConfig(n_f=2000, n_p=1000)
        fmap = make_feature_map(cfg)
        assert fmap.W.std() == pytest.approx(1.0 / np.sqrt(1000), rel=0.05)
        X = np.random.default_rng(5).normal(size=(3, 2000))
        assert np.array_equal(apply_features(fmap, X), 2.0 * np.maximum(0.0, X @ fmap.W))

    def test_unknown_activation_rejected(self):
        # the family is checked where it is named, before any draw
        from georeg import FeatureMap

        for name in ("tanh", "Relu", "nonlinear"):
            with pytest.raises(ConfigurationError):
                ExperimentConfig(activation=name)
            with pytest.raises(ConfigurationError):
                FeatureMap(kind=name, W=np.eye(2))

    def test_wrong_input_width(self):
        cfg = ExperimentConfig(n_f=4, n_p=6)
        fmap = make_feature_map(cfg)
        with pytest.raises(ShapeError):
            apply_features(fmap, np.zeros((3, 5)))


class TestPseudoinverse:
    def test_hand_oracle_column(self):
        A = np.array([[1.0], [1.0]])
        assert np.allclose(pseudoinverse(A), [[0.5, 0.5]], atol=1e-15)

    def test_penrose_conditions(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m, n = rng.integers(1, 30, size=2)
            A = rng.normal(size=(m, n))
            if rng.random() < 0.3:  # make it rank deficient sometimes
                r = max(1, min(m, n) // 2)
                A = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
            P = pseudoinverse(A)
            s = np.linalg.norm(A)
            assert np.linalg.norm(A @ P @ A - A) <= 1e-10 * s
            assert np.linalg.norm(P @ A @ P - P) <= 1e-10 * np.linalg.norm(P)
            assert np.linalg.norm((A @ P).T - A @ P) <= 1e-10
            assert np.linalg.norm((P @ A).T - P @ A) <= 1e-10

    def test_truncates_small_singular_values(self):
        U = np.eye(3)
        A = U @ np.diag([1.0, 1e-14, 0.0]) @ U
        P = pseudoinverse(A)
        # the 1e-14 mode sits below the default cutoff and must not explode
        assert np.abs(P).max() <= 1.0 + 1e-12

    def test_zero_matrix(self):
        assert np.array_equal(pseudoinverse(np.zeros((3, 2))), np.zeros((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            pseudoinverse(np.array([[np.nan, 1.0]]))


class TestFit:
    def test_interpolates_overparameterized(self):
        rng = np.random.default_rng(5)
        Z = rng.normal(size=(10, 25))
        y = rng.normal(size=10)
        model = fit(Z, y)
        assert np.linalg.norm(Z @ model.w_hat - y) <= 1e-10
        assert model.factors.rank == 10
        assert model.factors.sigma_min > 0

    def test_minimum_norm_solution(self):
        rng = np.random.default_rng(6)
        Z = rng.normal(size=(8, 20))
        y = rng.normal(size=8)
        model = fit(Z, y)
        # adding any kernel component can only grow the norm
        _, _, vt = np.linalg.svd(Z)
        kernel = vt[8:]
        for k in range(10):
            w_alt = model.w_hat + kernel.T @ np.random.default_rng(k).normal(size=12)
            assert np.linalg.norm(w_alt) >= np.linalg.norm(model.w_hat)

    def test_ridge_matches_normal_equations(self):
        rng = np.random.default_rng(7)
        Z = rng.normal(size=(30, 12))
        y = rng.normal(size=30)
        lam = 0.37
        model = fit(Z, y, lam=lam)
        w_direct = np.linalg.solve(Z.T @ Z + lam * np.eye(12), Z.T @ y)
        assert np.allclose(model.w_hat, w_direct, atol=1e-10)

    def test_lam_zero_matches_lstsq(self):
        rng = np.random.default_rng(8)
        Z = rng.normal(size=(25, 10))
        y = rng.normal(size=25)
        model = fit(Z, y)
        w_ref, *_ = np.linalg.lstsq(Z, y, rcond=None)
        assert np.allclose(model.w_hat, w_ref, atol=1e-10)

    def test_effective_inverse_consistency(self):
        rng = np.random.default_rng(9)
        Z = rng.normal(size=(12, 20))
        y = rng.normal(size=12)
        for lam in (0.0, 1e-8, 0.5):
            model = fit(Z, y, lam=lam)
            assert np.allclose(model.effective_inverse() @ y, model.w_hat, atol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ShapeError):
            fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ShapeError):
            fit(np.zeros(3), np.zeros(3))
        for lam in (0.0, 1e-8):  # no rows: the train error would be the mean of nothing
            with pytest.raises(ShapeError):
                fit(np.zeros((0, 3)), np.zeros(0), lam=lam)
        with pytest.raises(ConfigurationError):
            fit(np.zeros((3, 2)), np.zeros(3), lam=-1.0)
        with pytest.raises(NumericError):
            fit(np.full((3, 2), np.inf), np.zeros(3))

    def test_rank_and_sigma_reporting(self):
        Z = np.diag([4.0, 2.0, 0.0])
        model = fit(Z, np.ones(3))
        assert model.factors.rank == 2
        assert model.factors.sigma_min == pytest.approx(2.0)

    def test_zero_columns_fit_nothing(self):
        y = np.array([1.0, -2.0, 3.0])
        for lam in (0.0, 1e-8):
            model = fit(np.zeros((3, 0)), y, lam=lam)
            assert model.w_hat.shape == (0,) and model.factors.rank == 0
            assert model.train_error == np.mean(y * y)


class TestPredictAndError:
    def test_training_error_is_projector_residual(self):
        rng = np.random.default_rng(12)
        cfg = ExperimentConfig(m=20, n_f=6, n_p=30, lam=0.0)
        data = sample_dataset(cfg, sample_teacher(cfg), (0, 0, STREAM_TRAIN))
        fmap = make_feature_map(cfg)
        Z = apply_features(fmap, data.X)
        model = fit(Z, data.y, feature_map=fmap)
        resid = data.y - Z @ pseudoinverse(Z) @ data.y
        assert model.train_error == pytest.approx(np.mean(resid**2), abs=1e-12)

    def test_training_error_zero_at_interpolation(self):
        cfg = ExperimentConfig(m=16, n_f=8, n_p=64, lam=0.0)
        data = sample_dataset(cfg, sample_teacher(cfg), (0, 0, STREAM_TRAIN))
        fmap = make_feature_map(cfg)
        model = fit(apply_features(fmap, data.X), data.y, feature_map=fmap)
        assert model.train_error <= 1e-12 * cfg.sigma_y_sq


def test_public_api_names_resolve():
    import types

    import georeg

    assert "fit" in georeg.__all__ and "run_sweep" in georeg.__all__
    for name in georeg.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(georeg, name), types.ModuleType), name
