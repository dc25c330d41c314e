"""Projection operators, SVD angles, representations, and the exact split.

Hand oracles used below:
  - Z = [[1],[1]]: Z Z^+ = [[.5,.5],[.5,.5]].
  - X = [[1,0]], W = [[1/sqrt2],[1/sqrt2]] (n_f=2, n_p=1): Z = XW = [1/sqrt2],
    Z^+ = [sqrt2], P_f = (W Z^+ X)^T = [[1,1],[0,0]]^T transposed -> [[1,0],[1,0]]^T;
    worked through: W Z^+ = [[1],[1]], times X gives [[1,0],[1,0]], transpose
    [[1,1],[0,0]].  SVD: sigma = sqrt2, f_X = e1, f_W = (e1+e2)/sqrt2,
    theta = 45 deg, sigma cos theta = 1 so delta_phi = 0.
  - P_f=[[1,1],[0,0]], x=(0,1): x_hat = (1,0), x_hat_W = (.5,.5), delta_x = (-1,1).
"""
import numpy as np
import pytest

from georeg import (
    ConfigurationError,
    ExperimentConfig,
    NumericError,
    ShapeError,
    STREAM_TRAIN,
    analysis_to_json_dict,
    analyze_operator,
    angles_from_vectors,
    apply_features,
    feature_operator,
    feature_operator_from_model,
    fit,
    internal_representation,
    label_projector,
    make_feature_map,
    predict,
    prediction_decomposition,
    sample_dataset,
    sample_teacher,
)
from georeg.linreg_core import FeatureMap


def _fitted(cfg, tag=(0, 0, STREAM_TRAIN)):
    teacher = sample_teacher(cfg)
    data = sample_dataset(cfg, teacher, tag)
    fmap = make_feature_map(cfg)
    model = fit(apply_features(fmap, data.X), data.y, lam=cfg.lam, feature_map=fmap)
    return teacher, data, fmap, model


class TestLabelProjector:
    def test_hand_oracle(self):
        lp = label_projector(np.array([[1.0], [1.0]]))
        assert np.allclose(lp.p_l, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
        assert lp.rank == 1

    def test_square_invertible_gives_identity(self):
        rng = np.random.default_rng(1)
        Z = rng.normal(size=(6, 6)) + 3 * np.eye(6)
        lp = label_projector(Z)
        assert np.allclose(lp.p_l, np.eye(6), atol=1e-10)

    def test_full_row_rank_gives_identity(self):
        rng = np.random.default_rng(2)
        m = 24
        Z = rng.normal(size=(m, 60))
        lp = label_projector(Z)
        assert np.linalg.norm(lp.p_l - np.eye(m)) <= 1e-8 * np.sqrt(m)

    def test_projector_identities(self):
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(10, 3))
        p = label_projector(Z).p_l
        assert np.linalg.norm(p @ p - p) <= 1e-8 * np.linalg.norm(p)
        assert np.linalg.norm(p.T - p) <= 1e-8 * np.linalg.norm(p)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            label_projector(np.array([[np.inf]]))


class TestFeatureOperator:
    def test_identity_map_square_design(self):
        cfg = ExperimentConfig(m=5, n_f=5, n_p=5, activation="identity", lam=0.0)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(5, 5)) + 2 * np.eye(5)
        fmap = make_feature_map(cfg)
        p_f = feature_operator(fmap, X, X, lam=0.0)
        assert np.allclose(p_f, np.eye(5), atol=1e-10)

    def test_identity_map_row_design(self):
        cfg = ExperimentConfig(m=1, n_f=2, n_p=2, activation="identity", lam=0.0)
        fmap = make_feature_map(cfg)
        X = np.array([[1.0, 0.0]])
        p_f = feature_operator(fmap, X, X, lam=0.0)
        assert np.allclose(p_f, np.diag([1.0, 0.0]), atol=1e-15)

    def test_linear_map_hand_oracle(self):
        W = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        fmap = FeatureMap(kind="linear", W=W, activation_name="linear")
        X = np.array([[1.0, 0.0]])
        Z = X @ W
        p_f = feature_operator(fmap, Z, X, lam=0.0)
        assert np.allclose(p_f, [[1.0, 1.0], [0.0, 0.0]], atol=1e-12)

    def test_shape_errors(self):
        cfg = ExperimentConfig(m=4, n_f=3, n_p=5)
        fmap = make_feature_map(cfg)
        with pytest.raises(ShapeError):
            feature_operator(fmap, np.zeros((4, 6)), np.zeros((4, 3)))
        with pytest.raises(ShapeError):
            feature_operator(fmap, np.zeros((4, 5)), np.zeros((3, 3)))

    def test_model_route_matches_direct(self):
        # relu: Z has full rank 20; linear: Z = X W has rank n_f = 6 < 20, so
        # the lam = 0 route depends on the truncation rule.
        for activation, rank in (("relu", 20), ("linear", 6)):
            for lam in (0.0, 1e-8):
                cfg = ExperimentConfig(m=20, n_f=6, n_p=30, lam=lam, activation=activation)
                _, data, fmap, model = _fitted(cfg)
                assert model.rank_z == rank
                direct = feature_operator(fmap, model.Z, data.X, lam=cfg.lam)
                via_model = feature_operator_from_model(model, data.X)
                assert np.array_equal(direct, via_model), (activation, lam)

    def test_non_finite_z_raises(self):
        cfg = ExperimentConfig(m=4, n_f=3, n_p=5)
        fmap = make_feature_map(cfg)
        Z = np.ones((4, 5))
        Z[2, 1] = np.nan
        with pytest.raises(NumericError):
            feature_operator(fmap, Z, np.zeros((4, 3)))


class TestAnalyzeOperator:
    def test_orthogonal_projector(self):
        # identity family, over-parameterized input: P_f = X^+ X
        cfg = ExperimentConfig(m=10, n_f=25, n_p=25, activation="identity", lam=0.0)
        _, data, fmap, model = _fitted(cfg)
        p_f = feature_operator_from_model(model, data.X)
        an = analyze_operator(p_f)
        assert an.rank == 10
        assert np.all(np.abs(an.sigmas - 1.0) <= 1e-10)
        assert np.all(an.thetas_deg <= 1e-6)
        assert np.all(an.delta_phis_deg == 0.0)

    def test_hand_svd_oracle(self):
        an = analyze_operator(np.array([[1.0, 1.0], [0.0, 0.0]]))
        assert an.rank == 1
        assert an.sigma_max == pytest.approx(np.sqrt(2.0))
        assert an.theta_max_deg == pytest.approx(45.0)
        assert an.delta_phi_max_deg == pytest.approx(0.0, abs=1e-12)

    def test_zero_matrix_has_empty_triples(self):
        an = analyze_operator(np.zeros((4, 4)))
        assert an.rank == 0
        assert an.triples == []
        assert an.sigma_max is None and an.theta_max_deg is None

    def test_reconstruction(self):
        cfg = ExperimentConfig(m=30, n_f=12, n_p=60)
        _, data, fmap, model = _fitted(cfg)
        p_f = feature_operator_from_model(model, data.X)
        an = analyze_operator(p_f)
        rebuilt = sum(s * np.outer(u, v) for s, u, v in an.triples)
        assert np.linalg.norm(rebuilt - p_f) <= 1e-8 * np.linalg.norm(p_f)

    def test_orthonormal_vector_sets(self):
        cfg = ExperimentConfig(m=20, n_f=8, n_p=40)
        _, data, fmap, model = _fitted(cfg)
        an = analyze_operator(feature_operator_from_model(model, data.X))
        r = an.rank
        assert np.allclose(an.f_x.T @ an.f_x, np.eye(r), atol=1e-12)
        assert np.allclose(an.f_w.T @ an.f_w, np.eye(r), atol=1e-12)
        assert np.all(np.diff(an.sigmas) <= 1e-15)  # descending

    def test_max_angles_pair_with_leading_sigma(self):
        cfg = ExperimentConfig(m=24, n_f=10, n_p=24)
        _, data, fmap, model = _fitted(cfg)
        an = analyze_operator(feature_operator_from_model(model, data.X))
        assert an.sigma_max == an.sigmas[0]
        assert an.theta_max_deg == an.thetas_deg[0]
        assert an.delta_phi_max_deg == an.delta_phis_deg[0]

    def test_anti_aligned_pair_reads_above_90(self):
        # P = -e1 e1^T: SVD sigma=1 with f_X = -f_W, so theta = 180 degrees
        an = analyze_operator(np.diag([-1.0, 0.0]))
        assert an.theta_max_deg == pytest.approx(180.0)

    def test_rejects_nonsquare_and_bad_tol(self):
        with pytest.raises(ShapeError):
            analyze_operator(np.zeros((2, 3)))
        with pytest.raises(ConfigurationError):
            analyze_operator(np.eye(2), rank_tol=0.0)

    def test_json_view(self):
        an = analyze_operator(np.array([[1.0, 1.0], [0.0, 0.0]]))
        d = analysis_to_json_dict(an)
        assert d["sigma_max"] == pytest.approx(np.sqrt(2.0))
        assert d["theta_max_deg"] == pytest.approx(45.0)
        assert d["frob_I_minus_Pf"] == pytest.approx(np.linalg.norm(np.eye(2) - an.p_f))
        assert isinstance(d["sigma"], list)


class TestAnglesFromVectors:
    def test_hand_oracle(self):
        f_x = np.array([1.0, 0.0])
        f_w = np.array([1.0, 1.0]) / np.sqrt(2.0)
        theta, dphi = angles_from_vectors((np.sqrt(2.0), f_x, f_w))
        assert theta == pytest.approx(45.0)
        assert dphi == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_convention(self):
        v = np.array([0.0, 1.0, 0.0])
        theta, dphi = angles_from_vectors((1.0, v, v))
        assert theta == 0.0
        assert dphi == 0.0

    def test_agrees_with_analysis_route(self):
        cfg = ExperimentConfig(m=40, n_f=16, n_p=48)
        _, data, fmap, model = _fitted(cfg)
        an = analyze_operator(feature_operator_from_model(model, data.X))
        for i, triple in enumerate(an.triples):
            theta, dphi = angles_from_vectors(triple)
            assert abs(theta - an.thetas_deg[i]) <= 1e-6
            assert abs(dphi - an.delta_phis_deg[i]) <= 1e-6

    def test_rejects_non_unit_vectors(self):
        with pytest.raises(ConfigurationError):
            angles_from_vectors((1.0, np.array([2.0, 0.0]), np.array([1.0, 0.0])))
        with pytest.raises(ConfigurationError):
            angles_from_vectors((-1.0, np.array([1.0, 0.0]), np.array([1.0, 0.0])))


class TestInternalRepresentation:
    def test_identity_operator(self):
        an = analyze_operator(np.eye(3))
        x = np.array([1.0, -2.0, 0.5])
        rep = internal_representation(an, x)
        assert np.allclose(rep.x_hat, x, atol=1e-12)
        assert np.allclose(rep.delta_x, 0.0, atol=1e-12)

    def test_hand_oracle(self):
        an = analyze_operator(np.array([[1.0, 1.0], [0.0, 0.0]]))
        rep = internal_representation(an, np.array([0.0, 1.0]))
        assert np.allclose(rep.x_hat, [1.0, 0.0], atol=1e-12)
        assert np.allclose(rep.x_hat_w, [0.5, 0.5], atol=1e-12)
        assert np.allclose(rep.delta_x, [-1.0, 1.0], atol=1e-12)

    def test_kernel_input(self):
        an = analyze_operator(np.array([[1.0, 1.0], [0.0, 0.0]]))
        # x orthogonal to f_W = (1,1)/sqrt2
        rep = internal_representation(an, np.array([1.0, -1.0]))
        assert np.allclose(rep.x_hat, 0.0, atol=1e-12)
        assert np.allclose(rep.x_hat_w, 0.0, atol=1e-12)

    def test_exact_additivity(self):
        cfg = ExperimentConfig(m=16, n_f=6, n_p=20)
        _, data, fmap, model = _fitted(cfg)
        an = analyze_operator(feature_operator_from_model(model, data.X))
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.normal(size=6)
            rep = internal_representation(an, x)
            resid = np.linalg.norm(rep.x_hat + rep.delta_x - x)
            assert resid <= 1e-12 * (1.0 + np.linalg.norm(x))

    def test_shape_error(self):
        an = analyze_operator(np.eye(3))
        with pytest.raises(ShapeError):
            internal_representation(an, np.zeros(4))


class TestPredictionDecomposition:
    def test_identity_noiseless_linear(self):
        cfg = ExperimentConfig(
            m=30, n_f=8, n_p=8, activation="identity", sigma_eps=0.0, lam=0.0
        )
        teacher, data, fmap, model = _fitted(cfg)
        rng = np.random.default_rng(13)
        for _ in range(5):
            x = rng.normal(size=8)
            xb, dy = prediction_decomposition(model, teacher, data, x)
            assert abs(dy) <= 1e-10
            assert xb == pytest.approx(predict(model, x), abs=1e-10)

    @pytest.mark.parametrize("activation", ["identity", "linear", "relu"])
    def test_sum_equals_prediction(self, activation):
        n_p = 12 if activation == "identity" else 40
        cfg = ExperimentConfig(m=25, n_f=12, n_p=n_p, activation=activation)
        teacher, data, fmap, model = _fitted(cfg)
        rng = np.random.default_rng(14)
        for _ in range(10):
            x = rng.normal(size=12) / np.sqrt(12)
            y_hat = predict(model, x)
            xb, dy = prediction_decomposition(model, teacher, data, x)
            assert abs(y_hat - (xb + dy)) <= 1e-8 * (1.0 + abs(y_hat))

    def test_nonlinear_teacher_term(self):
        cfg = ExperimentConfig(m=20, n_f=6, n_p=25, activation="relu")
        base = sample_teacher(cfg)
        from georeg import TeacherModel

        teacher = TeacherModel(
            beta=base.beta, sigma_eps=cfg.sigma_eps, nonlinear_label_fn=lambda v: 0.3 * v[0] ** 2
        )
        data = sample_dataset(cfg, teacher, (0, 0, STREAM_TRAIN))
        fmap = make_feature_map(cfg)
        model = fit(apply_features(fmap, data.X), data.y, lam=cfg.lam, feature_map=fmap)
        x = np.full(6, 0.2)
        y_hat = predict(model, x)
        xb, dy = prediction_decomposition(model, teacher, data, x)
        assert abs(y_hat - (xb + dy)) <= 1e-8 * (1.0 + abs(y_hat))

    def test_requires_noise_vector(self):
        cfg = ExperimentConfig(m=10, n_f=4, n_p=12)
        teacher, data, fmap, model = _fitted(cfg)
        from georeg import Dataset

        stripped = Dataset(X=data.X, y=data.y, eps=None)
        with pytest.raises(ConfigurationError):
            prediction_decomposition(model, teacher, stripped, np.zeros(4))


class TestNearThresholdInvariant:
    """A dominant near-oblique leading mode admits a rank-1 idempotent scaling.

    Constructed operator: leading mode sigma_1 = 150 with a tiny deviation
    angle, plus two small generic modes, so sigma_1/sigma_2 >= 100 and
    |delta_phi_1| <= 1 degree.  The truncation P ~ f_X f_W^T / cos(theta_1)
    must then be idempotent to round-off, and the full operator's relative
    idempotency defect |P_f^2 - P_f|_F / |P_f|_F^2 stays within tan(1 deg)
    plus the subleading contamination, comfortably below 0.05.
    """

    def _build(self, rng):
        n = 12
        sigma1 = 150.0
        theta1 = np.arccos(1.0 / sigma1) + np.radians(0.5)  # delta_phi ~ 0.5 deg scale
        basis = np.linalg.qr(rng.normal(size=(n, n)))[0]
        f_w1 = basis[:, 0]
        f_x1 = np.cos(theta1) * basis[:, 0] + np.sin(theta1) * basis[:, 1]
        p = sigma1 * np.outer(f_x1, f_w1)
        p += 1.2 * np.outer(basis[:, 2], basis[:, 3])
        p += 0.8 * np.outer(basis[:, 4], basis[:, 5])
        return p

    def test_rank1_truncation_idempotent(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            p_f = self._build(rng)
            an = analyze_operator(p_f)
            assert an.sigmas[0] / an.sigmas[1] >= 100.0
            assert abs(an.delta_phi_max_deg) <= 1.0
            cos_t = np.cos(np.radians(an.theta_max_deg))
            trunc = np.outer(an.f_x[:, 0], an.f_w[:, 0]) / cos_t
            defect = np.linalg.norm(trunc @ trunc - trunc) / np.linalg.norm(trunc)
            assert defect <= 0.05

    def test_full_operator_near_idempotent(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            p_f = self._build(rng)
            norm = np.linalg.norm(p_f)
            defect = np.linalg.norm(p_f @ p_f - p_f) / norm**2
            assert defect <= 0.05
