"""Projection operators, SVD angles, and the exact prediction split.

Hand oracles used below:
  - Z = [[1],[1]]: Z Z^+ = [[.5,.5],[.5,.5]].
  - X = [[1,0]], W = [[1/sqrt2],[1/sqrt2]] (n_f=2, n_p=1): Z = XW = [1/sqrt2],
    Z^+ = [sqrt2], P_f = (W Z^+ X)^T = [[1,1],[0,0]]^T transposed -> [[1,0],[1,0]]^T;
    worked through: W Z^+ = [[1],[1]], times X gives [[1,0],[1,0]], transpose
    [[1,1],[0,0]].  SVD: sigma = sqrt2, f_X = e1, f_W = (e1+e2)/sqrt2,
    theta = 45 deg, sigma cos theta = 1 so delta_phi = 0.
"""
import numpy as np
import pytest

from georeg import (
    ExperimentConfig,
    NumericError,
    ShapeError,
    STREAM_TRAIN,
    analysis_to_json_dict,
    analyze_operator,
    apply_features,
    feature_operator_from_model,
    fit,
    label_projector,
    make_feature_map,
    prediction_decomposition,
    sample_dataset,
    sample_teacher,
)
from georeg.linreg_core import Factorization, FeatureMap


def _fitted(cfg, tag=(0, 0, STREAM_TRAIN)):
    beta = sample_teacher(cfg)
    data = sample_dataset(cfg, beta, tag)
    fmap = make_feature_map(cfg)
    model = fit(apply_features(fmap, data.X), data.y, lam=cfg.lam, feature_map=fmap)
    return beta, data, fmap, model


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


def _p_f(fmap, Z, X):
    """P_f of the minimum-norm fit of Z (the labels do not enter P_f)."""
    return feature_operator_from_model(fit(Z, np.zeros(len(Z)), lam=0.0, feature_map=fmap), X)


class TestFeatureOperator:
    def test_identity_map_square_design(self):
        cfg = ExperimentConfig(m=5, n_f=5, n_p=5, activation="identity", lam=0.0)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(5, 5)) + 2 * np.eye(5)
        fmap = make_feature_map(cfg)
        p_f = _p_f(fmap, X, X)
        assert np.allclose(p_f, np.eye(5), atol=1e-10)

    def test_identity_map_row_design(self):
        cfg = ExperimentConfig(m=1, n_f=2, n_p=2, activation="identity", lam=0.0)
        fmap = make_feature_map(cfg)
        X = np.array([[1.0, 0.0]])
        p_f = _p_f(fmap, X, X)
        assert np.allclose(p_f, np.diag([1.0, 0.0]), atol=1e-15)

    def test_linear_map_hand_oracle(self):
        W = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        fmap = FeatureMap(kind="linear", W=W)
        X = np.array([[1.0, 0.0]])
        Z = X @ W
        p_f = _p_f(fmap, Z, X)
        assert np.allclose(p_f, [[1.0, 1.0], [0.0, 0.0]], atol=1e-12)

    def test_shape_errors(self):
        cfg = ExperimentConfig(m=4, n_f=3, n_p=5)
        fmap = make_feature_map(cfg)
        with pytest.raises(ShapeError):
            _p_f(fmap, np.zeros((4, 6)), np.zeros((4, 3)))
        with pytest.raises(ShapeError):
            _p_f(fmap, np.zeros((4, 5)), np.zeros((3, 3)))

    def test_non_finite_z_raises(self):
        cfg = ExperimentConfig(m=4, n_f=3, n_p=5)
        fmap = make_feature_map(cfg)
        Z = np.ones((4, 5))
        Z[2, 1] = np.nan
        with pytest.raises(NumericError):
            _p_f(fmap, Z, np.zeros((4, 3)))


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

    def test_degenerate_convention(self):
        # sigma f_X = f_W on every mode: the deviation angle is undefined
        # and reported as exactly 0, like theta
        an = analyze_operator(np.eye(3))
        assert an.rank == 3
        assert np.all(an.thetas_deg == 0.0)
        assert np.all(an.delta_phis_deg == 0.0)

    def test_zero_matrix_has_empty_triples(self):
        an = analyze_operator(np.zeros((4, 4)))
        assert an.rank == 0
        assert an.f_x.shape == an.f_w.shape == (4, 0)
        assert an.sigma_max is None and an.theta_max_deg is None

    def test_reconstruction(self):
        cfg = ExperimentConfig(m=30, n_f=12, n_p=60)
        _, data, fmap, model = _fitted(cfg)
        p_f = feature_operator_from_model(model, data.X)
        an = analyze_operator(p_f)
        rebuilt = (an.f_x * an.sigmas) @ an.f_w.T
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

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            analyze_operator(np.zeros((2, 3)))

    def test_json_view(self):
        an = analyze_operator(np.array([[1.0, 1.0], [0.0, 0.0]]))
        d = analysis_to_json_dict(an)
        assert d["sigma_max"] == pytest.approx(np.sqrt(2.0))
        assert d["theta_max_deg"] == pytest.approx(45.0)
        assert d["frob_I_minus_Pf"] == pytest.approx(np.linalg.norm(np.eye(2) - an.p_f))
        assert isinstance(d["sigma"], list)


class TestPredictionDecomposition:
    def test_identity_noiseless_linear(self):
        cfg = ExperimentConfig(
            m=30, n_f=8, n_p=8, activation="identity", sigma_eps=0.0, lam=0.0
        )
        beta, data, fmap, model = _fitted(cfg)
        rng = np.random.default_rng(13)
        for _ in range(5):
            x = rng.normal(size=8)
            xb, dy = prediction_decomposition(model, beta, data, x)
            assert abs(dy) <= 1e-10
            assert xb == pytest.approx(float(apply_features(fmap, x) @ model.w_hat), abs=1e-10)

    @pytest.mark.parametrize("activation", ["identity", "linear", "relu"])
    def test_sum_equals_prediction(self, activation):
        n_p = 12 if activation == "identity" else 40
        cfg = ExperimentConfig(m=25, n_f=12, n_p=n_p, activation=activation)
        beta, data, fmap, model = _fitted(cfg)
        rng = np.random.default_rng(14)
        for _ in range(10):
            x = rng.normal(size=12) / np.sqrt(12)
            y_hat = float(apply_features(fmap, x) @ model.w_hat)
            xb, dy = prediction_decomposition(model, beta, data, x)
            assert abs(y_hat - (xb + dy)) <= 1e-8 * (1.0 + abs(y_hat))

    @pytest.mark.parametrize("n_p", [12, 25, 40])  # the tall Gram, square SVD and wide Gram routes
    def test_one_vector_solve_splits_the_fits_own_w_hat(self, monkeypatch, n_p):
        cfg = ExperimentConfig(m=25, n_f=12, n_p=n_p, activation="relu")
        beta, data, fmap, model = _fitted(cfg)
        assert (model.factors._K is not None) == (n_p != 25)
        calls, solve = [], Factorization.solve

        def counted(self, B, left=None):
            calls.append((np.shape(B), left))
            return solve(self, B, left)

        monkeypatch.setattr(Factorization, "solve", counted)
        prediction_decomposition(model, beta, data, np.full(12, 12**-0.5))
        assert calls == [((25,), None)]  # G (X beta); G y is the fit's w_hat

    @pytest.mark.parametrize("activation, n_p", [("identity", 32), ("linear", 96), ("relu", 96)])
    def test_c06_holds_to_round_off_at_seeds_0_to_39(self, activation, n_p):
        # c06's designs and loop at 40 seeds; worst seen 1.2e-15 (relu),
        # against c06's bound of 1e-8
        worst = 0.0
        for seed in range(40):
            cfg = ExperimentConfig(m=64, n_f=32, n_p=n_p, activation=activation, seed=seed)
            beta, data, fmap, model = _fitted(cfg)
            rng = np.random.default_rng(42)
            for _ in range(100):
                x = rng.normal(0.0, cfg.sigma_x / np.sqrt(cfg.n_f), cfg.n_f)
                y_hat = float(apply_features(fmap, x) @ model.w_hat)
                xb, dy = prediction_decomposition(model, beta, data, x)
                worst = max(worst, abs(y_hat - (xb + dy)) / (1.0 + abs(y_hat)))
        assert worst <= 1e-13


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
