"""Perturbation split and the batched paired experiment.

The split only has two non-degenerate sides when the row space of P_f is a
proper subspace of the input space, i.e. fewer training rows than input
dimensions; fixtures below use m < n_f.  With m >= n_f every direction is
purely adversarial and the experiment must fail loudly.
"""
import numpy as np
import pytest

from georeg import (
    ConfigurationError,
    DegenerateDirectionError,
    ExperimentConfig,
    ExperimentError,
    NumericError,
    PerturbationRecord,
    STREAM_PERTURB,
    STREAM_TRAIN,
    TeacherModel,
    analyze_operator,
    apply_features,
    decompose_perturbation,
    feature_operator_from_model,
    fit,
    make_feature_map,
    perturbation_experiment,
    predict,
    sample_dataset,
    sample_teacher,
    stream_rng,
)


def _setup(activation="relu", m=16, n_f=24, n_p=48, **kw):
    cfg = ExperimentConfig(m=m, n_f=n_f, n_p=n_p, activation=activation, **kw)
    teacher = sample_teacher(cfg)
    data = sample_dataset(cfg, teacher, (0, 0, STREAM_TRAIN))
    fmap = make_feature_map(cfg)
    model = fit(apply_features(fmap, data.X), data.y, lam=cfg.lam, feature_map=fmap)
    analysis = analyze_operator(feature_operator_from_model(model, data.X))
    return cfg, teacher, data, model, analysis


class TestDecompose:
    def test_axis_aligned_oracle(self):
        an = analyze_operator(np.diag([1.0, 0.0]))
        e_par, e_perp = decompose_perturbation(np.array([3.0, 4.0]), an)
        assert np.allclose(e_par, [1.0, 0.0], atol=1e-12)
        assert np.allclose(e_perp, [0.0, 1.0], atol=1e-12)

    def test_unit_norms_and_orthogonality(self):
        cfg, teacher, data, model, an = _setup()
        rng = np.random.default_rng(31)
        for _ in range(10):
            e = rng.normal(size=cfg.n_f)
            e_par, e_perp = decompose_perturbation(e, an)
            assert abs(np.linalg.norm(e_par) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(e_perp) - 1.0) <= 1e-12
            assert abs(e_par @ e_perp) <= 1e-10

    def test_perp_is_in_kernel(self):
        cfg, teacher, data, model, an = _setup()
        rng = np.random.default_rng(32)
        p_norm = np.linalg.norm(an.p_f)
        for _ in range(10):
            _, e_perp = decompose_perturbation(rng.normal(size=cfg.n_f), an)
            assert np.linalg.norm(an.p_f @ e_perp) <= 1e-10 * p_norm

    def test_degenerate_sides_named(self):
        an = analyze_operator(np.diag([1.0, 0.0]))
        with pytest.raises(DegenerateDirectionError, match="perpendicular"):
            decompose_perturbation(np.array([1.0, 0.0]), an)
        with pytest.raises(DegenerateDirectionError, match="parallel"):
            decompose_perturbation(np.array([0.0, 1.0]), an)

    def test_zero_vector_rejected(self):
        an = analyze_operator(np.diag([1.0, 0.0]))
        with pytest.raises(ConfigurationError):
            decompose_perturbation(np.zeros(2), an)

    def test_null_operator_rejected(self):
        an = analyze_operator(np.zeros((2, 2)))
        with pytest.raises(ConfigurationError):
            decompose_perturbation(np.array([1.0, 0.0]), an)


class TestBatchedResponses:
    """The batched experiment against the one-direction definitions."""

    @pytest.mark.parametrize("activation", ["identity", "linear", "relu"])
    def test_records_match_per_direction_oracles(self, activation):
        # the identity family needs n_p = n_f
        cfg, teacher, data, model, an = _setup(activation=activation, n_p=24 if activation == "identity" else 48)
        x = np.random.default_rng(34).normal(0.0, cfg.sigma_x / np.sqrt(cfg.n_f), cfg.n_f)
        eta = 1e-2
        records, summary = perturbation_experiment(model, teacher, an, x, cfg, n_pairs=12, eta=eta)
        assert summary["skipped_degenerate"] == 0
        rng = stream_rng(cfg.seed, (0, 0, STREAM_PERTURB))
        scale = cfg.sigma_x / np.sqrt(cfg.n_f)
        expected = []
        for _ in range(12):
            e_par, e_perp = decompose_perturbation(rng.normal(0.0, scale, cfg.n_f), an)
            expected += [("adversarial", e_par), ("invariant", e_perp)]
        assert [r.kind for r in records] == [kind for kind, _ in expected]
        for r, (_, d) in zip(records, expected):
            assert np.allclose(r.direction, d, rtol=0.0, atol=1e-15)
            fd = (predict(model, x + eta * r.direction) - predict(model, x)) / eta
            assert abs(r.d_y_pred - fd) <= 1e-12
            assert r.d_y_true == teacher.beta @ r.direction
            assert r.eta == eta

    def test_quadratic_teacher_oracle(self):
        # y*(v) = beta.v + v_0^2, so the one-sided difference at eta is
        # beta.d + 2 x_0 d_0 + eta d_0^2 exactly in real arithmetic
        cfg, teacher, data, model, an = _setup()
        quad = TeacherModel(teacher.beta, teacher.sigma_eps, lambda v: v[0] ** 2)
        x = np.full(cfg.n_f, 0.3)
        eta = 1e-2
        records, _ = perturbation_experiment(model, quad, an, x, cfg, n_pairs=10, eta=eta)
        for r in records:
            d = r.direction
            oracle = teacher.beta @ d + 2 * x[0] * d[0] + eta * d[0] ** 2
            assert r.d_y_true == pytest.approx(oracle, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("eta", [0.0, -1.0, float("nan")])
    def test_rejects_bad_eta(self, eta):
        cfg, teacher, data, model, an = _setup()
        with pytest.raises(ConfigurationError):
            perturbation_experiment(model, teacher, an, np.zeros(cfg.n_f), cfg, n_pairs=4, eta=eta)

    def test_non_finite_labels_raise(self):
        cfg, teacher, data, model, an = _setup()
        # finite at the base point x = 0, infinite at every moved point
        bad = TeacherModel(teacher.beta, teacher.sigma_eps, lambda v: np.inf if v.any() else 0.0)
        with pytest.raises(NumericError):
            perturbation_experiment(model, bad, an, np.zeros(cfg.n_f), cfg, n_pairs=4)


class TestRepresentationInvariance:
    def test_invariant_direction_leaves_projection_fixed(self):
        cfg, teacher, data, model, an = _setup()
        rng = np.random.default_rng(33)
        x = rng.normal(0.0, cfg.sigma_x / np.sqrt(cfg.n_f), cfg.n_f)
        p_norm = np.linalg.norm(an.p_f)
        for eta in (1e-2, 1e-1, 1.0):
            for _ in range(5):
                _, e_perp = decompose_perturbation(rng.normal(size=cfg.n_f), an)
                moved = x + eta * e_perp
                drift = np.linalg.norm(an.p_f @ moved - an.p_f @ x)
                assert drift <= 1e-10 * p_norm * np.linalg.norm(moved)


class TestExperiment:
    def test_record_counts_and_summary_schema(self):
        cfg, teacher, data, model, an = _setup()
        x = np.zeros(cfg.n_f)
        records, summary = perturbation_experiment(
            model, teacher, an, x, cfg, n_pairs=50, eta=1e-2
        )
        assert summary["skipped_degenerate"] == 0
        assert summary["n_adversarial"] == summary["n_invariant"] == 50
        assert len(records) == 100
        assert {r.kind for r in records} == {"adversarial", "invariant"}
        for key in ("corr_adversarial", "corr_invariant", "slope_adversarial", "slope_invariant"):
            assert key in summary

    def test_deterministic(self):
        cfg, teacher, data, model, an = _setup()
        x = np.zeros(cfg.n_f)
        r1, s1 = perturbation_experiment(model, teacher, an, x, cfg, n_pairs=20)
        r2, s2 = perturbation_experiment(model, teacher, an, x, cfg, n_pairs=20)
        assert s1 == s2
        assert all(
            a.d_y_true == b.d_y_true and a.d_y_pred == b.d_y_pred for a, b in zip(r1, r2)
        )

    def test_identity_recovery_slopes(self):
        # noiseless identity fit: P_f is the orthogonal projector onto the
        # row space, so adversarial responses match the teacher exactly and
        # invariant ones vanish
        cfg, teacher, data, model, an = _setup(
            activation="identity", m=12, n_f=20, n_p=20, sigma_eps=0.0, lam=0.0
        )
        x = np.zeros(cfg.n_f)
        _, summary = perturbation_experiment(model, teacher, an, x, cfg, n_pairs=100)
        assert summary["corr_adversarial"] >= 1.0 - 1e-8
        assert summary["slope_adversarial"] == pytest.approx(1.0, abs=1e-8)
        assert abs(summary["slope_invariant"]) <= 1e-8

    def test_oblique_linear_family_still_correlates(self):
        # the linear family's operator is oblique, so adversarial agreement
        # is strong but not exact
        cfg, teacher, data, model, an = _setup(
            activation="linear", m=12, n_f=20, n_p=60, sigma_eps=0.0, lam=0.0
        )
        x = np.zeros(cfg.n_f)
        _, summary = perturbation_experiment(model, teacher, an, x, cfg, n_pairs=100)
        assert summary["corr_adversarial"] >= 0.8
        assert abs(summary["slope_invariant"]) <= 1e-6

    def test_eta_independence_for_linear_labels(self):
        cfg, teacher, data, model, an = _setup(activation="linear", sigma_eps=0.0, lam=0.0)
        x = np.zeros(cfg.n_f)
        r_big, _ = perturbation_experiment(model, teacher, an, x, cfg, n_pairs=20, eta=1e-2)
        r_small, _ = perturbation_experiment(model, teacher, an, x, cfg, n_pairs=20, eta=1e-3)
        for a, b in zip(r_big, r_small):
            assert a.d_y_true == b.d_y_true  # analytic, eta plays no role
            assert abs(a.d_y_pred - b.d_y_pred) <= 1e-12

    def test_all_degenerate_raises(self):
        # square-feature identity fit: P_f row space is all of input space,
        # so no invariant component ever survives
        cfg, teacher, data, model, an = _setup(
            activation="identity", m=20, n_f=8, n_p=8, lam=0.0
        )
        with pytest.raises(ExperimentError):
            perturbation_experiment(model, teacher, an, np.zeros(8), cfg, n_pairs=5)

    def test_rejects_tiny_pair_count(self):
        cfg, teacher, data, model, an = _setup()
        with pytest.raises(ConfigurationError):
            perturbation_experiment(model, teacher, an, np.zeros(cfg.n_f), cfg, n_pairs=1)


class TestRecordValidation:
    def test_bad_kind(self):
        with pytest.raises(ConfigurationError):
            PerturbationRecord(
                kind="sideways", d_y_true=0.0, d_y_pred=0.0, eta=1e-2,
                direction=np.array([1.0, 0.0]),
            )

    def test_non_unit_direction(self):
        with pytest.raises(ConfigurationError):
            PerturbationRecord(
                kind="adversarial", d_y_true=0.0, d_y_pred=0.0, eta=1e-2,
                direction=np.array([1.0, 1.0]),
            )
