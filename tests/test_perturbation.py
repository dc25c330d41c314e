"""Perturbation split and the batched paired experiment.

The split only has two non-degenerate sides when the row space of P_f is a
proper subspace of the input space, i.e. fewer training rows than input
dimensions; fixtures below use m < n_f.  With m >= n_f every direction is
purely adversarial and the experiment must fail loudly.
"""
import re

import numpy as np
import pytest

from georeg import (
    ConfigurationError,
    DegenerateDirectionError,
    ExperimentConfig,
    ExperimentError,
    NumericError,
    ShapeError,
    STREAM_PERTURB,
    STREAM_TRAIN,
    analyze_operator,
    apply_features,
    decompose_perturbation,
    feature_operator_from_model,
    fit,
    make_feature_map,
    perturbation_experiment,
    prediction_decomposition,
    sample_dataset,
    sample_teacher,
    stream_rng,
)


def _setup(activation="relu", m=16, n_f=24, n_p=48, **kw):
    cfg = ExperimentConfig(m=m, n_f=n_f, n_p=n_p, activation=activation, **kw)
    beta = sample_teacher(cfg)
    data = sample_dataset(cfg, beta, (0, 0, STREAM_TRAIN))
    fmap = make_feature_map(cfg)
    model = fit(apply_features(fmap, data.X), data.y, lam=cfg.lam, feature_map=fmap)
    analysis = analyze_operator(feature_operator_from_model(model, data.X))
    return cfg, beta, data, model, analysis


class TestDecompose:
    def test_axis_aligned_oracle(self):
        an = analyze_operator(np.diag([1.0, 0.0]))
        e_par, e_perp = decompose_perturbation(np.array([3.0, 4.0]), an)
        assert np.allclose(e_par, [1.0, 0.0], atol=1e-12)
        assert np.allclose(e_perp, [0.0, 1.0], atol=1e-12)

    def test_unit_norms_and_orthogonality(self):
        cfg, beta, data, model, an = _setup()
        rng = np.random.default_rng(31)
        for _ in range(10):
            e = rng.normal(size=cfg.n_f)
            e_par, e_perp = decompose_perturbation(e, an)
            assert abs(np.linalg.norm(e_par) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(e_perp) - 1.0) <= 1e-12
            assert abs(e_par @ e_perp) <= 1e-10

    def test_perp_is_in_kernel(self):
        cfg, beta, data, model, an = _setup()
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

    def test_non_finite_vectors_rejected(self):
        an = analyze_operator(np.diag([1.0, 0.0]))
        with pytest.raises(NumericError):
            decompose_perturbation(np.full(2, np.nan), an)
        with pytest.raises(NumericError):
            decompose_perturbation(np.array([np.inf, 1.0]), an)

    def test_null_operator_rejected(self):
        an = analyze_operator(np.zeros((2, 2)))
        with pytest.raises(ConfigurationError):
            decompose_perturbation(np.array([1.0, 0.0]), an)


class TestBatchedResponses:
    """The batched experiment against the one-direction definitions."""

    @pytest.mark.parametrize("activation", ["identity", "linear", "relu"])
    def test_records_match_per_direction_oracles(self, activation):
        # the identity family needs n_p = n_f
        cfg, beta, data, model, an = _setup(activation=activation, n_p=24 if activation == "identity" else 48)
        x = np.random.default_rng(34).normal(0.0, cfg.sigma_x / np.sqrt(cfg.n_f), cfg.n_f)
        eta = 1e-2
        responses, summary = perturbation_experiment(model, beta, an, x, cfg, n_pairs=12, eta=eta)
        assert summary["skipped_degenerate"] == 0
        rng = stream_rng(cfg.seed, (0, 0, STREAM_PERTURB))
        scale = cfg.sigma_x / np.sqrt(cfg.n_f)
        expected = np.array([decompose_perturbation(rng.normal(0.0, scale, cfg.n_f), an) for _ in range(12)])
        assert list(responses) == ["adversarial", "invariant"]

        def y_hat(v):
            return float(apply_features(model.feature_map, v) @ model.w_hat)

        for side, (D, d_true, d_pred) in enumerate(responses.values()):
            assert D.shape == (12, cfg.n_f) and d_true.shape == d_pred.shape == (12,)
            for d, e, t, p in zip(D, expected[:, side], d_true, d_pred):
                assert np.allclose(d, e, rtol=0.0, atol=1e-15)
                fd = (y_hat(x + eta * d) - y_hat(x)) / eta
                assert abs(p - fd) <= 1e-12
                assert t == beta @ d

    @pytest.mark.parametrize("eta", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_eta(self, eta):
        cfg, beta, data, model, an = _setup()
        with pytest.raises(ConfigurationError):
            perturbation_experiment(model, beta, an, np.zeros(cfg.n_f), cfg, n_pairs=4, eta=eta)

    def test_non_finite_labels_raise(self):
        cfg, beta, data, model, an = _setup()
        # an infinite coefficient would make beta . e_hat non-finite on every
        # direction; _check_beta rejects it before any direction is drawn
        bad = beta.copy()
        bad[0] = np.inf
        with pytest.raises(NumericError):
            perturbation_experiment(model, bad, an, np.zeros(cfg.n_f), cfg, n_pairs=4)


_BETA_CALLERS = ("sample_dataset", "prediction_decomposition", "perturbation_experiment")


def _call_with_beta(call, make_bad):
    """Run the named caller of _check_beta on _setup()'s fit with make_bad(beta) as the teacher."""
    cfg, beta, data, model, an = _setup()
    bad, x = make_bad(beta), np.zeros(cfg.n_f)
    calls = {
        "sample_dataset": lambda: sample_dataset(cfg, bad, (0, 0, STREAM_TRAIN)),
        "prediction_decomposition": lambda: prediction_decomposition(model, bad, data, x),
        "perturbation_experiment": lambda: perturbation_experiment(model, bad, an, x, cfg, n_pairs=4),
    }
    return calls[call]()


def _with_entry(v, index, value):
    v = np.array(v, dtype=float)
    v[index] = value
    return v


@pytest.mark.parametrize("shape", [(5,), (24, 1)], ids=["short", "column"])
@pytest.mark.parametrize("call", _BETA_CALLERS)
def test_beta_of_the_wrong_shape_is_a_shape_error(call, shape):
    with pytest.raises(ShapeError, match=re.escape(f"beta must have shape (24,), got {shape}")):
        _call_with_beta(call, lambda beta: np.resize(beta, shape))


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("call", _BETA_CALLERS)
def test_a_non_finite_beta_is_a_numeric_error(call, entry):
    with pytest.raises(NumericError, match="beta has non-finite entries"):
        _call_with_beta(call, lambda beta: _with_entry(beta, 3, entry))


@pytest.mark.parametrize("entry", [np.inf, np.nan])
def test_a_non_finite_x_is_a_numeric_error_of_prediction_decomposition(entry):
    cfg, beta, data, model, an = _setup()
    for x in (_with_entry(np.zeros(cfg.n_f), 0, entry), np.full(cfg.n_f, entry)):
        with pytest.raises(NumericError, match="x has non-finite entries"):
            prediction_decomposition(model, beta, data, x)


def test_perturbation_experiment_rejects_a_config_of_another_n_f():
    # a relu fit at N_f = 48; a config with n_f = 4 would scale the
    # directions by 1/sqrt(4) where the inputs use 1/sqrt(48)
    cfg, beta, data, model, an = _setup(n_f=48, n_p=96)
    other = ExperimentConfig(m=cfg.m, n_f=4, n_p=cfg.n_p, activation="relu")
    with pytest.raises(ConfigurationError, match=r"n_f = 4, but P_f has N_f = 48"):
        perturbation_experiment(model, beta, an, np.zeros(48), other, n_pairs=4)


class TestRepresentationInvariance:
    def test_invariant_direction_leaves_projection_fixed(self):
        cfg, beta, data, model, an = _setup()
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
        cfg, beta, data, model, an = _setup()
        x = np.zeros(cfg.n_f)
        responses, summary = perturbation_experiment(
            model, beta, an, x, cfg, n_pairs=50, eta=1e-2
        )
        assert summary["skipped_degenerate"] == 0
        assert summary["n_adversarial"] == summary["n_invariant"] == 50
        assert list(responses) == ["adversarial", "invariant"]
        for D, d_true, d_pred in responses.values():
            assert D.shape == (50, cfg.n_f) and d_true.shape == d_pred.shape == (50,)
        for key in ("corr_adversarial", "corr_invariant", "slope_adversarial", "slope_invariant"):
            assert key in summary

    def test_deterministic(self):
        cfg, beta, data, model, an = _setup()
        x = np.zeros(cfg.n_f)
        r1, s1 = perturbation_experiment(model, beta, an, x, cfg, n_pairs=20)
        r2, s2 = perturbation_experiment(model, beta, an, x, cfg, n_pairs=20)
        assert s1 == s2
        for kind in r1:
            for a, b in zip(r1[kind], r2[kind]):
                assert np.array_equal(a, b)

    def test_identity_recovery_slopes(self):
        # noiseless identity fit: P_f is the orthogonal projector onto the
        # row space, so adversarial responses match the teacher exactly and
        # invariant ones vanish
        cfg, beta, data, model, an = _setup(
            activation="identity", m=12, n_f=20, n_p=20, sigma_eps=0.0, lam=0.0
        )
        x = np.zeros(cfg.n_f)
        _, summary = perturbation_experiment(model, beta, an, x, cfg, n_pairs=100)
        assert summary["corr_adversarial"] >= 1.0 - 1e-8
        assert summary["slope_adversarial"] == pytest.approx(1.0, abs=1e-8)
        assert abs(summary["slope_invariant"]) <= 1e-8

    def test_oblique_linear_family_still_correlates(self):
        # the linear family's operator is oblique, so adversarial agreement
        # is strong but not exact
        cfg, beta, data, model, an = _setup(
            activation="linear", m=12, n_f=20, n_p=60, sigma_eps=0.0, lam=0.0
        )
        x = np.zeros(cfg.n_f)
        _, summary = perturbation_experiment(model, beta, an, x, cfg, n_pairs=100)
        assert summary["corr_adversarial"] >= 0.8
        assert abs(summary["slope_invariant"]) <= 1e-6

    def test_eta_independence_for_linear_labels(self):
        cfg, beta, data, model, an = _setup(activation="linear", sigma_eps=0.0, lam=0.0)
        x = np.zeros(cfg.n_f)
        r_big, _ = perturbation_experiment(model, beta, an, x, cfg, n_pairs=20, eta=1e-2)
        r_small, _ = perturbation_experiment(model, beta, an, x, cfg, n_pairs=20, eta=1e-3)
        for kind in r_big:
            _, t_big, p_big = r_big[kind]
            _, t_small, p_small = r_small[kind]
            assert np.array_equal(t_big, t_small)  # analytic, eta plays no role
            assert np.max(np.abs(p_big - p_small)) <= 1e-12

    def test_all_degenerate_raises(self):
        # square-feature identity fit: P_f row space is all of input space,
        # so no invariant component ever survives
        cfg, beta, data, model, an = _setup(
            activation="identity", m=20, n_f=8, n_p=8, lam=0.0
        )
        with pytest.raises(ExperimentError):
            perturbation_experiment(model, beta, an, np.zeros(8), cfg, n_pairs=5)

    def test_rejects_tiny_pair_count(self):
        cfg, beta, data, model, an = _setup()
        for n_pairs in (1, 2.5, float("nan")):
            with pytest.raises(ConfigurationError):
                perturbation_experiment(model, beta, an, np.zeros(cfg.n_f), cfg, n_pairs=n_pairs)

