"""Acceptance gate: ten desk-scale product checks, one test per criterion.

Run with `pytest -v tests/test_acceptance.py`; the verbose line of each test
is the pass/fail record for that criterion.  Measured values are printed so
a failure carries its evidence.

The heavy double-descent sweep (criterion 1's configuration) runs once and
feeds criteria 1, 2, 3, 4, and 7.
"""
import numpy as np
import pytest

from georeg import (
    ExperimentConfig,
    STREAM_TEACHER,
    STREAM_TEST,
    STREAM_TRAIN,
    STREAM_WEIGHTS,
    SweepSpec,
    analyze_operator,
    apply_features,
    decompose_perturbation,
    feature_operator_from_model,
    fit,
    make_feature_map,
    perturbation_experiment,
    prediction_decomposition,
    pseudoinverse,
    run_sweep,
    sample_dataset,
    sample_teacher,
    sigma_eps_for_snr,
    stream_rng,
)

GRID = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0)
OVER_BRANCH = (1.5, 2.0, 3.0, 4.0)


@pytest.fixture(scope="module")
def sweep():
    base = ExperimentConfig(
        m=256,
        n_f=64,
        n_p=256,
        activation="relu",
        lam=1e-8,
        sigma_eps=sigma_eps_for_snr(10.0),
    )
    spec = SweepSpec(
        base_config=base, np_over_m_grid=GRID, n_replicas=100, normalize=True
    )
    return run_sweep(spec)


def _row(result, ratio):
    for row in result.rows:
        if row.np_over_m == ratio:
            return row
    raise AssertionError(f"no sweep row for np_over_m={ratio}")


def _tstat(result, metric, ratio_hi, ratio_lo):
    hi, lo = _row(result, ratio_hi), _row(result, ratio_lo)
    gap = hi.means[metric] - lo.means[metric]
    se = np.hypot(hi.standard_errors[metric], lo.standard_errors[metric])
    return gap / se


def _branch_non_increasing(result, metric, slack_se=2.0):
    worst = -np.inf
    for a, b in zip(OVER_BRANCH, OVER_BRANCH[1:]):
        ra, rb = _row(result, a), _row(result, b)
        allowed = slack_se * np.hypot(
            ra.standard_errors[metric], rb.standard_errors[metric]
        )
        worst = max(worst, rb.means[metric] - ra.means[metric] - allowed)
    return worst  # <= 0 means the branch never rises beyond the allowance


def test_c01_interpolation_threshold(sweep):
    at_or_past = [r for r in GRID if r >= 1.0]
    values = {r: _row(sweep, r).means["train_error"] for r in at_or_past}
    worst_ratio = max(values, key=values.get)
    print(
        "criterion 1 (interpolation threshold): normalized train error by ratio "
        + ", ".join(f"{r}: {v:.3e}" for r, v in values.items())
        + f"; runtime {sweep.elapsed_seconds:.1f}s (bounds 1e-6, 300s)"
    )
    assert sweep.elapsed_seconds <= 300.0
    assert values[worst_ratio] <= 1e-6, (
        f"mean train error {values[worst_ratio]:.3e} at N_p/M={worst_ratio} "
        f"exceeds 1e-6 of sigma_y^2"
    )


def test_c02_double_descent_peak(sweep):
    t_lo = _tstat(sweep, "test_error", 1.0, 0.5)
    t_hi = _tstat(sweep, "test_error", 1.0, 2.0)
    rise = _branch_non_increasing(sweep, "test_error")
    print(
        f"criterion 2 (double-descent peak): t(1 vs 0.5)={t_lo:.2f}, "
        f"t(1 vs 2)={t_hi:.2f} (need >= 4); worst branch rise beyond 2 SE = {rise:.3e}"
    )
    assert t_lo >= 4.0 and t_hi >= 4.0
    assert rise <= 0.0


def test_c03_variance_driven_divergence(sweep):
    peak = _row(sweep, 1.0)
    gap = peak.means["variance"] - peak.means["bias_sq"]
    se = np.hypot(peak.standard_errors["variance"], peak.standard_errors["bias_sq"])
    t_vb = gap / se
    rise = _branch_non_increasing(sweep, "bias_sq")
    print(
        f"criterion 3 (variance-driven divergence): t(var vs bias^2 at 1)={t_vb:.2f} "
        f"(need >= 4); worst bias^2 branch rise beyond 2 SE = {rise:.3e}"
    )
    assert t_vb >= 4.0
    assert rise <= 0.0


def test_c04_angle_behavior(sweep):
    th = {r: _row(sweep, r).means["theta_max_deg"] for r in (0.5, 1.0, 2.0)}
    dp = {r: _row(sweep, r).means["delta_phi_max_deg"] for r in (1.0, 2.0)}
    print(
        f"criterion 4 (angle behavior): theta_max 0.5/1/2 = "
        f"{th[0.5]:.2f}/{th[1.0]:.2f}/{th[2.0]:.2f} deg (peak must exceed 75 and both "
        f"neighbors); delta_phi_max 1/2 = {dp[1.0]:.3f}/{dp[2.0]:.3f} deg (1 must be lower)"
    )
    assert th[1.0] > 75.0
    assert th[1.0] > th[0.5] and th[1.0] > th[2.0]
    assert dp[1.0] < dp[2.0]


def test_c05_projector_classification():
    rng = np.random.default_rng(1000)
    m = 64
    worst = {"id_idem": 0.0, "id_sym": 0.0, "id_theta": 0.0,
             "lin_idem": 0.0, "lin_sct": 0.0, "lin_dphi": 0.0}
    for i in range(50):
        n_f = int(rng.integers(8, 97))
        cfg = ExperimentConfig(
            m=m, n_f=n_f, n_p=n_f, activation="identity", lam=0.0, seed=1000 + i
        )
        teacher = sample_teacher(cfg)
        data = sample_dataset(cfg, teacher, (0, 0, STREAM_TRAIN))
        fmap = make_feature_map(cfg)
        model = fit(apply_features(fmap, data.X), data.y, lam=0.0, feature_map=fmap)
        p_f = feature_operator_from_model(model, data.X)
        nrm = np.linalg.norm(p_f)
        an = analyze_operator(p_f)
        worst["id_idem"] = max(worst["id_idem"], np.linalg.norm(p_f @ p_f - p_f) / nrm)
        worst["id_sym"] = max(worst["id_sym"], np.linalg.norm(p_f - p_f.T) / nrm)
        worst["id_theta"] = max(worst["id_theta"], float(np.max(an.thetas_deg)))
    for i in range(50):
        n_f = int(rng.integers(8, 97))
        n_p = int(rng.integers(8, 193))
        cfg = ExperimentConfig(
            m=m, n_f=n_f, n_p=n_p, activation="linear", lam=0.0, seed=2000 + i
        )
        teacher = sample_teacher(cfg)
        data = sample_dataset(cfg, teacher, (0, 0, STREAM_TRAIN))
        fmap = make_feature_map(cfg)
        model = fit(apply_features(fmap, data.X), data.y, lam=0.0, feature_map=fmap)
        p_f = feature_operator_from_model(model, data.X)
        nrm = np.linalg.norm(p_f)
        an = analyze_operator(p_f)
        sct = np.abs(an.sigmas * np.cos(np.radians(an.thetas_deg)) - 1.0)
        worst["lin_idem"] = max(worst["lin_idem"], np.linalg.norm(p_f @ p_f - p_f) / nrm)
        worst["lin_sct"] = max(worst["lin_sct"], float(np.max(sct)))
        worst["lin_dphi"] = max(worst["lin_dphi"], float(np.max(np.abs(an.delta_phis_deg))))
    print(
        "criterion 5 (projector classification): identity idem/sym/theta = "
        f"{worst['id_idem']:.2e}/{worst['id_sym']:.2e}/{worst['id_theta']:.2e}; "
        "linear idem/|s*cos-1|/dphi = "
        f"{worst['lin_idem']:.2e}/{worst['lin_sct']:.2e}/{worst['lin_dphi']:.2e} "
        "(bounds 1e-8, 1e-8, 1e-6 deg; 1e-8, 1e-8, 1e-6 deg)"
    )
    assert worst["id_idem"] <= 1e-8
    assert worst["id_sym"] <= 1e-8
    assert worst["id_theta"] <= 1e-6
    assert worst["lin_idem"] <= 1e-8
    assert worst["lin_sct"] <= 1e-8
    assert worst["lin_dphi"] <= 1e-6


def test_c06_exact_prediction_decomposition():
    worst = {}
    for activation, n_p in (("identity", 32), ("linear", 96), ("relu", 96)):
        cfg = ExperimentConfig(m=64, n_f=32, n_p=n_p, activation=activation)
        teacher = sample_teacher(cfg)
        data = sample_dataset(cfg, teacher, (0, 0, STREAM_TRAIN))
        fmap = make_feature_map(cfg)
        model = fit(apply_features(fmap, data.X), data.y, lam=cfg.lam, feature_map=fmap)
        rng = np.random.default_rng(42)
        w = 0.0
        for _ in range(100):
            x = rng.normal(0.0, cfg.sigma_x / np.sqrt(cfg.n_f), cfg.n_f)
            z = apply_features(fmap, x)
            y_hat = float(z @ model.w_hat)
            xb, dy = prediction_decomposition(model, teacher, data, x)
            w = max(w, abs(y_hat - (xb + dy)) / (1.0 + abs(y_hat)))
        worst[activation] = w
    print(
        "criterion 6 (exact prediction decomposition): worst relative residual "
        + ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
        + " (bound 1e-8)"
    )
    for activation, w in worst.items():
        assert w <= 1e-8, f"{activation}: residual {w:.3e}"


def test_c07_bias_variance_identity(sweep):
    worst_t = 0.0
    for row in sweep.rows:
        gap = row.means["bias_sq"] + row.means["variance"] - row.means["geom_error"]
        se = np.hypot(
            np.hypot(row.standard_errors["bias_sq"], row.standard_errors["variance"]),
            row.standard_errors["geom_error"],
        )
        worst_t = max(worst_t, abs(gap) / se)
    print(
        f"criterion 7 (bias-variance identity): worst |bias^2 + var - geom| / "
        f"combined SE = {worst_t:.3e} (need <= 4)"
    )
    assert worst_t <= 4.0


def test_c08_relu_residual_independence():
    n = 100_000
    cfg = ExperimentConfig(m=16, n_f=6, n_p=8, activation="relu")
    fmap = make_feature_map(cfg, (0, 0, STREAM_WEIGHTS))
    beta = sample_teacher(cfg, (0, 0, STREAM_TEACHER))
    X = stream_rng(cfg.seed, (0, 0, STREAM_TEST)).normal(
        0.0, cfg.sigma_x / np.sqrt(cfg.n_f), (n, cfg.n_f)
    )
    lin = X @ fmap.W
    d_z = apply_features(fmap, X) - lin  # nonlinear feature residual

    prod = lin[:, :, None] * d_z[:, None, :]
    t_feat = prod.mean(axis=0) / (prod.std(axis=0, ddof=1) / np.sqrt(n))

    u = X @ beta
    d_y = 2.0 * np.maximum(0.0, u) - u  # nonlinear label residual
    prod_y = u * d_y
    t_label = prod_y.mean() / (prod_y.std(ddof=1) / np.sqrt(n))

    worst = max(float(np.max(np.abs(t_feat))), abs(float(t_label)))
    print(
        f"criterion 8 (independence of nonlinear residuals): worst |t| over "
        f"{t_feat.size} feature entries + label entry = {worst:.2f} (need < 4)"
    )
    assert worst < 4.0


def test_c09_perturbation_contrast():
    cfg = ExperimentConfig(
        m=256,
        n_f=307,  # 1.2 * 256, floored
        n_p=768,
        activation="relu",
        lam=1e-8,
        sigma_eps=sigma_eps_for_snr(10.0),
    )
    teacher = sample_teacher(cfg, (0, 0, STREAM_TEACHER))
    fmap = make_feature_map(cfg, (0, 0, STREAM_WEIGHTS))
    data = sample_dataset(cfg, teacher, (0, 0, STREAM_TRAIN))
    model = fit(apply_features(fmap, data.X), data.y, lam=cfg.lam, feature_map=fmap)
    analysis = analyze_operator(feature_operator_from_model(model, data.X))
    x0 = stream_rng(cfg.seed, (0, 0, STREAM_TEST)).normal(
        0.0, cfg.sigma_x / np.sqrt(cfg.n_f), cfg.n_f
    )
    responses, summary = perturbation_experiment(
        model, teacher, analysis, x0, cfg, n_pairs=200, eta=1e-2
    )
    assert summary["skipped_degenerate"] == 0

    adv, inv = (np.column_stack(responses[kind][1:]) for kind in ("adversarial", "invariant"))

    def corr(a):
        return float(np.corrcoef(a[:, 0], a[:, 1])[0, 1])

    diff = corr(adv) - corr(inv)
    boot = np.random.default_rng(12345)
    n_pairs = adv.shape[0]
    diffs = np.empty(2000)
    for b in range(2000):
        idx = boot.integers(0, n_pairs, n_pairs)
        diffs[b] = corr(adv[idx]) - corr(inv[idx])
    se = float(diffs.std(ddof=1))

    kernel_worst = max(float(np.linalg.norm(analysis.p_f @ d)) for d in responses["invariant"][0])
    print(
        f"criterion 9 (perturbation contrast): corr_adv - corr_inv = {diff:.4f}, "
        f"bootstrap SE = {se:.4f}, t = {diff / se:.2f} (need >= 4); worst "
        f"|P_f e_perp| = {kernel_worst:.2e} (bound 1e-10)"
    )
    assert diff > 0.0 and diff / se >= 4.0
    assert kernel_worst <= 1e-10


def test_c10_penrose_min_norm_suite():
    rng = np.random.default_rng(77)
    worst_penrose = 0.0
    for _ in range(100):
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 65))
        a = rng.normal(size=(rows, cols))
        g = pseudoinverse(a)
        ag, ga = a @ g, g @ a
        worst_penrose = max(
            worst_penrose,
            np.linalg.norm(a @ ga - a) / np.linalg.norm(a),
            np.linalg.norm(g @ ag - g) / np.linalg.norm(g),
            np.linalg.norm(ag.T - ag) / np.linalg.norm(ag),
            np.linalg.norm(ga.T - ga) / np.linalg.norm(ga),
        )

    worst_defect = 0.0  # how far below |w_hat| any interpolant ever lands
    for _ in range(10):
        rows = int(rng.integers(4, 25))
        cols = rows + int(rng.integers(5, 41))
        z = rng.normal(size=(rows, cols))
        y = rng.normal(size=rows)
        model = fit(z, y, lam=0.0)
        _, s, vt = np.linalg.svd(z, full_matrices=True)
        rank = int(np.sum(s > 1e-10 * s[0]))
        null_basis = vt[rank:]
        base_norm = np.linalg.norm(model.w_hat)
        for _ in range(100):
            c = rng.normal(size=null_basis.shape[0])
            w_alt = model.w_hat + null_basis.T @ c
            assert np.linalg.norm(z @ w_alt - y) <= 1e-8 * np.linalg.norm(y)
            worst_defect = max(worst_defect, (base_norm - np.linalg.norm(w_alt)) / base_norm)
    print(
        f"criterion 10 (pseudoinverse and min-norm suite): worst Penrose relative "
        f"error = {worst_penrose:.2e} (bound 1e-10); worst relative norm defect vs "
        f"kernel perturbations = {worst_defect:.2e} (must be <= 1e-10)"
    )
    assert worst_penrose <= 1e-10
    assert worst_defect <= 1e-10
