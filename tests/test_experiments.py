"""Sweep machinery: aggregation, grid handling, determinism, and workers."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import georeg
from georeg import (
    ALL_METRICS,
    ConfigurationError,
    ExperimentConfig,
    ExperimentError,
    ShapeError,
    SweepSpec,
    analyze_operator,
    apply_features,
    bias_variance_mc,
    draw_paired_replica,
    label_projector,
    run_sweep,
    summarize,
)
from georeg import experiments


def _exit_worker(*task):
    """Stands in for the replica kernel: the pool worker that runs it dies."""
    os._exit(1)


def _blas_pinned_probe(*task):
    """Stands in for the replica kernel: every metric is 1.0 iff BLAS is pinned to one thread here."""
    pinned = all(os.environ.get(name) == "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    return dict.fromkeys(ALL_METRICS, float(pinned))


class TestSummarize:
    def test_single_value(self):
        assert summarize([5.0]) == (5.0, 0.0)

    def test_two_values(self):
        mean, se = summarize([1.0, 3.0])
        assert mean == 2.0
        assert se == pytest.approx(1.0)  # sd sqrt(2), / sqrt(2)

    def test_constant_values(self):
        mean, se = summarize([2.5, 2.5, 2.5])
        assert mean == 2.5
        assert se == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])


class TestFrobeniusComplements:
    def test_identity_is_zero(self):
        assert analyze_operator(np.eye(4)).frob_I_minus_Pf == 0.0
        assert analyze_operator(np.eye(6)).frob_I_minus_Pf == 0.0

    def test_zero_matrix_is_sqrt_n(self):
        # rank 0 keeps no mode, but |I - P_f|_F still measures the operator
        assert analyze_operator(np.zeros((9, 9))).frob_I_minus_Pf == pytest.approx(3.0)
        assert analyze_operator(np.zeros((4, 4))).frob_I_minus_Pf == pytest.approx(2.0)

    def test_rank_one_oracle(self):
        assert analyze_operator(np.diag([1.0, 0.0])).frob_I_minus_Pf == pytest.approx(1.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            analyze_operator(np.zeros((2, 3))).frob_I_minus_Pf

    def test_sweep_label_complement(self):
        # relu Z has full column rank N_p: below the threshold |I - P_l|_F is
        # sqrt(M - N_p) exactly; past it P_l = I and only round-off remains
        base = ExperimentConfig(m=32, n_f=8, n_p=32)
        under, over = run_sweep(SweepSpec(base, np_over_m_grid=(0.5, 2.0), n_replicas=2)).rows
        draws = [draw_paired_replica(base.with_updates(n_p=under.n_p), 0, r) for r in range(2)]
        formed = np.mean([
            np.linalg.norm(np.eye(base.m) - label_projector(apply_features(d.feature_map, train.X)).p_l)
            for d in draws
            for train in (d.train_1, d.train_2)
        ])
        value = under.means["frob_I_minus_Pl"]
        assert value == pytest.approx(np.sqrt(base.m - under.n_p), rel=1e-12)
        assert value == pytest.approx(formed, rel=1e-12)
        assert over.means["frob_I_minus_Pl"] <= 1e-6


class TestSweepSpec:
    def _base(self, **kw):
        return ExperimentConfig(m=32, n_f=8, n_p=32, **kw)

    def test_coerces_grids_to_tuples(self):
        spec = SweepSpec(self._base(), np_over_m_grid=[0.5, 1.0])
        assert spec.np_over_m_grid == (0.5, 1.0)

    def test_empty_np_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(self._base(), np_over_m_grid=())

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(self._base(), np_over_m_grid=(0.5, -1.0))

    def test_zero_replicas_rejected(self):
        for n in (0, 2.5):
            with pytest.raises(ConfigurationError):
                SweepSpec(self._base(), np_over_m_grid=(1.0,), n_replicas=n)

    def test_grid_points_np_major_with_default_nf(self):
        # rows follow the N_p/M grid in its given order, at the base N_f/M
        rows = run_sweep(SweepSpec(self._base(), np_over_m_grid=(2.0, 0.5), n_replicas=2)).rows
        assert [(r.np_over_m, r.nf_over_m, r.n_p, r.n_f) for r in rows] == [
            (2.0, 8 / 32, 64, 8),
            (0.5, 8 / 32, 16, 8),
        ]


@pytest.fixture(scope="module")
def small_result():
    spec = SweepSpec(
        ExperimentConfig(m=32, n_f=8, n_p=32, activation="relu"),
        np_over_m_grid=(0.5, 1.0, 2.0),
        n_replicas=8,
    )
    return spec, run_sweep(spec)


class TestRunSweep:
    def test_row_metadata(self, small_result):
        spec, res = small_result
        assert len(res.rows) == 3
        assert res.point_errors == {}
        row = res.rows[1]
        assert row.np_over_m == 1.0
        assert row.n_p == 32 and row.n_f == 8
        assert row.n_effective == 8 and row.n_dropped == 0
        assert set(row.means) == set(ALL_METRICS)
        assert res.elapsed_seconds > 0.0

    def test_deterministic(self, small_result):
        spec, res = small_result
        again = run_sweep(spec)
        for r1, r2 in zip(res.rows, again.rows):
            assert r1.means == r2.means
            assert r1.standard_errors == r2.standard_errors

    def test_worker_count_invariance(self, small_result):
        spec, res = small_result
        parallel = run_sweep(spec, workers=2)
        for r1, r2 in zip(res.rows, parallel.rows):
            assert r1.means == r2.means

    def test_bias_variance_telescopes_per_row(self, small_result):
        _, res = small_result
        for row in res.rows:
            gap = row.means["bias_sq"] + row.means["variance"] - row.means["geom_error"]
            assert abs(gap) <= 1e-12 * max(1.0, row.means["geom_error"])

    def test_train_error_shrinks_past_interpolation(self, small_result):
        _, res = small_result
        train = {row.np_over_m: row.means["train_error"] for row in res.rows}
        assert train[2.0] < train[0.5]

    def test_normalize_rescales_error_metrics(self, small_result):
        # same single-point grid for both runs so the replica streams match
        spec, _ = small_result
        kw = dict(np_over_m_grid=(1.0,), n_replicas=8)
        raw = run_sweep(SweepSpec(spec.base_config, **kw))
        normed = run_sweep(SweepSpec(spec.base_config, normalize=True, **kw))
        raw_row = raw.rows[0]
        n_row = normed.rows[0]
        s = spec.base_config.sigma_y_sq
        assert n_row.means["test_error"] == pytest.approx(raw_row.means["test_error"] / s)
        assert n_row.means["variance"] == pytest.approx(raw_row.means["variance"] / s)
        # angles are not rescaled
        assert n_row.means["theta_max_deg"] == pytest.approx(raw_row.means["theta_max_deg"])
        assert normed.normalized is True

    def test_infeasible_identity_point_recorded(self):
        spec = SweepSpec(
            ExperimentConfig(m=32, n_f=8, n_p=8, activation="identity", lam=0.0),
            np_over_m_grid=(0.25, 1.0),
            n_replicas=3,
        )
        res = run_sweep(spec)
        assert len(res.rows) == 1
        assert res.rows[0].np_over_m == 0.25
        assert (1.0, 0.25) in res.point_errors
        assert "identity" in res.point_errors[(1.0, 0.25)]

    def test_pooled_run_leaves_environ_unchanged(self, monkeypatch):
        spec = SweepSpec(ExperimentConfig(m=16, n_f=4, n_p=16), np_over_m_grid=(1.0,), n_replicas=2)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        before = dict(os.environ)
        assert run_sweep(spec, workers=2).worker_blas_threads == 1
        assert dict(os.environ) == before
        monkeypatch.setattr(experiments, "_replica_metrics", _exit_worker)
        with pytest.raises(ExperimentError):
            run_sweep(spec, workers=2)
        assert dict(os.environ) == before

    def test_pool_workers_start_with_blas_pinned(self, monkeypatch):
        spec = SweepSpec(ExperimentConfig(m=16, n_f=4, n_p=16), np_over_m_grid=(1.0, 2.0), n_replicas=2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.setattr(experiments, "_replica_metrics", _blas_pinned_probe)
        for row in run_sweep(spec, workers=2).rows:
            assert set(row.means.values()) == {1.0}

    def test_unguarded_script_gets_a_typed_error(self, tmp_path):
        # a spawned worker re-imports the script, whose unguarded sweep then
        # fails in the worker and breaks the pool
        script = tmp_path / "unguarded.py"
        script.write_text(textwrap.dedent("""
            from georeg import ExperimentConfig, ExperimentError, SweepSpec, run_sweep
            spec = SweepSpec(ExperimentConfig(m=16, n_f=4, n_p=16), np_over_m_grid=(1.0,), n_replicas=2)
            try:
                run_sweep(spec, workers=2)
            except ExperimentError as exc:
                print("ExperimentError:", exc)
        """))
        src = Path(georeg.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert "ExperimentError:" in proc.stdout, proc.stderr
        assert 'if __name__ == "__main__":' in proc.stdout

    def test_bad_worker_count(self, small_result):
        spec, _ = small_result
        with pytest.raises(ConfigurationError):
            run_sweep(spec, workers=0)

    def test_non_integer_workers_is_a_configuration_error(self, small_result):
        # a non-integer count raises before any pool starts
        spec, _ = small_result
        with pytest.raises(ConfigurationError):
            run_sweep(spec, workers=2.5)

    def test_sweep_and_mc_reduce_the_same_cross_product(self):
        # one grid point: the sweep's replica streams are bias_variance_mc's at
        # grid_idx 0, and bias_sq is the same cross product in both reductions
        cfg = ExperimentConfig(m=32, n_f=8, n_p=16, activation="relu")
        res = run_sweep(SweepSpec(cfg, np_over_m_grid=(0.5,), n_replicas=6, normalize=False))
        est = bias_variance_mc(cfg, 6, grid_idx=0)
        row = res.rows[0]
        assert (row.n_p, row.n_f, row.n_effective) == (cfg.n_p, cfg.n_f, 6)
        assert row.means["bias_sq"] == est.bias_squared
        assert row.standard_errors["bias_sq"] == est.standard_errors["bias_squared"]
