"""Sweep machinery: aggregation, grid handling, determinism, and workers."""
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
from dataclasses import replace
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
    draw_paired_replica,
    label_projector,
    run_bias_variance,
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


def _malloc_probe(*task):
    """Stands in for the replica kernel: sigma_max and theta_max_deg are the allocator thresholds here."""
    return {**dict.fromkeys(ALL_METRICS, 0.0), "sigma_max": float(os.environ["MALLOC_MMAP_THRESHOLD_"]),
            "theta_max_deg": float(os.environ["MALLOC_TRIM_THRESHOLD_"])}


def _pid_probe(*task):
    """Stands in for the replica kernel: every metric is the pid of the process that runs it."""
    return dict.fromkeys(ALL_METRICS, float(os.getpid()))


def _dropping_probe(config, grid_idx, replica_idx):
    """Stands in for the replica kernel: replica 0 raises and replica 1 returns a NaN variance."""
    if replica_idx == 0:
        raise georeg.NumericError("dropped on purpose")
    return {**dict.fromkeys(ALL_METRICS, 1.0), "variance": np.nan if replica_idx == 1 else 1.0}


def _pool_pids() -> set:
    """The pids of this process's live multiprocessing children, i.e. the kept pool's workers."""
    return {float(p.pid) for p in multiprocessing.active_children()}


def _served_pids(spec, workers) -> set:
    """The pids that ran the replicas of run_sweep(spec, workers) with _pid_probe as the kernel.

    The spec has one replica per grid point, so each row's mean is one worker's pid.
    """
    return {row.means["sigma_max"] for row in run_sweep(spec, workers=workers).rows}


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

    def test_equal_values_give_their_value_exactly(self):
        # np.mean of 100 copies of sqrt(128) rounds away from it
        x = float(np.sqrt(128))
        assert np.mean([x] * 100) != x
        assert summarize([x] * 100) == (x, 0.0)

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
        draws = [draw_paired_replica(replace(base, n_p=under.n_p), 0, r) for r in range(2)]
        formed = np.mean([
            np.linalg.norm(np.eye(base.m) - label_projector(apply_features(model.feature_map, train.X)).p_l)
            for d in draws
            for model, train in zip(d.models, d.trains)
        ])
        value = under.means["frob_I_minus_Pl"]
        assert value == pytest.approx(np.sqrt(base.m - under.n_p), rel=1e-12)
        assert value == pytest.approx(formed, rel=1e-12)
        assert over.means["frob_I_minus_Pl"] <= 1e-6

    def test_sweep_label_complement_is_exact_below_the_threshold(self):
        # a tall relu fit takes the Gram route, which forms no U, and reports
        # sqrt(M - rank) for the orthonormal kept columns of the thin SVD
        base = ExperimentConfig(m=64, n_f=16, n_p=64)
        rows = run_sweep(SweepSpec(base, np_over_m_grid=(0.25, 0.5, 0.75), n_replicas=5)).rows
        for row in rows:
            assert row.means["frob_I_minus_Pl"] == np.sqrt(base.m - row.n_p)
            assert row.standard_errors["frob_I_minus_Pl"] == 0.0


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

    def test_repeated_ratio_rejected(self):
        # a point's record is keyed by its ratio, so a repeat would overwrite the other's
        with pytest.raises(ConfigurationError, match="repeats the ratio 0.5"):
            SweepSpec(self._base(), np_over_m_grid=(0.5, 0.5, 2.0))
        with pytest.raises(ConfigurationError, match="repeats the ratio 1"):
            SweepSpec(self._base(), np_over_m_grid=(1, 2.0, 1.0))

    def test_zero_replicas_rejected(self):
        for n in (0, 2.5):
            with pytest.raises(ConfigurationError):
                SweepSpec(self._base(), np_over_m_grid=(1.0,), n_replicas=n)

    def test_normalize_must_be_a_bool(self):
        # "no" is truthy, so it would normalize
        for v in ("no", 0, 1, None, np.True_):
            with pytest.raises(ConfigurationError, match="normalize must be a bool"):
                SweepSpec(self._base(), (0.5,), 2, normalize=v)
        assert SweepSpec(self._base(), (0.5,), 2, normalize=True).normalize is True

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
        assert row.n_effective == 8
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

    def test_only_the_sweep_builds_feature_operators(self, monkeypatch):
        # the sweep builds each fit's P_f for analyze_operator; the one-sided
        # grid of georeg bias-variance reads P_f^T beta alone and builds none
        spec = SweepSpec(ExperimentConfig(m=16, n_f=4, n_p=16), np_over_m_grid=(0.5, 2.0), n_replicas=3)
        build, calls = experiments.feature_operator_from_model, []

        def counted(model, X):
            calls.append(X.shape)
            return build(model, X)

        monkeypatch.setattr(experiments, "feature_operator_from_model", counted)
        assert len(run_sweep(spec).rows) == 2
        assert len(calls) == 2 * 2 * 3

        def forbidden(model, X):
            raise AssertionError("P_f built")

        monkeypatch.setattr(experiments, "feature_operator_from_model", forbidden)
        result = run_bias_variance(spec)
        assert [row.n_effective for row in result.rows] == [3, 3]

    def test_serial_and_pooled_replicas_drop_through_one_guard(self, monkeypatch):
        spec = SweepSpec(ExperimentConfig(m=16, n_f=4, n_p=16), np_over_m_grid=(1.0, 2.0), n_replicas=20)
        monkeypatch.setattr(experiments, "_replica_metrics", _dropping_probe)
        reasons = {"NumericError: dropped on purpose": 1, "NumericError: non-finite replica metrics: variance": 1}
        for workers in (1, 2):
            result = run_sweep(spec, workers=workers)
            assert [row.n_effective for row in result.rows] == [18, 18]
            assert result.drop_reasons == {(1.0, 0.25): reasons, (2.0, 0.25): reasons}
            assert result.point_errors == {}

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
        # a tall and a wide grid point: run_sweep and run_bias_variance draw
        # the same replicas from one spec, fit them the same way, and bias_sq
        # is the same cross product in both reductions
        cfg = ExperimentConfig(m=32, n_f=8, n_p=16, activation="relu")
        spec = SweepSpec(cfg, np_over_m_grid=(0.5, 2.0), n_replicas=6, normalize=False)
        res, est = run_sweep(spec), run_bias_variance(spec)
        for grid_idx, n_p in ((0, 16), (1, 64)):
            row, bv = res.rows[grid_idx], est.rows[grid_idx]
            assert (row.n_p, row.n_f, row.n_effective) == (bv.n_p, bv.n_f, bv.n_effective) == (n_p, cfg.n_f, 6)
            assert row.means["bias_sq"] == bv.means["bias_sq"]
            assert row.standard_errors["bias_sq"] == bv.standard_errors["bias_sq"]


class TestKeptPool:
    """Pooled calls share one spawned pool per process, kept across calls."""

    SPEC = SweepSpec(ExperimentConfig(m=16, n_f=4, n_p=16), np_over_m_grid=(1.0, 2.0), n_replicas=2)
    # one replica per point, so that _pid_probe's rows name the workers
    PROBE_SPEC = SweepSpec(ExperimentConfig(m=16, n_f=4, n_p=16), np_over_m_grid=(0.5, 1.0, 1.5, 2.0), n_replicas=1)

    def test_consecutive_calls_reuse_the_workers(self, monkeypatch):
        first = run_sweep(self.SPEC, workers=2)
        assert run_sweep(self.SPEC, workers=2).rows == first.rows
        workers = _pool_pids()
        assert len(workers) == 2
        monkeypatch.setattr(experiments, "_replica_metrics", _pid_probe)
        served = _served_pids(self.PROBE_SPEC, 2) | _served_pids(self.PROBE_SPEC, 2)
        assert served <= workers
        assert _pool_pids() == workers

    def test_another_worker_count_replaces_the_pool(self, monkeypatch):
        monkeypatch.setattr(experiments, "_replica_metrics", _pid_probe)
        before = _served_pids(self.PROBE_SPEC, 2)
        served = _served_pids(self.PROBE_SPEC, 3)
        workers = _pool_pids()
        assert len(workers) == 3
        assert served <= workers
        assert not before & workers  # the 2-worker pool was shut down

    def test_broken_pool_is_discarded(self, monkeypatch):
        expected = run_sweep(self.SPEC).rows
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "_replica_metrics", _exit_worker)
            with pytest.raises(ExperimentError, match="replica pool died"):
                run_sweep(self.SPEC, workers=2)
        assert experiments._pool is None
        assert run_sweep(self.SPEC, workers=2).rows == expected

    def test_a_new_pid_gets_a_fresh_pool(self, monkeypatch):
        # a forked child inherits its parent's pool and must start its own
        run_sweep(self.SPEC, workers=2)
        kept, workers = experiments._pool, _pool_pids()
        parent_pid = os.getpid()
        monkeypatch.setattr(os, "getpid", lambda: parent_pid + 1)
        with experiments._pool_lock:
            fresh = experiments._kept_pool(2, {})
        assert fresh is not kept[0]
        assert experiments._pool == (fresh, 2, parent_pid + 1, {})
        # the child's pool never started a worker; drop it under the pid
        # that made it, so that its queues' finalizers run
        experiments._pool = kept
        del fresh
        monkeypatch.undo()
        assert _pool_pids() == workers  # the parent's pool was left running
        monkeypatch.setattr(experiments, "_replica_metrics", _pid_probe)
        assert _served_pids(self.PROBE_SPEC, 2) <= workers

    def test_fresh_and_reused_workers_run_blas_pinned(self, monkeypatch):
        # test_pool_workers_start_with_blas_pinned may run on a pool started
        # by an earlier test; this one starts its own under a 4-thread BLAS
        if experiments._pool is not None:
            experiments._discard_pool(experiments._pool[0])
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.setattr(experiments, "_replica_metrics", _blas_pinned_probe)
        for _ in range(2):
            for row in run_sweep(self.PROBE_SPEC, workers=2).rows:
                assert set(row.means.values()) == {1.0}
        assert len(_pool_pids()) == 2

    def test_workers_start_with_the_allocator_variables(self, monkeypatch):
        # each variable is set for the workers where the caller has not set
        # it, a caller's own value wins and starts a pool of its own, and
        # os.environ is left as it was found
        monkeypatch.delenv("MALLOC_MMAP_THRESHOLD_", raising=False)
        monkeypatch.delenv("MALLOC_TRIM_THRESHOLD_", raising=False)
        assert run_sweep(self.SPEC, workers=1).worker_malloc_vars is None
        monkeypatch.setattr(experiments, "_replica_metrics", _malloc_probe)
        for mmap, trim in ((None, None), ("1048576", None), (None, "2097152")):
            for name, value in (("MALLOC_MMAP_THRESHOLD_", mmap), ("MALLOC_TRIM_THRESHOLD_", trim)):
                if value is None:
                    monkeypatch.delenv(name, raising=False)
                else:
                    monkeypatch.setenv(name, value)
            expected = {"MALLOC_MMAP_THRESHOLD_": mmap or "33554432", "MALLOC_TRIM_THRESHOLD_": trim or "67108864"}
            before = dict(os.environ)
            result = run_sweep(self.PROBE_SPEC, workers=2)
            assert dict(os.environ) == before
            assert result.worker_malloc_vars == expected
            for row in result.rows:
                assert (row.means["sigma_max"], row.means["theta_max_deg"]) == tuple(map(float, expected.values()))

    def test_concurrent_callers_share_and_replace_the_pool(self, monkeypatch):
        # more calling threads than cores, at two worker counts, so that pools
        # are replaced while other callers' tasks are pending; every call must
        # still return the serial rows and leave os.environ as it found it
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        expected = run_sweep(self.SPEC).rows
        before = dict(os.environ)
        results, errors = [], []

        def call(workers):
            try:
                for _ in range(2):
                    results.append(run_sweep(self.SPEC, workers=workers).rows)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=call, args=(w,)) for w in (2, 3, 2, 3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert results == [expected] * 8
        assert dict(os.environ) == before

    def test_two_pooled_sweeps_exit_cleanly_in_dev_mode(self, tmp_path):
        # the kept pool's workers are joined at exit without a warning
        script = tmp_path / "guarded.py"
        script.write_text(textwrap.dedent("""
            from georeg import ExperimentConfig, SweepSpec, run_sweep
            if __name__ == "__main__":
                spec = SweepSpec(ExperimentConfig(m=16, n_f=4, n_p=16), np_over_m_grid=(1.0, 2.0), n_replicas=2)
                assert run_sweep(spec, workers=2).rows == run_sweep(spec, workers=2).rows
        """))
        src = Path(georeg.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", str(script)],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_a_test_process_with_a_kept_pool_exits_cleanly(self, tmp_path):
        # the pool modules are imported after georeg; in a pytest process that
        # also ran a hypothesis test, the kept pool used to be collected after
        # they were unloaded, and its finalizer printed an AttributeError
        (tmp_path / "test_kept_pool.py").write_text(textwrap.dedent("""
            from hypothesis import given, settings, strategies as st
            from georeg import ExperimentConfig, SweepSpec, run_sweep

            @settings(max_examples=5, database=None)
            @given(st.integers(1, 3))
            def test_property(n):
                assert n > 0

            def test_pooled():
                spec = SweepSpec(ExperimentConfig(m=16, n_f=4, n_p=16), np_over_m_grid=(1.0, 2.0), n_replicas=2)
                assert run_sweep(spec, workers=2).rows == run_sweep(spec, workers=2).rows
        """))
        src = Path(georeg.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-X", "dev", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "test_kept_pool.py"], cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stdout
        assert "Exception ignored" not in proc.stderr + proc.stdout, proc.stderr
