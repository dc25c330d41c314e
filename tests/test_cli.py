"""End-to-end CLI runs (in-process): outputs, manifests, and exit codes."""
import argparse
import csv
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import georeg
from georeg.cli import _DEFAULTS, _Outputs, _resolve, main
from georeg.config import sigma_eps_for_snr


def _run(*argv):
    return main(list(argv))


def _sweep_args(out, **over):
    base = {
        "--model": "relu",
        "--m": "32",
        "--nf-ratio": "0.25",
        "--np-grid": "0.5,1",
        "--replicas": "4",
        "--out": str(out),
    }
    base.update(over)
    argv = ["sweep"]
    for k, v in base.items():
        if v is None:
            argv.append(k)
        else:
            argv += [k, v]
    return argv


class TestResolve:
    def _ns(self, **kw):
        ns = argparse.Namespace(config=None)
        for key in _DEFAULTS:
            setattr(ns, key, None)
        for k, v in kw.items():
            setattr(ns, k, v)
        return ns

    def test_missing_model_is_usage_error(self):
        from georeg import ConfigurationError

        with pytest.raises(ConfigurationError, match="--model is required"):
            _resolve(self._ns())

    def test_config_file_between_preset_and_flags(self, tmp_path):
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps({"m": 16, "replicas": 3}))
        p = _resolve(self._ns(config=str(cfg), model="relu"))
        assert p["m"] == 16 and p["replicas"] == 3
        q = _resolve(self._ns(config=str(cfg), model="relu", m=24))
        assert q["m"] == 24  # explicit flag wins

    def test_unknown_config_key_rejected(self, tmp_path):
        from georeg import ConfigurationError

        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            _resolve(self._ns(config=str(cfg), model="relu"))


@pytest.mark.parametrize(
    "content",
    ['{"replicas": "abc"}', '{"lam": null}', "5", '["m"]', '{"m": 16.7}', '{"lam": NaN}', '{"lam": Infinity}'],
    ids=["non-numeric", "null", "scalar", "list", "non-integral", "nan", "inf-lambda"],
)
def test_malformed_config_exits_2(tmp_path, capsys, content):
    cfg = tmp_path / "params.json"
    cfg.write_text(content)
    argv = ["sweep", "--model", "relu", "--np-grid", "1", "--replicas", "2",
            "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["config-sigma_x", "preset"])
def test_removed_parameter_sources_exit_2(tmp_path, source):
    # sigma_x, sigma_beta, sigma_w and m_test have no key, and there are no presets
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"sigma_x": 1.0}))
    extra = ["--config", str(cfg)] if source == "config-sigma_x" else ["--preset", "desk"]
    argv = ["angles", "--model", "linear", "--m", "16", *extra, "--out", str(tmp_path / "out")]
    assert main(argv) == 2


@pytest.mark.parametrize("command", ["sweep", "bias-variance", "angles", "perturb"])
def test_unusable_out_exits_2_before_computing(tmp_path, capsys, monkeypatch, command):
    import georeg.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("computed before the output directory was checked")

    for name in ("run_sweep", "run_bias_variance", "fit"):  # the grid runners of sweep and bias-variance
        monkeypatch.setattr(cli, name, never)
    taken = tmp_path / "a-file"
    taken.write_text("")
    assert main([command, "--model", "linear", "--m", "32", "--out", str(taken)]) == 2
    assert "cannot create output directory" in capsys.readouterr().err


def test_repeated_main_calls_write_what_fresh_processes_write(tmp_path):
    # the parser is built once per process; a second call must not see the
    # first call's flags
    runs = {"first": ["--plot", "--seed", "5"], "second": []}
    argv = ["perturb", "--model", "relu", "--m", "32", "--nf-ratio", "1.5", "--np-ratio", "3", "--pairs", "20"]
    env = {**os.environ, "PYTHONPATH": str(Path(georeg.__file__).resolve().parents[1])}
    for name, extra in runs.items():
        assert main([*argv, *extra, "--out", str(tmp_path / "in-process" / name)]) == 0
    for name, extra in runs.items():
        subprocess.run([sys.executable, "-m", "georeg.cli", *argv, *extra, "--out", str(tmp_path / "fresh" / name)],
                       env=env, check=True, capture_output=True, timeout=120)
    for name in runs:
        here, fresh = tmp_path / "in-process" / name, tmp_path / "fresh" / name
        files = sorted(p.name for p in fresh.iterdir())
        assert sorted(p.name for p in here.iterdir()) == files
        assert ("perturb.svg" in files) == (name == "first")
        for file in files:
            if file == "manifest.json":
                got, want = (json.loads((d / file).read_text()) for d in (here, fresh))
                assert got.pop("timestamp") and want.pop("timestamp")
                assert got == want
            else:
                assert (here / file).read_bytes() == (fresh / file).read_bytes(), (name, file)


def test_angles_and_a_one_worker_sweep_load_no_pool_module_and_no_scipy(tmp_path):
    # the README's promise, checked in a fresh interpreter: the pool modules
    # are imported by the first pooled call only, and scipy never
    script = (
        "import sys\n"
        "from georeg.cli import main\n"
        "out = sys.argv[1]\n"
        "assert main(['angles', '--model', 'linear', '--m', '32', '--out', out + '/angles']) == 0\n"
        "assert main(['sweep', '--model', 'relu', '--m', '32', '--np-grid', '0.5,1', '--replicas', '4',\n"
        "             '--workers', '1', '--out', out + '/sweep']) == 0\n"
        "names = ('multiprocessing', 'concurrent.futures', 'scipy')\n"
        "print(sorted(m for m in sys.modules if m in names or m.startswith(tuple(n + '.' for n in names))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(georeg.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "[]"


# each command with its plot flag where it has one, at a small M
_RERUNS = {
    "sweep": ["--model", "relu", "--np-grid", "0.5,1", "--replicas", "4", "--normalize", "--plot"],
    "bias-variance": ["--model", "relu", "--np-grid", "0.5,1", "--replicas", "4", "--plot"],
    "angles": ["--model", "linear", "--np-ratio", "2"],
    "perturb": ["--model", "relu", "--nf-ratio", "1.5", "--np-ratio", "3", "--pairs", "20", "--plot"],
}


@pytest.mark.parametrize("command", sorted(_RERUNS))
def test_manifest_reproduces_every_output(tmp_path, command):
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([command, "--m", "32", *_RERUNS[command], "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    cfg = tmp_path / "resolved.json"
    cfg.write_text(json.dumps(manifest["resolved_config"]))
    assert main([command, "--config", str(cfg), "--out", str(again)]) == 0
    names = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in again.iterdir() if p.name != "manifest.json")
    assert len(names) == len(manifest["output_paths"]) - 1
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_infinite_snr_manifest_is_strict_json_and_reproduces(tmp_path):
    # --snr inf is noise-free; the manifest writes it as "inf", which the
    # config file reads back
    def strict(name):
        raise ValueError(f"{name} in the manifest")

    first, again = tmp_path / "first", tmp_path / "again"
    argv = ["angles", "--model", "linear", "--m", "32", "--snr", "inf"]
    assert main([*argv, "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text(), parse_constant=strict)
    assert manifest["resolved_config"]["snr"] == "inf"
    cfg = tmp_path / "resolved.json"
    cfg.write_text(json.dumps(manifest["resolved_config"]))
    assert main(["angles", "--config", str(cfg), "--out", str(again)]) == 0
    assert (first / "angles.json").read_bytes() == (again / "angles.json").read_bytes()
    assert json.loads((again / "manifest.json").read_text(), parse_constant=strict)["resolved_config"] == manifest["resolved_config"]


@pytest.mark.parametrize("command", sorted(_RERUNS))
def test_manifest_records_environment(tmp_path, command):
    assert main([command, "--m", "32", *_RERUNS[command], "--out", str(tmp_path)]) == 0
    env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
    assert env["georeg"] == georeg.__version__
    assert env["numpy"] == np.__version__
    assert env["python"] == platform.python_version()
    if tuple(int(v) for v in np.__version__.split(".")[:2]) >= (1, 25):
        assert isinstance(env["blas"], str) and env["blas"]
    else:
        assert env["blas"] is None


def test_manifest_blas_is_null_without_show_config_mode(tmp_path, monkeypatch):
    import georeg.cli as cli

    monkeypatch.setattr(cli.np, "show_config", lambda: None)  # numpy < 1.25 takes no mode
    assert main(["angles", "--model", "linear", "--m", "16", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["environment"]["blas"] is None


class TestSweepCommand:
    def test_outputs_and_manifest(self, tmp_path):
        assert _run(*_sweep_args(tmp_path)) == 0
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["np_over_m"] == "0.5"
        assert float(rows[1]["train_error"]) < float(rows[0]["train_error"]) * 10
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["seed"] == 2
        assert manifest["resolved_config"]["m"] == 32
        assert set(manifest["output_paths"]) == {"sweep.csv", "manifest.json"}
        assert "timestamp" in manifest

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run(*_sweep_args(a)) == 0
        assert _run(*_sweep_args(b)) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_missing_model_exits_2(self, tmp_path, capsys):
        argv = _sweep_args(tmp_path)
        i = argv.index("--model")
        del argv[i : i + 2]
        assert main(argv) == 2
        assert "--model is required" in capsys.readouterr().err

    def test_infeasible_identity_point_warns_but_succeeds(self, tmp_path, capsys):
        argv = _sweep_args(tmp_path, **{"--model": "identity", "--np-grid": "0.25,1"})
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "np_over_m=1.0" in err and "identity" in err
        with open(tmp_path / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["np_over_m"] == "0.25"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["point_errors"]

    def test_all_points_failing_exits_2(self, tmp_path):
        argv = _sweep_args(tmp_path, **{"--model": "identity", "--np-grid": "1,2"})
        assert main(argv) == 2

    @pytest.mark.parametrize("command", ["sweep", "bias-variance"])
    def test_repeated_grid_ratio_exits_2(self, tmp_path, capsys, command):
        # each point's record in the manifest is keyed by its ratio
        argv = _sweep_args(tmp_path, **{"--np-grid": "0.5,0.5,2", "--replicas": "3", "--workers": "1"})
        assert main([command, *argv[1:]]) == 2
        assert "repeats the ratio 0.5" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_plot_is_deterministic_and_untimestamped(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run(*_sweep_args(a, **{"--plot": None})) == 0
        assert _run(*_sweep_args(b, **{"--plot": None})) == 0
        svg_a = (a / "sweep.svg").read_bytes()
        assert svg_a == (b / "sweep.svg").read_bytes()
        text = svg_a.decode()
        assert text.startswith("<svg")
        assert "20" + "26" not in text  # no dates baked in
        manifest = json.loads((a / "manifest.json").read_text())
        assert "sweep.svg" in manifest["output_paths"]

    def test_manifest_records_workers(self, tmp_path):
        assert _run(*_sweep_args(tmp_path / "default")) == 0
        manifest = json.loads((tmp_path / "default" / "manifest.json").read_text())
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert manifest["workers"] == cpus
        assert manifest["worker_blas_threads"] == (1 if cpus > 1 else None)
        assert manifest["blas_thread_vars"] == {
            name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        }
        assert manifest["resolved_config"]["workers"] is None  # a rerun resolves it afresh

        assert _run(*_sweep_args(tmp_path / "serial", **{"--workers": "1"})) == 0
        manifest = json.loads((tmp_path / "serial" / "manifest.json").read_text())
        assert manifest["workers"] == 1
        assert manifest["worker_blas_threads"] is None

    def test_outputs_identical_across_worker_counts(self, tmp_path):
        # pool workers run BLAS at one thread, so the serial run must too
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(georeg.__file__).resolve().parents[1])}
        for workers in ("1", "2"):
            argv = _sweep_args(tmp_path / workers, **{"--workers": workers, "--plot": None})
            subprocess.run([sys.executable, "-m", "georeg.cli", *argv], env=env, check=True,
                           capture_output=True, timeout=120)
        assert json.loads((tmp_path / "2" / "manifest.json").read_text())["worker_blas_threads"] == 1
        for name in ("sweep.csv", "sweep.svg"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


class TestBiasVarianceCommand:
    def test_outputs(self, tmp_path):
        assert (
            _run(
                "bias-variance", "--model", "relu", "--m", "32", "--nf-ratio", "0.25",
                "--np-grid", "0.5,1", "--replicas", "4", "--out", str(tmp_path),
            )
            == 0
        )
        with open(tmp_path / "bias_variance.csv") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == [
            "np_over_m", "nf_over_m",
            "geom_error", "bias_sq", "variance", "test_error", "train_error",
            "se_geom_error", "se_bias_sq", "se_variance", "se_test_error", "se_train_error",
        ]
        assert len(rows) == 2
        assert all(len(r) == 12 for r in rows)

    def test_single_replica_exits_2(self, tmp_path):
        code = _run(
            "bias-variance", "--model", "relu", "--m", "32", "--nf-ratio", "0.25",
            "--np-grid", "1", "--replicas", "1", "--out", str(tmp_path),
        )
        assert code == 2

    def test_normalize_rescales(self, tmp_path):
        common = [
            "bias-variance", "--model", "relu", "--m", "32", "--nf-ratio", "0.25",
            "--np-grid", "1", "--replicas", "4",
        ]
        assert _run(*common, "--out", str(tmp_path / "raw")) == 0
        assert _run(*common, "--normalize", "--out", str(tmp_path / "norm")) == 0

        def first_row(d):
            with open(d / "bias_variance.csv") as fh:
                return next(csv.DictReader(fh))

        raw, norm = first_row(tmp_path / "raw"), first_row(tmp_path / "norm")
        sigma_y_sq = 1.0 + 0.1  # sigma_x^2 sigma_beta^2 + sigma_y^2/snr at snr 10
        ratio = float(raw["test_error"]) / float(norm["test_error"])
        assert ratio == pytest.approx(sigma_y_sq, rel=1e-12)


def _bv_args(out, *extra):
    return ["bias-variance", "--model", "relu", "--m", "32", "--nf-ratio", "0.25",
            "--np-grid", "0.5,1", *extra, "--out", str(out)]


def _dropped(manifest):
    """The dropped replicas of each grid point: the sum of its drop_reasons counts."""
    return {point: sum(reasons.values()) for point, reasons in manifest["drop_reasons"].items()}


def _fail_replica(bad):
    """A draw_paired_replica that raises NumericError for the (grid_idx, replica_idx) pairs in bad."""
    draw = georeg.decomposition.draw_paired_replica

    def patched(config, grid_idx, replica_idx):
        if (grid_idx, replica_idx) in bad:
            raise georeg.NumericError("degenerate on purpose")
        return draw(config, grid_idx, replica_idx)

    return patched


class TestBiasVarianceReplicaRunner:
    """bias-variance runs its replicas through the sweep's grid runner and pool."""

    @pytest.mark.parametrize("command", ["sweep", "bias-variance"])
    def test_manifest_records_the_workers_allocator_variables(self, tmp_path, monkeypatch, command):
        # the pool workers' glibc settings; the caller's own value wins, and
        # an in-process run records null
        monkeypatch.delenv("MALLOC_MMAP_THRESHOLD_", raising=False)
        monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "1048576")
        expected = {"2": {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "1048576"}, "1": None}
        for workers, malloc_vars in expected.items():
            argv = _bv_args(tmp_path / workers, "--replicas", "2", "--workers", workers)
            assert _run(command, *argv[1:]) == 0
            manifest = json.loads((tmp_path / workers / "manifest.json").read_text())
            assert manifest["worker_malloc_vars"] == malloc_vars

    def test_outputs_identical_across_worker_counts(self, tmp_path):
        # pool workers run BLAS at one thread, so the serial run must too
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(georeg.__file__).resolve().parents[1])}
        for workers in ("1", "2"):
            argv = _bv_args(tmp_path / workers, "--replicas", "4", "--workers", workers)
            subprocess.run([sys.executable, "-m", "georeg.cli", *argv], env=env, check=True,
                           capture_output=True, timeout=120)
        manifests = [json.loads((tmp_path / w / "manifest.json").read_text()) for w in ("1", "2")]
        assert [(m["workers"], m["worker_blas_threads"]) for m in manifests] == [(1, None), (2, 1)]
        assert manifests[1]["blas_thread_vars"]["OPENBLAS_NUM_THREADS"] == "1"
        name = "bias_variance.csv"
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_rows_equal_bias_variance_mc(self, tmp_path):
        # the command's rows are run_bias_variance's on the same spec
        assert _run(*_bv_args(tmp_path, "--replicas", "5", "--workers", "1")) == 0
        with open(tmp_path / "bias_variance.csv") as fh:
            rows = list(csv.DictReader(fh))
        cfg = georeg.ExperimentConfig(m=32, n_f=8, n_p=32, activation="relu", sigma_eps=sigma_eps_for_snr(10.0))
        est = georeg.run_bias_variance(georeg.SweepSpec(cfg, (0.5, 1.0), 5)).rows
        assert len(rows) == len(est) == 2
        for row, want in zip(rows, est):
            assert float(row["np_over_m"]) == want.np_over_m
            for col in georeg.decomposition._PAIRED_METRICS:
                assert float(row[col]) == want.means[col], col
                assert float(row[f"se_{col}"]) == want.standard_errors[col], col

    def test_single_drop_keeps_the_point(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(georeg.decomposition, "draw_paired_replica", _fail_replica({(0, 3)}))
        assert _run(*_bv_args(tmp_path, "--replicas", "10", "--workers", "1")) == 0
        with open(tmp_path / "bias_variance.csv") as fh:
            assert len(list(csv.reader(fh))) == 3
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert _dropped(manifest) == {"0.5,0.25": 1, "1.0,0.25": 0}
        assert manifest["point_errors"] == {}
        assert capsys.readouterr().err == ""

    def test_more_than_ten_percent_dropped_fails_the_point(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(georeg.decomposition, "draw_paired_replica", _fail_replica({(1, 0), (1, 7)}))
        assert _run(*_bv_args(tmp_path, "--replicas", "10", "--workers", "1")) == 0
        with open(tmp_path / "bias_variance.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["np_over_m"] for r in rows] == ["0.5"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["point_errors"] == {"1.0,0.25": "2/10 replicas degenerate"}
        # the failed point keeps its reason counts
        assert manifest["drop_reasons"] == {"0.5,0.25": {}, "1.0,0.25": {TestDropReasons.REASON: 2}}
        assert "np_over_m=1.0 nf_over_m=0.25 failed: 2/10 replicas degenerate" in capsys.readouterr().err


class TestDropReasons:
    """The manifests of sweep and bias-variance count each kept point's drop reasons."""

    REASON = "NumericError: degenerate on purpose"

    def test_bias_variance(self, tmp_path, monkeypatch):
        monkeypatch.setattr(georeg.decomposition, "draw_paired_replica", _fail_replica({(0, 3), (0, 8)}))
        assert _run(*_bv_args(tmp_path, "--replicas", "20", "--workers", "1")) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["drop_reasons"] == {"0.5,0.25": {self.REASON: 2}, "1.0,0.25": {}}
        assert _dropped(manifest) == {"0.5,0.25": 2, "1.0,0.25": 0}
        # bias_variance.csv has no n_effective column: the library's rows of
        # the same spec, drawn under the same patch, carry it
        cfg = georeg.ExperimentConfig(m=32, n_f=8, n_p=32, activation="relu", sigma_eps=sigma_eps_for_snr(10.0))
        rows = georeg.run_bias_variance(georeg.SweepSpec(cfg, (0.5, 1.0), 20)).rows
        assert [20 - row.n_effective for row in rows] == list(_dropped(manifest).values())

    def test_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setattr(georeg.experiments, "draw_paired_replica", _fail_replica({(1, 5)}))
        assert _run(*_sweep_args(tmp_path, **{"--replicas": "10", "--workers": "1"})) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["drop_reasons"] == {"0.5,0.25": {}, "1.0,0.25": {self.REASON: 1}}
        assert _dropped(manifest) == {"0.5,0.25": 0, "1.0,0.25": 1}
        # both points are kept, in grid order: each row's n_effective is the
        # replicas less that point's drops
        with open(tmp_path / "sweep.csv") as fh:
            kept = [10 - int(row["n_effective"]) for row in csv.DictReader(fh)]
        assert kept == list(_dropped(manifest).values())


class TestAnglesCommand:
    def test_identity_family_json(self, tmp_path):
        # lambda 0: the exact min-norm operator (ridge damping perturbs
        # sigma by ~lambda and sends the phase of near-zero-angle modes
        # toward -90 degrees, which is real but not what this test checks)
        code = _run(
            "angles", "--model", "identity", "--m", "16", "--nf-ratio", "0.25",
            "--np-ratio", "0.25", "--lambda", "0", "--out", str(tmp_path),
        )
        assert code == 0
        data = json.loads((tmp_path / "angles.json").read_text())
        assert data["theta_max_deg"] <= 1e-6
        assert all(abs(s - 1.0) <= 1e-10 for s in data["sigma"])
        assert all(abs(d) <= 1e-6 for d in data["delta_phi_deg"])

    def test_linear_family_json(self, tmp_path):
        code = _run(
            "angles", "--model", "linear", "--m", "16", "--nf-ratio", "0.5",
            "--np-ratio", "2", "--lambda", "0", "--out", str(tmp_path),
        )
        assert code == 0
        data = json.loads((tmp_path / "angles.json").read_text())
        import numpy as np

        for s, t, d in zip(data["sigma"], data["theta_deg"], data["delta_phi_deg"]):
            assert abs(s * np.cos(np.radians(t)) - 1.0) <= 1e-8
            assert abs(d) <= 1e-6
        assert data["frob_I_minus_Pf"] > 0.0


class TestPerturbCommand:
    def test_outputs_with_defaults(self, tmp_path):
        code = _run(
            "perturb", "--model", "relu", "--m", "32", "--nf-ratio", "1.5",
            "--np-ratio", "3", "--out", str(tmp_path),
        )
        assert code == 0
        summary = json.loads((tmp_path / "perturb_summary.json").read_text())
        assert summary["n_pairs"] == 200 and summary["eta"] == 1e-2
        assert summary["skipped_degenerate"] == 0
        assert summary["n_adversarial"] == summary["n_invariant"] == 200
        with open(tmp_path / "perturb.csv") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["kind", "d_y_true", "d_y_pred"]
            rows = list(reader)
        # the same single point through the library: the rows are its
        # response arrays, interleaved per kept pair, adversarial first,
        # and every cell reads back to its array value exactly
        cfg = georeg.ExperimentConfig(m=32, n_f=48, n_p=96, activation="relu", sigma_eps=sigma_eps_for_snr(10.0))
        beta = georeg.sample_teacher(cfg, (0, 0, georeg.STREAM_TEACHER))
        fmap = georeg.make_feature_map(cfg, (0, 0, georeg.STREAM_WEIGHTS))
        data = georeg.sample_dataset(cfg, beta, (0, 0, georeg.STREAM_TRAIN))
        model = georeg.fit(georeg.apply_features(fmap, data.X), data.y, lam=cfg.lam, feature_map=fmap)
        analysis = georeg.analyze_operator(georeg.feature_operator_from_model(model, data.X))
        x0 = georeg.stream_rng(cfg.seed, (0, 0, georeg.STREAM_TEST)).normal(0.0, 1 / np.sqrt(cfg.n_f), cfg.n_f)
        responses, _ = georeg.perturbation_experiment(model, beta, analysis, x0, cfg.seed)
        expected = [
            (kind, responses[kind][1][i], responses[kind][2][i])
            for i in range(200)
            for kind in ("adversarial", "invariant")
        ]
        assert [(kind, float(t), float(p)) for kind, t, p in rows] == expected

    def test_plot_written(self, tmp_path):
        code = _run(
            "perturb", "--model", "relu", "--m", "32", "--nf-ratio", "1.5",
            "--np-ratio", "3", "--pairs", "20", "--plot", "--out", str(tmp_path),
        )
        assert code == 0
        text = (tmp_path / "perturb.svg").read_text()
        assert text.startswith("<svg")
        assert "adversarial" in text and "invariant" in text

    def test_undefined_statistics_are_null(self, tmp_path):
        # identity features with M < N_f: an invariant direction leaves the
        # prediction unchanged, so d_y_pred is the same round-off on every
        # pair; its correlation is undefined and written as null, while the
        # OLS slope is 0
        def strict(name):
            raise ValueError(f"{name} in perturb_summary.json")

        code = _run(
            "perturb", "--model", "identity", "--m", "8", "--nf-ratio", "2",
            "--np-ratio", "2", "--pairs", "2", "--out", str(tmp_path),
        )
        assert code == 0
        summary = json.loads((tmp_path / "perturb_summary.json").read_text(), parse_constant=strict)
        assert summary["corr_invariant"] is None and summary["slope_invariant"] == 0.0
        assert summary["corr_adversarial"] is not None


def test_json_outputs_refuse_non_finite_numbers(tmp_path):
    outputs = _Outputs(str(tmp_path), "angles", dict(_DEFAULTS))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(georeg.NumericError, match="not JSON compliant"):
            outputs.write_json("bad.json", {"value": bad})
    assert not (tmp_path / "bad.json").exists()
