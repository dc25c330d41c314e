"""Self-tests of the benchmark.  Run with: python3 -m pytest bench -q"""
from __future__ import annotations

import csv
import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_and_units():
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64, m
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
    produced = tracing.per_layer_metrics(tracing.SpanTable([]), 1)
    produced_units = {k: unit for k, (_, unit, _) in produced.items()}
    produced_units["trace.overhead_frac"] = "ratio"
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == produced_units


def _bindings():
    import numpy as np

    mods = [importlib.import_module("georeg")] + [
        importlib.import_module(f"georeg.{layer}") for layer in tracing.LAYERS
    ]
    fitted = importlib.import_module("georeg.linreg_core").FittedModel
    owners = [*mods, np.linalg, fitted]
    return {(id(o), k): (o, v) for o in owners for k, v in list(vars(o).items())}


def test_install_and_uninstall_restore_every_attribute():
    import georeg.cli
    import georeg.decomposition
    import georeg.linreg_core
    import numpy as np

    before = _bindings()
    fit, svd = georeg.linreg_core.fit, np.linalg.svd
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for ns in (georeg, georeg.linreg_core, georeg.cli, georeg.decomposition):
            assert ns.fit is not fit and ns.fit.__wrapped__ is fit
        assert np.linalg.svd.__wrapped__ is svd
        assert georeg.cli.main.__wrapped__ is not None
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for key, (owner, value) in before.items():
        assert after[key][1] is value, (owner, key[1])


def test_self_time_subtracts_children_and_skips_transparent_spans():
    spans = [
        ["experiments.run_sweep", 0.0, 10.0, -1, (), False],
        ["experiments._replica_metrics", 1.0, 6.0, 0, ((256, 64),), True],
        ["linreg_core.fit", 2.0, 5.0, 1, ((256, 64), (256,)), False],
        ["numpy.linalg.svd", 2.5, 4.5, 2, ((256, 64),), False],
        ["geometry.analyze_operator", 5.0, 5.5, 1, ((64, 64),), False],
    ]
    table = tracing.SpanTable(spans)
    assert table.self_s(["experiments.run_sweep"]) == pytest.approx(10.0 - 3.0 - 0.5)
    assert table.self_s(["linreg_core.fit"]) == pytest.approx(1.0)
    assert table.ratio[4] == 0.25  # inherited through the transparent replica span
    assert table.ms_per_call("linreg_core.fit", 0.25) == (3000.0, 1)
    assert table.returned_none("experiments._replica_metrics") == 1
    assert table.mb_in(tracing.FACTOR) == pytest.approx(8e-6 * 256 * 64)


def test_self_time_never_negative_on_a_traced_run(tmp_path):
    import georeg.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for label, argv in workloads.pass_commands("sweep_acceptance", 2, tiny=True) + workloads.pass_commands(
            "single_point", 2, tiny=True
        ):
            assert georeg.cli.main([*argv, "--out", str(tmp_path / label)]) == 0
    finally:
        tracer.uninstall()
    table = tracing.SpanTable(tracer.spans)
    # children lie inside their parent's interval, so only float rounding of
    # the clock differences can take a self time below zero
    assert min(t for i, t in enumerate(table.self_time) if tracer.spans[i][0] not in tracing.TRANSPARENT) >= -1e-9
    metrics = tracing.per_layer_metrics(table, 1)
    assert all(v >= 0 for k, (v, _, _) in metrics.items() if k.endswith("self_s"))
    assert metrics["cli.main.self_s"][0] > 0 and metrics["linreg_core.fit.calls"][0] > 0


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    assert run.tail(list(range(20))) == (50.0, 9)
    assert run.tail([float(i) for i in range(1000)])[0] == 99.0


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def test_sweep_check_catches_a_broken_identity_and_a_missing_row(tmp_path):
    header = ["np_over_m", "nf_over_m", "n_p", "n_f", "n_effective", "geom_error", "bias_sq", "variance"]
    rows = [[r, 0.25, 1, 1, workloads.SWEEP_REPLICAS, 0.3, 0.2, 0.1] for r in workloads.SWEEP_GRID.split(",")]
    _write_csv(tmp_path / "sweep" / "sweep.csv", header, rows)
    assert workloads.check_pass("sweep_acceptance", tmp_path).failed_checks == 0
    rows[0][7] = 0.1 + 1e-9
    _write_csv(tmp_path / "sweep" / "sweep.csv", header, rows[:-1])
    rep = workloads.check_pass("sweep_acceptance", tmp_path)
    assert not rep.checks["sweep.rows_present"][0]
    assert not rep.checks["sweep.bias_variance_telescopes"][0]
    assert rep.points_failed == 1


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_tiny_smoke_run(name):
    proc = _bench("--workload", name, "--seconds", "0.5", "--tiny")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_same_seed_gives_the_same_fingerprint():
    prints = []
    for _ in range(2):
        assert _bench("--workload", "single_point", "--seconds", "0.2", "--tiny").returncode == 0
        result = ROOT / ".bench_runs" / "single_point-trace0" / "result.json"
        prints.append(json.loads(result.read_text())["fingerprint"])
    assert prints[0] == prints[1] and len(prints[0]) == 4


def test_tiny_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "sweep_acceptance", "--seconds", "1", "--tiny", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["correct"]
    assert set(line["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert "fingerprint.traced_equals_untraced" in proc.stdout


def test_failed_reference_check_exits_non_zero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    ref_path = tmp_path / "bench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["workloads"]["single_point"]["values"]["perturb.corr_adversarial"] += 0.01
    ref_path.write_text(json.dumps(ref))
    proc = _bench("--workload", "single_point", "--seconds", "0.5", cwd=tmp_path)
    assert proc.returncode == 1
    assert "check FAIL single_point.reference_seed_2" in proc.stdout
    line = json.loads(proc.stdout.splitlines()[-1])
    assert not line["correct"] and line["failed"] == 1


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "single_point", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
