"""georeg benchmark: runs one workload (or all) and checks its outputs.

    python3 bench/run.py --workload sweep_acceptance [--seed 2] [--seconds N] [--trace 0|1]
    python3 bench/run.py --workload all            # every workload, one report

Run it from anywhere; it uses the georeg sources in ``src/`` next to this
directory, never an installed copy.  Workloads and metrics are listed in
``BENCHMARK.json`` at the repository root.

Each workload runs in a fresh interpreter (``worker.py``) started with
``GEOREG_WORKERS`` and the BLAS thread variables removed, so the numbers
measure georeg's own defaults whatever shell starts the benchmark.  The loop
is closed with one client: the worker calls ``georeg.cli.main`` back to back.
One pass is the workload's list of commands; after one untimed warm-up pass
the worker repeats passes until ``--seconds`` have gone by.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` spends half the time untraced and half traced (see
``tracing.py``) and reports the per-layer metrics plus the tracing overhead.

The output is a human report, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the environment block and the output fingerprints, goes to
``.bench_runs/<workload>-trace<k>/result.json``.  The exit code is 0 when
every check passes, 1 when a check fails and 2 when the benchmark cannot run.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
REFERENCE = BENCH_DIR / "reference.json"
ENV_REMOVED = ("GEOREG_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Half the set-up samples are taken before the workload and half after it:
# on a shared 2-core VM the machine's speed drifts by up to 20% within tens
# of seconds, and a 0.25 s import catches whatever speed is current.
SETUP_SAMPLES = 12
DEADLINE_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# ROADMAP item 1: one fit with single-thread BLAS, in ms, at N_p/M = 0.25 / 1 / 4.
ROADMAP_FIT_MS = {"r0.25": 1.4, "r1": 15.0, "r4": 39.0}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker_env() -> tuple[dict, dict, dict]:
    """(environment for the workload process, variables as found, as passed on)."""
    found = {k: os.environ.get(k) for k in ENV_REMOVED}
    env = {k: v for k, v in os.environ.items() if k not in ENV_REMOVED}
    env["PYTHONPATH"] = str(SRC)
    env["GEOREG_BENCH_SRC"] = str(SRC)
    passed = {k: env.get(k) for k in ENV_REMOVED}
    return env, found, passed


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def start_worker(args: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a workload process; return it and the seconds until it reported ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
    except BaseException:
        _stop(proc)
        raise
    ready_s = time.perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc)
        raise BenchError(f"workload process did not start: {proc.stderr.read().strip()}")
    return proc, ready_s


def finish_worker(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("workload process ran past the deadline") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def measure_setup(env: dict, n: int) -> list[float]:
    """Seconds from process start until georeg.cli is imported, once per fresh interpreter."""
    samples = []
    for _ in range(n):
        proc, ready_s = start_worker(["--probe"], env)
        finish_worker(proc, 30.0)
        samples.append(ready_s)
    return samples


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least 10 samples beyond it."""
    s = sorted(values)
    n = len(s)
    for p in TAIL_PERCENTILES:
        k = math.ceil(p / 100.0 * n)
        if k >= 1 and n - k >= 10:
            return p, s[k - 1]
    return None


def git_commit() -> str | None:
    """The commit checked out in ROOT, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run one workload and return its full record (metrics, checks, environment)."""
    t_start = time.perf_counter()
    env, found, passed = worker_env()
    run_dir = RUNS / f"{name}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    commands = workloads.pass_commands(name, seed, tiny)
    if trace and name == "sweep_acceptance":
        # wrappers do not cross into pool children: force the serial path
        commands = [(label, [*argv, "--workers", "1"]) for label, argv in commands]
    spec = {
        "commands": commands, "seconds": seconds, "trace": trace,
        "out": str(run_dir / "pass"), "spans": str(run_dir / "spans.json"),
    }
    (run_dir / "spec.json").write_text(json.dumps(spec, indent=1))

    setup = measure_setup(env, SETUP_SAMPLES // 2)
    proc, _ = start_worker([str(run_dir / "spec.json")], env)
    raw = json.loads(finish_worker(proc, DEADLINE_S - (time.perf_counter() - t_start)).splitlines()[-1])
    setup += measure_setup(env, SETUP_SAMPLES - SETUP_SAMPLES // 2)

    rep = check_outputs(name, raw, run_dir / "pass", seed, tiny)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "commands": [argv for _, argv in commands],
        "env": {
            **raw["env"],
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "thread_vars_found": found,
            "thread_vars_passed": passed,
            "workers_in_effect": 1,
            "workers_note": "--workers 1 forced for tracing" if trace else "run_sweep default with GEOREG_WORKERS unset",
            "git_commit": git_commit(),
        },
        "fingerprint": raw["untraced"]["fingerprints"][-1],
        "checks": {k: {"ok": ok, "detail": d} for k, (ok, d) in rep.checks.items()},
        "notes": rep.notes,
        "samples": {
            "setup_s": setup,
            "command_s": raw["untraced"]["times"],
            "traced_command_s": raw.get("traced", {}).get("times", []),
        },
    }
    record.update(metrics(name, raw, setup, rep, trace))
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def _phases(raw: dict) -> list[dict]:
    return [raw[k] for k in ("warmup", "untraced", "traced") if k in raw]


def check_outputs(name: str, raw: dict, out: Path, seed: int, tiny: bool) -> workloads.CheckReport:
    try:
        rep = workloads.check_pass(name, out, tiny)
    except (OSError, KeyError, ValueError) as exc:
        rep = workloads.CheckReport()
        rep.add(f"{name}.outputs_readable", False, f"{type(exc).__name__}: {exc}")
    if seed == workloads.DEFAULT_SEED and not tiny and rep.failed_checks == 0:
        workloads.compare_reference(name, rep, REFERENCE)
    phases = _phases(raw)
    untraced = [json.dumps(fp, sort_keys=True) for ph in phases[:2] for fp in ph["fingerprints"]]
    rep.add("fingerprint.same_every_pass", len(set(untraced)) == 1,
            f"{len(set(untraced))} distinct fingerprints over {len(untraced)} untraced passes")
    if "traced" in raw:
        prints = [json.dumps(fp, sort_keys=True) for ph in phases for fp in ph["fingerprints"]]
        rep.add("fingerprint.traced_equals_untraced", len(set(prints)) == 1,
                f"{len(set(prints))} distinct fingerprints over {len(prints)} passes, traced included")
    return rep


def metrics(name: str, raw: dict, setup: list[float], rep: workloads.CheckReport, trace: bool) -> dict:
    """End-to-end report, per-layer metrics and the failure accounting."""
    timed = raw["untraced"]
    passes = len(timed["times"])
    pass_s = [sum(t) for t in timed["times"]]
    report = {
        "setup_s": (statistics.median(setup), "s", len(setup), "fresh interpreter until georeg.cli is imported"),
        "wall_s": (statistics.median(pass_s), "s", passes, "median time of one pass, tracing off"),
    }
    if rep.replicas_attempted:
        rates = [rep.replicas_kept / s for s in pass_s]
        report["replicas_per_s"] = (statistics.median(rates), "1/s", passes, "paired replicas kept per second of a pass")
    labels = [label for label, _ in workloads.pass_commands(name, 0)]
    if name == "single_point":
        for i, label in enumerate(labels):
            ms = [1e3 * t[i] for t in timed["times"]]
            report[f"{label}_ms_p50"] = (statistics.median(ms), "ms", len(ms), "per-call latency")
            tl = tail(ms)
            if tl is None:
                report[f"{label}_ms_tail"] = (max(ms), "ms", len(ms), "max: fewer than 20 calls, no tail percentile")
            else:
                report[f"{label}_ms_tail"] = (tl[1], "ms", len(ms), f"p{tl[0]:g}, the highest with >= 10 calls beyond it")
    report["peak_rss_mb"] = (raw["maxrss_kb"] / 1024.0, "MB", 1, "largest resident set of the workload process or a pool child")

    phases = _phases(raw)
    all_passes = sum(len(ph["times"]) for ph in phases)
    exits_failed = sum(c != 0 for ph in phases for codes in ph["codes"] for c in codes)
    per_pass_ops = len(labels) + rep.replicas_attempted + rep.points_attempted
    per_pass_failed = (rep.replicas_attempted - rep.replicas_kept) + rep.points_failed
    attempted = all_passes * per_pass_ops + len(rep.checks)
    failed = all_passes * per_pass_failed + exits_failed + rep.failed_checks
    report["failed_frac"] = (failed / attempted, "ratio", attempted,
                             "(dropped replicas + failed grid points + non-zero exits + failed checks) / attempted")
    correct = rep.failed_checks == 0 and exits_failed == 0
    out = {"report": report, "attempted": attempted, "failed": failed, "correct": correct, "exits_failed": exits_failed}
    if trace:
        traced_pass_s = [sum(t) for t in raw["traced"]["times"]]
        layer = dict(raw["per_layer"])
        layer["trace.overhead_frac"] = (
            statistics.median(traced_pass_s) / statistics.median(pass_s) - 1.0, "ratio",
            f"median of {len(traced_pass_s)} traced over {passes} untraced passes",
        )
        out["per_layer"] = layer
        out["n_spans"] = raw["n_spans"]
    return out


def print_record(rec: dict) -> None:
    env = rec["env"]
    print(f"== {rec['workload']}  seed={rec['seed']}  seconds={rec['seconds']:g}  trace={int(rec['trace'])}"
          + ("  (tiny smoke size)" if rec["tiny"] else ""))
    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']['name']} {env['blas']['version']} workers={env['workers_in_effect']} "
          f"({env['workers_note']}) commit={env['git_commit']}")
    print(f"env: thread variables found={env['thread_vars_found']} passed={env['thread_vars_passed']}")
    if rec["trace"]:
        print("trace: serial path forced (--workers 1) because wrappers do not cross into pool children")
    for cmd in rec["commands"]:
        print("cmd: georeg " + " ".join(cmd))
    for key, (value, unit, n, what) in rec["report"].items():
        print(f"  {key:<16} {value:>14.6g} {unit:<6} n={n:<5} {what}")
    if rec["trace"]:
        print(f"per-layer metrics, per traced pass ({rec['n_spans']} spans):")
        for key, (value, unit, note) in rec["per_layer"].items():
            print(f"  {key:<46} {value:>14.6g} {unit:<12} {note}")
        print("fit ms per call against ROADMAP item 1 (single-thread BLAS):")
        for label, ref in ROADMAP_FIT_MS.items():
            ms = rec["per_layer"][f"linreg_core.fit.ms_per_call.{label}"][0]
            gap = f"{ms / ref:.2f}x" if ms else "no calls on this workload"
            print(f"  N_p/M {label[1:]:<5} {ms:8.2f} ms  roadmap {ref:5.1f} ms  {gap}")
    print(f"exits: {rec['exits_failed']} CLI calls exited non-zero")
    for key, c in rec["checks"].items():
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {key}: {c['detail']}")
    for note in rec["notes"]:
        print(f"note: {note}")
    print(f"fingerprint: {len(rec['fingerprint'])} files, "
          + ", ".join(f"{k}={v[:12]}" for k, v in sorted(rec["fingerprint"].items())))


def result_line(rec: dict, bench: dict) -> dict:
    """The driver-facing JSON: end-to-end metrics untraced, per-layer metrics traced."""
    names = bench["per_layer"] if rec["trace"] else bench["end_to_end"]
    source = rec["per_layer"] if rec["trace"] else rec["report"]
    return {
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]][0], "unit": m["unit"]} for m in names},
    }


def main(argv: list[str] | None = None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description="georeg benchmark")
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes (M = 32); skips the reference comparison")
    args = ap.parse_args(argv)
    if not (SRC / "georeg" / "cli.py").is_file():
        print(f"bench: no georeg sources at {SRC}", file=sys.stderr)
        return 2

    selected = names if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.tiny) for n in selected]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for rec in records:
        print_record(rec)
    if len(records) == 1:
        line = result_line(records[0], bench)
    else:
        line = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{k}": v for r in records for k, v in result_line(r, bench)["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
