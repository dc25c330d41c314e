"""One workload process: a fresh interpreter that runs georeg.cli.main back to back.

    python worker.py --probe        import georeg.cli, print "ready", exit
    python worker.py SPEC.json      run the passes SPEC.json describes

With a spec the worker imports ``georeg.cli``, prints ``ready``, runs one
untimed warm-up pass and then timed passes until ``seconds`` have gone by.
With ``trace`` set it spends half the time untraced and then runs traced
passes (at most ``MAX_TRACED_PASSES``) with the tracer installed, writes the
spans and removes the tracer.  The last line on stdout is a JSON record of
the per-command times, the output fingerprint of every pass, the peak
resident set and, when traced, the per-layer metrics.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

MAX_TRACED_PASSES = 20


def fingerprint(out: Path, labels: list[str]) -> dict[str, str]:
    """sha256 of every output file except manifest.json, whose timestamp changes on every run."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for label in labels
        for p in sorted((out / label).rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def run_pass(main, commands: list, out: Path) -> tuple[list[float], list[int]]:
    times, codes = [], []
    for label, argv in commands:
        t0 = time.perf_counter()
        rc = main([*argv, "--out", str(out / label)])
        times.append(time.perf_counter() - t0)
        codes.append(rc)
    return times, codes


def run_passes(main, commands: list, out: Path, seconds: float, max_passes: int | None = None) -> dict:
    rec = {"times": [], "codes": [], "fingerprints": []}
    start = time.perf_counter()
    while True:
        times, codes = run_pass(main, commands, out)
        rec["times"].append(times)
        rec["codes"].append(codes)
        rec["fingerprints"].append(fingerprint(out, [label for label, _ in commands]))
        n = len(rec["times"])
        if time.perf_counter() - start >= seconds or n == max_passes:
            return rec


def main() -> int:
    import georeg
    import georeg.cli

    src = Path(os.environ["GEOREG_BENCH_SRC"]).resolve()
    if Path(georeg.cli.__file__).resolve().parent.parent != src:
        print(f"worker: imported georeg from {georeg.cli.__file__}, expected it under {src}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    if sys.argv[1] == "--probe":
        return 0

    spec = json.loads(Path(sys.argv[1]).read_text())
    out = Path(spec["out"])
    commands = spec["commands"]

    def cli_main(argv):
        return georeg.cli.main(argv)  # looked up per call, so the traced passes reach the wrapper

    warmup = run_passes(cli_main, commands, out, 0.0, max_passes=1)
    result = {"warmup": warmup}
    if not spec["trace"]:
        result["untraced"] = run_passes(cli_main, commands, out, spec["seconds"])
    else:
        import tracing

        result["untraced"] = run_passes(cli_main, commands, out, spec["seconds"] / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result["traced"] = run_passes(cli_main, commands, out, spec["seconds"] / 2, MAX_TRACED_PASSES)
        finally:
            tracer.uninstall()
        tracer.write(Path(spec["spans"]))
        table = tracing.SpanTable(tracer.spans)
        result["per_layer"] = tracing.per_layer_metrics(table, len(result["traced"]["times"]))
        result["n_spans"] = len(tracer.spans)
    result["maxrss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "georeg": georeg.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
