"""The np.linalg calls and Factorization routes of each benchmark pass command, counted.

Each command of the benchmark's passes (bench/workloads.py) runs in-process
at its --tiny size, sweep and bias-variance at --workers 1 so that every fit
runs in this process.  Every function of np.linalg is wrapped and its calls
counted, an SVD by what it returns ("s" for the singular values alone,
"full" with the vectors) and by the shape of its input; every Factorization
is counted by its route.  The counts must equal tests/linalg_ledger.json
exactly.  They are counts, not times, so they do not drift with the machine
or its BLAS threads, and a change that moves them shows here.

A change that moves them rewrites the ledger with

    PYTHONPATH=src python3 tests/test_linalg_ledger.py > tests/linalg_ledger.json

and lists the old and new counts in CHANGES.md.
"""
import contextlib
import importlib.util
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from georeg import linreg_core
from georeg.cli import main

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "linalg_ledger.json"


def _pass_commands() -> dict:
    """{label: argv} of the benchmark's pass commands at --tiny and its default seed."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    commands = {}
    for workload in ("sweep_acceptance", "bv_underparam", "single_point"):
        for label, argv in workloads.pass_commands(workload, workloads.DEFAULT_SEED, tiny=True):
            commands[label] = argv + ["--workers", "1"] if argv[0] in ("sweep", "bias-variance") else argv
    return commands


COMMANDS = _pass_commands()


def _shape_class(a) -> str:
    rows, cols = np.shape(a)
    return "tall" if rows > cols else "wide" if rows < cols else "square"


def _counted(name: str, calls: Counter):
    f = getattr(np.linalg, name)

    def wrapper(a, *args, **kwargs):
        if name == "svd":
            calls[f"svd {'full' if kwargs.get('compute_uv', True) else 's'} {_shape_class(a)}"] += 1
        else:
            calls[name] += 1
        return f(a, *args, **kwargs)

    return wrapper


def count(argv: list, out: str) -> dict:
    """{"argv", "calls", "routes"} of one in-process run of argv writing to out."""
    calls, routes = Counter(), Counter()
    init = linreg_core.Factorization.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        routes[self.route] += 1

    with contextlib.ExitStack() as stack:
        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):  # LinAlgError is a class
                stack.enter_context(mock.patch.object(np.linalg, name, _counted(name, calls)))
        stack.enter_context(mock.patch.object(linreg_core.Factorization, "__init__", counted_init))
        assert main([*argv, "--out", out]) == 0
    return {"argv": " ".join(argv), "calls": dict(sorted(calls.items())), "routes": dict(sorted(routes.items()))}


@pytest.mark.parametrize("label", COMMANDS)
def test_a_pass_command_makes_the_ledgers_calls_and_routes(label, tmp_path):
    assert count(COMMANDS[label], str(tmp_path)) == json.loads(LEDGER.read_text())[label]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        ledger = {label: count(argv, str(Path(tmp) / label)) for label, argv in COMMANDS.items()}
    json.dump(ledger, sys.stdout, indent=2)
    print()
