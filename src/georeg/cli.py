"""Command-line front end: sweep | bias-variance | angles | perturb.

Parameter resolution order, lowest to highest precedence: built-in defaults,
the JSON object given by --config, then explicit flags.
Every value, whatever its source, is typed and checked by one per-key table
(_PARAMS) into one record.  Every command writes its outputs plus a
manifest.json recording that record, so a run can be reproduced from the
manifest alone.

Exit codes: 0 success, 2 configuration/usage error, 3 numeric failure.
sweep and bias-variance drop degenerate replicas and fail grid points as
georeg.experiments states, count the drop reasons of every point in the
manifest's drop_reasons, and exit 2 only when every point fails.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import (
    ACTIVATIONS,
    ExperimentConfig,
    STREAM_TEACHER,
    STREAM_TEST,
    STREAM_TRAIN,
    STREAM_WEIGHTS,
    ratio_to_count,
    sigma_eps_for_snr,
    stream_rng,
)
from .decomposition import _PAIRED_METRICS
from .errors import ConfigurationError, ExperimentError, NumericError
from .experiments import _BLAS_THREAD_VARS, ALL_METRICS, SweepSpec, _usable_cpus, run_bias_variance, run_sweep
from .geometry import analysis_to_json_dict, analyze_operator, feature_operator_from_model
from .linreg_core import fit, apply_features, make_feature_map, sample_dataset, sample_teacher
from .perturbation import perturbation_experiment
from . import __version__, svg

# ------------------------------------------------------------- parameters


def _integer(v) -> int:
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError("expected an integer")
    return int(v)


def _real(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float, str)) or float(v) != float(v):
        raise ValueError("expected a number")
    return float(v)


def _as_json(v):
    """v, or each item of a tuple v, with an infinite float as "inf" or "-inf", which _real reads back."""
    if isinstance(v, tuple):
        return [_as_json(x) for x in v]
    return str(v) if isinstance(v, float) and np.isinf(v) else v


def _switch(v) -> bool:
    if not isinstance(v, bool):
        raise ValueError("expected true or false")
    return v


def _family(v) -> str:
    if v not in ACTIVATIONS:
        raise ValueError(f"expected one of {', '.join(ACTIVATIONS)}")
    return v


def _grid(v) -> tuple:
    """Comma-separated ratios or a list of numbers -> tuple of floats."""
    if not isinstance(v, (str, list)):
        raise ValueError("expected comma-separated ratios or a list of numbers")
    tokens = [t for t in v.split(",") if t.strip()] if isinstance(v, str) else v
    vals = tuple(_real(t) for t in tokens)
    if not vals:
        raise ValueError("empty grid")
    return vals


# key -> (default, type, flag help).  The type coerces flag strings and checks
# config-file values alike.
_PARAMS = {
    "model": (None, _family, "feature family: identity, linear or relu"),
    "m": (256, _integer, "training-set size M"),
    "nf_ratio": (0.25, _real, "N_f / M"),
    "np_grid": ("0.25,0.5,0.75,1,1.5,2,3,4", _grid, "comma-separated N_p/M ratios"),
    "np_ratio": (1.0, _real, "N_p / M"),
    "replicas": (100, _integer, "replicas per grid point"),
    "lam": (1e-8, _real, "ridge parameter"),
    "snr": (10.0, _real, "label signal-to-noise ratio"),
    "seed": (2, _integer, "base RNG seed"),
    "pairs": (200, _integer, "number of perturbation pairs"),
    "eta": (1e-2, _real, "finite-difference step"),
    "normalize": (False, _switch, "report errors in units of sigma_y^2"),
    "plot": (False, _switch, "also write an SVG chart"),
    "workers": (None, _integer, "parallel workers (default: the usable CPU count)"),
}
_DEFAULTS = {key: default for key, (default, _, _) in _PARAMS.items()}


def _typed(key: str, value):
    default, kind, _ = _PARAMS[key]
    if value is None and default is None:
        return None
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{key} = {value!r}: {exc}") from None


def _resolve(args) -> dict:
    """Merge defaults, JSON config, and flags into one typed record.

    Every value of every layer is typed, so a malformed file fails even where
    a flag overrides it.
    """
    layers = [_DEFAULTS]
    if getattr(args, "config", None):
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"config {args.config} must hold a JSON object")
        unknown = set(loaded) - set(_DEFAULTS)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        layers.append(loaded)
    layers.append({key: getattr(args, key) for key in _DEFAULTS if getattr(args, key, None) is not None})
    params = {key: _typed(key, val) for layer in layers for key, val in layer.items()}
    if params["model"] is None:
        raise ConfigurationError(
            "usage: georeg <command> --model {identity,linear,relu} [options]\n"
            "--model is required"
        )
    return params


def _config(params: dict, np_ratio: float) -> ExperimentConfig:
    """The experiment at N_p/M = np_ratio, everything else from the record."""
    m = params["m"]
    return ExperimentConfig(
        m=m,
        n_f=ratio_to_count(params["nf_ratio"], m),
        n_p=ratio_to_count(np_ratio, m),
        sigma_eps=sigma_eps_for_snr(params["snr"]),
        lam=params["lam"],
        activation=params["model"],
        seed=params["seed"],
    )


def _single_point(config: ExperimentConfig):
    """(beta, model, analysis of P_f) of one fit on the (0, 0, ...) streams."""
    beta = sample_teacher(config, (0, 0, STREAM_TEACHER))
    fmap = make_feature_map(config, (0, 0, STREAM_WEIGHTS))
    data = sample_dataset(config, beta, (0, 0, STREAM_TRAIN))
    model = fit(apply_features(fmap, data.X), data.y, lam=config.lam, feature_map=fmap)
    return beta, model, analyze_operator(feature_operator_from_model(model, data.X))


# ---------------------------------------------------------------- outputs


def _environment() -> dict:
    """The georeg, numpy and Python versions and numpy's BLAS name (None on numpy < 1.25)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {"georeg": __version__, "numpy": np.__version__, "python": platform.python_version(), "blas": blas}


class _Outputs:
    """One command's output directory; every file, then the manifest, goes through it.

    Each command opens it before it computes anything, so an unusable --out
    fails at once instead of after the run.
    """

    def __init__(self, out: str, command: str, params: dict):
        self.dir = Path(out)
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"cannot create output directory {out}: {exc}") from None
        self.command, self.params, self.paths = command, params, []

    def path(self, name: str) -> Path:
        self.paths.append(name)
        return self.dir / name

    def write_csv(self, name: str, header: list, rows) -> None:
        """Floats carry 17 significant digits; other cells are written as is."""
        with open(self.path(name), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows([f"{float(v):.17g}" if isinstance(v, float) else v for v in row] for row in rows)

    def write_json(self, name: str, data: dict) -> None:
        """Strict JSON: a NaN or an infinity is a NumericError, not written."""
        try:
            text = json.dumps(data, indent=2, allow_nan=False)
        except ValueError as exc:
            raise NumericError(f"{name}: {exc}") from None
        self.path(name).write_text(text + "\n")

    def error_chart(self, name: str, title: str, xs: list, curves: dict) -> None:
        """Log-scale line chart of error curves (label -> values) against N_p/M."""
        series = [{"label": label, "x": xs, "y": ys} for label, ys in curves.items()]
        svg.line_chart(self.path(name), series, x_label="N_p / M", y_label="error", title=title)

    def manifest(self, **extra) -> None:
        record = {
            "command": self.command,
            "resolved_config": {key: _as_json(v) for key, v in self.params.items()},
            "seed": self.params["seed"],
            "output_paths": self.paths + ["manifest.json"],
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "environment": _environment(),
            **extra,
        }
        self.write_json("manifest.json", record)


# ---------------------------------------------------------------- commands


def _run_grid_command(command: str, params: dict, out: str):
    """(outputs, result, manifest fields) of sweep or bias-variance; failed points go to stderr."""
    spec = SweepSpec(
        base_config=_config(params, params["nf_ratio"]),
        np_over_m_grid=params["np_grid"],
        n_replicas=params["replicas"],
        normalize=params["normalize"],
    )
    outputs = _Outputs(out, command, params)
    workers = _usable_cpus() if params["workers"] is None else params["workers"]
    result = (run_sweep if command == "sweep" else run_bias_variance)(spec, workers=workers)
    for (np_r, nf_r), msg in sorted(result.point_errors.items()):
        print(f"{command}: grid point np_over_m={np_r} nf_over_m={nf_r} failed: {msg}", file=sys.stderr)
    return outputs, result, {
        "elapsed_seconds": result.elapsed_seconds,
        "point_errors": {f"{k[0]},{k[1]}": v for k, v in result.point_errors.items()},
        "drop_reasons": {f"{k[0]},{k[1]}": v for k, v in result.drop_reasons.items()},
        "workers": workers,
        "blas_thread_vars": {name: os.environ.get(name) for name in _BLAS_THREAD_VARS},
        "worker_blas_threads": result.worker_blas_threads,
        "worker_malloc_vars": result.worker_malloc_vars,
    }


def cmd_sweep(params: dict, out: str) -> int:
    outputs, result, manifest = _run_grid_command("sweep", params, out)
    header = ["np_over_m", "nf_over_m", "n_p", "n_f", "n_effective"]
    header += [col for name in ALL_METRICS for col in (name, f"{name}_se")]
    outputs.write_csv(
        "sweep.csv",
        header,
        (
            [row.np_over_m, row.nf_over_m, row.n_p, row.n_f, row.n_effective]
            + [v for name in ALL_METRICS for v in (row.means[name], row.standard_errors[name])]
            for row in result.rows
        ),
    )
    if params["plot"] and result.rows:
        outputs.error_chart(
            "sweep.svg",
            "error vs N_p/M",
            [r.np_over_m for r in result.rows],
            {name: [r.means[name] for r in result.rows] for name in ("test_error", "train_error", "bias_sq", "variance")},
        )
    outputs.manifest(**manifest)
    return 0 if result.rows else 2


def cmd_bias_variance(params: dict, out: str) -> int:
    outputs, result, manifest = _run_grid_command("bias-variance", params, out)
    outputs.write_csv(
        "bias_variance.csv",
        ["np_over_m", "nf_over_m", *_PAIRED_METRICS, *(f"se_{c}" for c in _PAIRED_METRICS)],
        ([r.np_over_m, r.nf_over_m] + [d[c] for d in (r.means, r.standard_errors) for c in _PAIRED_METRICS] for r in result.rows),
    )
    if params["plot"] and result.rows:
        outputs.error_chart(
            "bias_variance.svg",
            "bias-variance decomposition",
            [r.np_over_m for r in result.rows],
            {c: [r.means[c] for r in result.rows] for c in ("geom_error", "bias_sq", "variance", "test_error")},
        )
    outputs.manifest(**manifest)
    return 0 if result.rows else 2


def cmd_angles(params: dict, out: str) -> int:
    config = _config(params, params["np_ratio"])
    outputs = _Outputs(out, "angles", params)
    _, _, analysis = _single_point(config)
    outputs.write_json("angles.json", analysis_to_json_dict(analysis))
    outputs.manifest()
    return 0


def cmd_perturb(params: dict, out: str) -> int:
    config = _config(params, params["np_ratio"])
    outputs = _Outputs(out, "perturb", params)
    beta, model, analysis = _single_point(config)
    x0 = stream_rng(config.seed, (0, 0, STREAM_TEST)).normal(
        0.0, config.sigma_x / np.sqrt(config.n_f), config.n_f
    )
    responses, summary = perturbation_experiment(
        model, beta, analysis, x0, config,
        n_pairs=params["pairs"], eta=params["eta"],
    )

    # one row per kind of each kept pair, adversarial first
    rows = ([kind, t[i], p[i]] for i in range(summary["n_adversarial"]) for kind, (_, t, p) in responses.items())
    outputs.write_csv("perturb.csv", ["kind", "d_y_true", "d_y_pred"], rows)
    outputs.write_json("perturb_summary.json", {**summary, "eta": params["eta"], "n_pairs": params["pairs"]})
    if params["plot"]:
        groups = [
            {
                "label": kind,
                "x": t.tolist(),
                "y": p.tolist(),
                "color": color,
                "slope": summary.get(f"slope_{kind}"),
            }
            for (kind, (_, t, p)), color in zip(responses.items(), ("#1f77b4", "#ff7f0e"))
        ]
        svg.scatter_chart(outputs.path("perturb.svg"), groups, x_label="dy/deta (true)", y_label="dyhat/deta (model)", title="perturbation response")
    outputs.manifest()
    return 0


# ------------------------------------------------------------------ main

_COMMON = ("model", "m", "nf_ratio", "lam", "snr", "seed")
# command -> (function, help, the record keys it takes as flags beyond _COMMON)
_COMMANDS = {
    "sweep": (cmd_sweep, "double-descent sweep over N_p/M", ("np_grid", "replicas", "normalize", "workers", "plot")),
    "bias-variance": (cmd_bias_variance, "paired-replica bias/variance decomposition", ("np_grid", "replicas", "normalize", "workers", "plot")),
    "angles": (cmd_angles, "singular values and angles of one fitted operator", ("np_ratio",)),
    "perturb": (cmd_perturb, "adversarial vs invariant perturbation responses", ("np_ratio", "pairs", "eta", "plot")),
}


@functools.cache  # built once per process: main calls it on every run
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="georeg", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (func, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON parameter file (flags override it)")
        p.add_argument("--out", required=True, help="output directory")
        for key in _COMMON + keys:
            _, kind, flag_help = _PARAMS[key]
            flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
            # a switch is store_const, so an absent flag leaves the file's value standing
            switch = {"action": "store_const", "const": True} if kind is _switch else {}
            p.add_argument(flag, dest=key, help=flag_help, **switch)
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)
    try:
        return args.func(_resolve(args), args.out)
    except ConfigurationError as exc:
        print(f"georeg: configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ExperimentError, np.linalg.LinAlgError) as exc:
        print(f"georeg: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
