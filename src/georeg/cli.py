"""Command-line front end: sweep | bias-variance | angles | perturb.

Parameter resolution order, lowest to highest precedence: built-in defaults,
--preset values, the JSON file given by --config, then explicit flags.  Every
command writes its outputs plus a manifest.json recording the fully resolved
parameters, so a run can be reproduced from the manifest alone.

Exit codes: 0 success, 2 configuration/usage error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import (
    ExperimentConfig,
    PRESETS,
    STREAM_PERTURB,
    STREAM_TEACHER,
    STREAM_TEST,
    STREAM_TRAIN,
    STREAM_WEIGHTS,
    ratio_to_count,
    sigma_eps_for_snr,
    stream_rng,
)
from .decomposition import _PAIRED_METRICS, bias_variance_mc
from .errors import ConfigurationError, ExperimentError, NumericError
from .experiments import SweepSpec, run_sweep
from .geometry import analysis_to_json_dict, analyze_operator, feature_operator_from_model
from .linreg_core import fit, apply_features, make_feature_map, sample_dataset, sample_teacher
from .perturbation import perturbation_experiment
from . import svg

_DEFAULTS = {
    "model": None,
    "m": 256,
    "nf_ratio": 0.25,
    "np_grid": "0.25,0.5,0.75,1,1.5,2,3,4",
    "np_ratio": 1.0,
    "replicas": 100,
    "lam": 1e-8,
    "snr": 10.0,
    "seed": 2,
    "pairs": 200,
    "eta": 1e-2,
    "normalize": False,
    "workers": None,
    "sigma_x": 1.0,
    "sigma_beta": 1.0,
    "sigma_w": 1.0,
    "m_test": None,
}


def _g17(v) -> str:
    return f"{float(v):.17g}"


def _parse_grid(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
    try:
        vals = tuple(float(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigurationError(f"bad grid {text!r}: {exc}") from None
    if not vals:
        raise ConfigurationError("empty --np-grid")
    return vals


def _resolve(args) -> dict:
    """Merge defaults, preset, JSON config, and flags into one record."""
    params = dict(_DEFAULTS)
    if getattr(args, "preset", None):
        params.update(PRESETS[args.preset])
    if getattr(args, "config", None):
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {args.config}: {exc}")
        unknown = set(loaded) - set(_DEFAULTS)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        params.update(loaded)
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if params["model"] is None:
        raise ConfigurationError(
            "usage: georeg <command> --model {identity,linear,relu} [options]\n"
            "--model is required"
        )
    return params


def _base_config(params, n_p: int) -> ExperimentConfig:
    m = int(params["m"])
    n_f = ratio_to_count(float(params["nf_ratio"]), m)
    return ExperimentConfig(
        m=m,
        n_f=n_f,
        n_p=n_p,
        m_test=params["m_test"],
        sigma_x=float(params["sigma_x"]),
        sigma_eps=sigma_eps_for_snr(
            float(params["snr"]), float(params["sigma_x"]), float(params["sigma_beta"])
        ),
        sigma_beta=float(params["sigma_beta"]),
        sigma_w=float(params["sigma_w"]),
        lam=float(params["lam"]),
        activation=str(params["model"]),
        seed=int(params["seed"]),
    )


def _single_point_model(config: ExperimentConfig):
    """Teacher, feature map, training data, and fit on the (0, 0, ...) streams."""
    teacher = sample_teacher(config, (0, 0, STREAM_TEACHER))
    fmap = make_feature_map(config, (0, 0, STREAM_WEIGHTS))
    data = sample_dataset(config, teacher, (0, 0, STREAM_TRAIN))
    model = fit(apply_features(fmap, data.X), data.y, lam=config.lam, feature_map=fmap)
    return teacher, fmap, data, model


def _write_manifest(out_dir: Path, command: str, resolved: dict, seed: int, paths: list, extra: dict | None = None):
    manifest = {
        "command": command,
        "resolved_config": resolved,
        "seed": seed,
        "output_paths": paths,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------- commands


def cmd_sweep(args) -> int:
    params = _resolve(args)
    grid = _parse_grid(params["np_grid"])
    base = _base_config(params, n_p=ratio_to_count(float(params["nf_ratio"]), int(params["m"])))
    spec = SweepSpec(
        base_config=base,
        np_over_m_grid=grid,
        n_replicas=int(params["replicas"]),
        normalize=bool(params["normalize"]),
    )
    workers = params["workers"]
    result = run_sweep(spec, workers=int(workers) if workers is not None else None)

    for (np_r, nf_r), msg in sorted(result.point_errors.items()):
        print(f"sweep: grid point np_over_m={np_r} nf_over_m={nf_r} failed: {msg}", file=sys.stderr)

    out = _out_dir(args)
    csv_path = out / "sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["np_over_m", "nf_over_m", "n_p", "n_f", "n_effective"]
        for name in result.metrics:
            header += [name, f"{name}_se"]
        w.writerow(header)
        for row in result.rows:
            rec = [_g17(row.np_over_m), _g17(row.nf_over_m), row.n_p, row.n_f, row.n_effective]
            for name in result.metrics:
                rec += [_g17(row.means[name]), _g17(row.standard_errors[name])]
            w.writerow(rec)
    paths = ["sweep.csv"]

    if args.plot and result.rows:
        xs = [r.np_over_m for r in result.rows]
        series = []
        for name in ("test_error", "train_error", "bias_sq", "variance"):
            if name in result.metrics:
                series.append({"label": name, "x": xs, "y": [r.means[name] for r in result.rows]})
        svg.line_chart(out / "sweep.svg", series, x_label="N_p / M", y_label="error", title="error vs N_p/M", log_y=True)
        paths.append("sweep.svg")

    _write_manifest(
        out, "sweep", params, base.seed, paths + ["manifest.json"],
        extra={
            "elapsed_seconds": result.elapsed_seconds,
            "point_errors": {f"{k[0]},{k[1]}": v for k, v in result.point_errors.items()},
        },
    )
    if not result.rows:
        return 2
    return 0


def cmd_bias_variance(args) -> int:
    params = _resolve(args)
    grid = _parse_grid(params["np_grid"])
    m = int(params["m"])
    replicas = int(params["replicas"])
    normalize = bool(params["normalize"])
    header = ["np_over_m", "nf_over_m", *_PAIRED_METRICS, *(f"se_{c}" for c in _PAIRED_METRICS)]
    attrs = _PAIRED_METRICS.values()  # the BiasVarianceEstimate field behind each column

    rows = []
    failures = []
    for gidx, np_r in enumerate(grid):
        try:
            cfg = _base_config(params, n_p=ratio_to_count(np_r, m))
            est = bias_variance_mc(cfg, replicas, grid_idx=gidx)
        except ConfigurationError as exc:
            if replicas < 2:
                raise  # estimator precondition, not a per-point problem
            failures.append((np_r, str(exc)))
            print(f"bias-variance: grid point np_over_m={np_r} failed: {exc}", file=sys.stderr)
            continue
        scale = cfg.sigma_y_sq if normalize else 1.0
        values = [getattr(est, a) for a in attrs] + [est.standard_errors[a] for a in attrs]
        rows.append(dict(zip(header, [np_r, cfg.n_f / m] + [v / scale for v in values])))

    out = _out_dir(args)
    with open(out / "bias_variance.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_g17(v) for v in rec.values()] for rec in rows)
    paths = ["bias_variance.csv"]

    if args.plot and rows:
        xs = [r["np_over_m"] for r in rows]
        series = [
            {"label": c, "x": xs, "y": [r[c] for r in rows]}
            for c in ("geom_error", "bias_sq", "variance", "test_error")
        ]
        svg.line_chart(out / "bias_variance.svg", series, x_label="N_p / M", y_label="error", title="bias-variance decomposition", log_y=True)
        paths.append("bias_variance.svg")

    _write_manifest(
        out, "bias-variance", params, int(params["seed"]), paths + ["manifest.json"],
        extra={"point_errors": {str(k): v for k, v in failures}},
    )
    return 0 if rows else 2


def cmd_angles(args) -> int:
    params = _resolve(args)
    m = int(params["m"])
    config = _base_config(params, n_p=ratio_to_count(float(params["np_ratio"]), m))
    teacher, fmap, data, model = _single_point_model(config)
    p_f = feature_operator_from_model(model, data.X)
    analysis = analyze_operator(p_f)

    out = _out_dir(args)
    (out / "angles.json").write_text(json.dumps(analysis_to_json_dict(analysis), indent=2) + "\n")
    _write_manifest(out, "angles", params, config.seed, ["angles.json", "manifest.json"])
    return 0


def cmd_perturb(args) -> int:
    params = _resolve(args)
    m = int(params["m"])
    config = _base_config(params, n_p=ratio_to_count(float(params["np_ratio"]), m))
    teacher, fmap, data, model = _single_point_model(config)
    p_f = feature_operator_from_model(model, data.X)
    analysis = analyze_operator(p_f)
    x0 = stream_rng(config.seed, (0, 0, STREAM_TEST)).normal(
        0.0, config.sigma_x / np.sqrt(config.n_f), config.n_f
    )
    records, summary = perturbation_experiment(
        model,
        teacher,
        analysis,
        x0,
        config,
        n_pairs=int(params["pairs"]),
        eta=float(params["eta"]),
        stream_tag=(0, 0, STREAM_PERTURB),
    )

    out = _out_dir(args)
    with open(out / "perturb.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "d_y_true", "d_y_pred"])
        for rec in records:
            w.writerow([rec.kind, _g17(rec.d_y_true), _g17(rec.d_y_pred)])
    summary_out = dict(summary)
    summary_out.update({"eta": float(params["eta"]), "n_pairs": int(params["pairs"])})
    (out / "perturb_summary.json").write_text(json.dumps(summary_out, indent=2) + "\n")
    paths = ["perturb.csv", "perturb_summary.json"]

    if args.plot:
        groups = []
        for kind, color in (("adversarial", "#1f77b4"), ("invariant", "#ff7f0e")):
            recs = [r for r in records if r.kind == kind]
            groups.append(
                {
                    "label": kind,
                    "x": [r.d_y_true for r in recs],
                    "y": [r.d_y_pred for r in recs],
                    "color": color,
                    "slope": summary.get(f"slope_{kind}"),
                }
            )
        svg.scatter_chart(out / "perturb.svg", groups, x_label="dy/deta (true)", y_label="dyhat/deta (model)", title="perturbation response")
        paths.append("perturb.svg")

    _write_manifest(out, "perturb", params, config.seed, paths + ["manifest.json"])
    return 0


# ------------------------------------------------------------------ main


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON parameter file (flags override it)")
    p.add_argument("--preset", choices=sorted(PRESETS), help="named parameter bundle")
    p.add_argument("--model", choices=("identity", "linear", "relu"), help="feature family")
    p.add_argument("--m", type=int, help="training-set size M")
    p.add_argument("--nf-ratio", dest="nf_ratio", type=float, help="N_f / M")
    p.add_argument("--lambda", dest="lam", type=float, help="ridge parameter")
    p.add_argument("--snr", type=float, help="label signal-to-noise ratio")
    p.add_argument("--seed", type=int, help="base RNG seed")
    p.add_argument("--out", required=True, help="output directory")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="georeg", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="double-descent sweep over N_p/M")
    _add_common(p)
    p.add_argument("--np-grid", dest="np_grid", help="comma-separated N_p/M ratios")
    p.add_argument("--replicas", type=int, help="replicas per grid point")
    p.add_argument("--normalize", action="store_const", const=True, help="report errors in units of sigma_y^2")
    p.add_argument("--workers", type=int, help="parallel workers (default $GEOREG_WORKERS or 1)")
    p.add_argument("--plot", action="store_true", help="also write an SVG chart")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bias-variance", help="paired-replica bias/variance decomposition")
    _add_common(p)
    p.add_argument("--np-grid", dest="np_grid", help="comma-separated N_p/M ratios")
    p.add_argument("--replicas", type=int, help="replicas per grid point")
    p.add_argument("--normalize", action="store_const", const=True, help="report errors in units of sigma_y^2")
    p.add_argument("--plot", action="store_true", help="also write an SVG chart")
    p.set_defaults(func=cmd_bias_variance)

    p = sub.add_parser("angles", help="singular values and angles of one fitted operator")
    _add_common(p)
    p.add_argument("--np-ratio", dest="np_ratio", type=float, help="N_p / M")
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("perturb", help="adversarial vs invariant perturbation responses")
    _add_common(p)
    p.add_argument("--np-ratio", dest="np_ratio", type=float, help="N_p / M")
    p.add_argument("--pairs", type=int, help="number of perturbation pairs")
    p.add_argument("--eta", type=float, help="finite-difference step")
    p.add_argument("--plot", action="store_true", help="also write an SVG scatter")
    p.set_defaults(func=cmd_perturb)
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"georeg: configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ExperimentError, np.linalg.LinAlgError) as exc:
        print(f"georeg: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
