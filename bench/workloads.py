"""The benchmark's workloads: the CLI calls of one pass and the checks on their outputs.

A pass is the list of ``georeg`` commands a workload runs back to back.  Each
command writes into its own directory under the pass's output directory.
The checks read only those files, so they hold for any seed:

* ``sweep_acceptance``: all 8 grid rows are present and, per row,
  ``bias_sq + variance = geom_error`` to round-off (the symmetric estimator
  telescopes exactly per replica).
* ``bv_underparam``: ``geom - bias - var`` lies within ``BV_SE_MULTIPLE``
  combined standard errors.  The one-sided estimator holds only in
  expectation; over 40 seeds the largest gap was 2.2 SE.
* ``single_point``: for the linear family ``|sigma_i cos theta_i - 1|`` stays
  below ``OBLIQUE_TOL`` on every mode, and the perturbation run skips no
  degenerate pair and correlates more on the adversarial than on the
  invariant side.  ``delta_phi`` is not checked: at lambda = 1e-8 the leading
  mode deviates by about 1e-9, so its direction carries no information.

At the default seed the outputs are also compared with ``reference.json``.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 2
SWEEP_GRID = "0.25,0.5,0.75,1,1.5,2,3,4"
BV_GRID = "0.25,0.5,0.75"
# Replicas per pass.  A sweep pass at 4 replicas takes about 2.5 s on a
# 2-core box; the bias-variance check needs 20 for a usable standard error.
SWEEP_REPLICAS = 4
BV_REPLICAS = 20
PERTURB_PAIRS = 200
TINY = {"m": "32", "sweep_replicas": 2, "bv_replicas": 8, "pairs": 20}

# The telescoping identity holds per replica in exact arithmetic; the
# largest relative gap seen is 2e-15.
TELESCOPE_RTOL = 1e-12
BV_SE_MULTIPLE = 4.0
# sigma cos theta = 1 is exact for the oblique projector of a minimum-norm
# fit.  The ridge filter at lambda = 1e-8 shrinks every mode by about
# lambda / s_r(Z)^2, measured 0.9e-8 to 1.6e-8 on 52 seeds, so the bound
# sits an order of magnitude above that rather than at 1e-8.
OBLIQUE_TOL = 1e-7

def pass_commands(workload: str, seed: int, tiny: bool = False) -> list[tuple[str, list[str]]]:
    """(label, argv without --out) for each command of one pass."""
    m = TINY["m"] if tiny else "256"
    common = ["--m", m, "--seed", str(seed)]
    if workload == "sweep_acceptance":
        reps = TINY["sweep_replicas"] if tiny else SWEEP_REPLICAS
        return [("sweep", ["sweep", "--model", "relu", *common, "--nf-ratio", "0.25", "--np-grid", SWEEP_GRID,
                           "--normalize", "--plot", "--replicas", str(reps)])]
    if workload == "bv_underparam":
        reps = TINY["bv_replicas"] if tiny else BV_REPLICAS
        return [("bias_variance", ["bias-variance", "--model", "relu", *common, "--nf-ratio", "0.25",
                                   "--np-grid", BV_GRID, "--replicas", str(reps)])]
    if workload == "single_point":
        pairs = TINY["pairs"] if tiny else PERTURB_PAIRS
        return [
            ("angles", ["angles", "--model", "linear", *common, "--nf-ratio", "0.25", "--np-ratio", "2"]),
            ("perturb", ["perturb", "--model", "relu", *common, "--nf-ratio", "1.2", "--np-ratio", "3",
                         "--pairs", str(pairs), "--eta", "1e-2", "--plot"]),
        ]
    raise KeyError(workload)


@dataclass
class CheckReport:
    """Outcome of the checks on one pass's outputs."""

    checks: dict = field(default_factory=dict)  # name -> (ok, detail)
    replicas_attempted: int = 0
    replicas_kept: int = 0
    points_attempted: int = 0
    points_failed: int = 0
    values: dict = field(default_factory=dict)  # what reference.json compares
    notes: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.checks[name] = (bool(ok), detail)

    @property
    def failed_checks(self) -> int:
        return sum(1 for ok, _ in self.checks.values() if not ok)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(out: Path, replicas: int, rep: CheckReport) -> None:
    rows = _rows(out / "sweep" / "sweep.csv")
    n_points = len(SWEEP_GRID.split(","))
    rep.points_attempted += n_points
    rep.points_failed += n_points - len(rows)
    rep.replicas_attempted += n_points * replicas
    rep.replicas_kept += sum(int(r["n_effective"]) for r in rows)
    rep.add("sweep.rows_present", len(rows) == n_points, f"{len(rows)}/{n_points} rows")
    worst = 0.0
    for r in rows:
        g, b, v = (float(r[k]) for k in ("geom_error", "bias_sq", "variance"))
        worst = max(worst, abs(b + v - g) / max(abs(b) + abs(v) + abs(g), 1e-300))
        for k, val in r.items():
            if k not in ("np_over_m", "nf_over_m"):
                rep.values[f"sweep.{r['np_over_m']}.{k}"] = float(val)
    rep.add("sweep.bias_variance_telescopes", worst <= TELESCOPE_RTOL,
            f"max |bias_sq + variance - geom_error| / scale = {worst:.2e} (bound {TELESCOPE_RTOL:g})")


def check_bias_variance(out: Path, replicas: int, rep: CheckReport) -> None:
    rows = _rows(out / "bias_variance" / "bias_variance.csv")
    n_points = len(BV_GRID.split(","))
    rep.points_attempted += n_points
    rep.points_failed += n_points - len(rows)
    rep.replicas_attempted += n_points * replicas
    rep.replicas_kept += len(rows) * replicas
    rep.add("bv.rows_present", len(rows) == n_points, f"{len(rows)}/{n_points} rows")
    worst = 0.0
    for r in rows:
        gap = float(r["geom_error"]) - float(r["bias_sq"]) - float(r["variance"])
        se = math.sqrt(sum(float(r[k]) ** 2 for k in ("se_geom_error", "se_bias_sq", "se_variance")))
        worst = max(worst, abs(gap) / se if se > 0 else math.inf)
        for k, val in r.items():
            if k not in ("np_over_m", "nf_over_m"):
                rep.values[f"bv.{r['np_over_m']}.{k}"] = float(val)
    rep.add("bv.one_sided_identity", worst <= BV_SE_MULTIPLE,
            f"max |geom - bias - var| = {worst:.2f} combined SE (bound {BV_SE_MULTIPLE:g})")


def check_single_point(out: Path, rep: CheckReport) -> None:
    angles = json.loads((out / "angles" / "angles.json").read_text())
    dev = max(
        (abs(s * math.cos(math.radians(t)) - 1.0) for s, t in zip(angles["sigma"], angles["theta_deg"])),
        default=math.inf,
    )
    rep.add("angles.oblique_identity", dev <= OBLIQUE_TOL,
            f"max |sigma cos theta - 1| = {dev:.2e} over {len(angles['sigma'])} modes (bound {OBLIQUE_TOL:g})")
    rep.notes.append(f"angles: delta_phi_max_deg = {angles['delta_phi_max_deg']} (not checked)")
    for k in ("sigma_max", "theta_max_deg", "frob_I_minus_Pf"):
        rep.values[f"angles.{k}"] = angles[k]
    summary = json.loads((out / "perturb" / "perturb_summary.json").read_text())
    rep.add("perturb.no_degenerate_pairs", summary["skipped_degenerate"] == 0,
            f"skipped_degenerate = {summary['skipped_degenerate']}")
    rep.add("perturb.adversarial_beats_invariant", summary["corr_adversarial"] > summary["corr_invariant"],
            f"corr_adversarial {summary['corr_adversarial']:.3f} vs corr_invariant {summary['corr_invariant']:.3f}")
    for k in ("corr_adversarial", "corr_invariant", "slope_adversarial", "slope_invariant"):
        rep.values[f"perturb.{k}"] = summary[k]


def check_pass(workload: str, out: Path, tiny: bool = False) -> CheckReport:
    rep = CheckReport()
    if workload == "sweep_acceptance":
        check_sweep(out, TINY["sweep_replicas"] if tiny else SWEEP_REPLICAS, rep)
    elif workload == "bv_underparam":
        check_bias_variance(out, TINY["bv_replicas"] if tiny else BV_REPLICAS, rep)
    else:
        check_single_point(out, rep)
    return rep


def compare_reference(workload: str, rep: CheckReport, ref_path: Path) -> None:
    """Compare the default-seed outputs with the stored reference values.

    A value passes when ``|got - want| <= rtol |want| + atol``; ``atol`` covers
    the train errors above the interpolation threshold, which are round-off.
    Values listed under ``recorded`` are reported next to their reference
    but not asserted.
    """
    ref = json.loads(ref_path.read_text())
    entry = ref["workloads"][workload]
    rtol, atol = ref["rtol"], ref["atol"]
    bad, missing = [], []
    for key, want in entry["values"].items():
        got = rep.values.get(key)
        if got is None:
            missing.append(key)
        elif key in entry["recorded"]:
            rep.notes.append(f"recorded, not asserted: {key} = {got!r} (reference {want!r}): {entry['recorded'][key]}")
        elif abs(got - want) > rtol * abs(want) + atol:
            bad.append(f"{key} = {got!r} (reference {want!r})")
    asserted = len(entry["values"]) - len(entry["recorded"])
    detail = f"{asserted - len(bad) - len(missing)}/{asserted} asserted values within rtol {rtol:g} + atol {atol:g}"
    if bad or missing:
        detail += f"; off: {bad[:5]}; missing: {missing[:5]}"
    rep.add(f"{workload}.reference_seed_{DEFAULT_SEED}", not bad and not missing, detail)
