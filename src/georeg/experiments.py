"""Double-descent sweeps: replicate, measure, and aggregate diagnostics.

A sweep walks a grid of (N_p/M, N_f/M) ratios.  Each grid point runs
n_replicas independent paired replicas (fresh teacher, weights, and data —
see decomposition.draw_paired_replica) and records per-replica values of the
requested metrics:

    train_error, test_error      mean squared residuals (fresh test noise)
    geom_error, bias_sq, variance   geometric decomposition on the test set
    frob_I_minus_Pl, frob_I_minus_Pf   |I - P|_F complements
    sigma_Z_min                  smallest retained singular value of Z
    sigma_max, theta_max_deg, delta_phi_max_deg   leading P_f mode

Every metric except bias_sq is evaluated on both fits of the pair and
averaged; bias_sq is the cross product, already symmetric.  The pair is
exchangeable, so this changes no mean, but per-replica bias_sq + variance
then telescopes exactly to geom_error, and reported standard errors shrink.
The five error metrics are the symmetric reduction of decomposition's
paired-replica kernel, the same per-replica products that bias_variance_mc
reduces one-sidedly; the P_f metrics read the replica's cached operators.

RNG streams are keyed by (grid-point index, replica index), so results do
not depend on execution order or worker count.
"""
from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig, ratio_to_count
from .decomposition import _paired_metrics, draw_paired_replica
from .errors import ConfigurationError, NumericError, ShapeError
from .geometry import _frob_complement, analyze_operator
from .linreg_core import _spectral_filter

ALL_METRICS = (
    "train_error",
    "test_error",
    "geom_error",
    "bias_sq",
    "variance",
    "frob_I_minus_Pl",
    "frob_I_minus_Pf",
    "sigma_Z_min",
    "sigma_max",
    "theta_max_deg",
    "delta_phi_max_deg",
)

# metrics divided by sigma_y^2 when a sweep is normalized
NORMALIZED_METRICS = frozenset(
    {"train_error", "test_error", "geom_error", "bias_sq", "variance"}
)

_ANGLE_METRICS = frozenset({"sigma_max", "theta_max_deg", "delta_phi_max_deg"})


# ---------------------------------------------------------- sweep definition


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: base config, ratio grids, replication, and metrics."""

    base_config: ExperimentConfig
    np_over_m_grid: tuple
    nf_over_m_grid: tuple = ()  # empty: keep base_config.n_f fixed
    n_replicas: int = 100
    metrics: tuple = ALL_METRICS
    normalize: bool = False

    def __post_init__(self):
        object.__setattr__(self, "np_over_m_grid", tuple(self.np_over_m_grid))
        object.__setattr__(self, "nf_over_m_grid", tuple(self.nf_over_m_grid))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        if not self.np_over_m_grid:
            raise ConfigurationError("np_over_m_grid must not be empty")
        for r in self.np_over_m_grid + self.nf_over_m_grid:
            if r <= 0:
                raise ConfigurationError(f"grid ratios must be positive, got {r}")
        if self.n_replicas < 1:
            raise ConfigurationError(f"n_replicas must be >= 1, got {self.n_replicas}")
        unknown = set(self.metrics) - set(ALL_METRICS)
        if unknown:
            raise ConfigurationError(f"unknown metrics: {sorted(unknown)}")

    def grid_points(self) -> list[tuple[int, float, float]]:
        """(grid index, np_over_m, nf_over_m) in deterministic order."""
        m = self.base_config.m
        nf_grid = self.nf_over_m_grid or (self.base_config.n_f / m,)
        return [
            (i, np_r, nf_r)
            for i, (np_r, nf_r) in enumerate(
                (a, b) for a in self.np_over_m_grid for b in nf_grid
            )
        ]


@dataclass(frozen=True)
class SweepRow:
    """Aggregated metrics for one grid point."""

    np_over_m: float
    nf_over_m: float
    n_p: int
    n_f: int
    means: dict
    standard_errors: dict
    n_effective: int
    n_dropped: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple = field(default_factory=tuple)
    point_errors: dict = field(default_factory=dict)
    n_replicas: int = 0
    elapsed_seconds: float = 0.0
    metrics: tuple = ALL_METRICS
    normalized: bool = False


# ------------------------------------------------------------- plumbing


def summarize(values) -> tuple[float, float]:
    """(mean, standard error); standard error is 0 for a single value."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ConfigurationError("summarize needs at least one value")
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))


def metric_frobenius_complements(p_l: np.ndarray, p_f: np.ndarray) -> tuple[float, float]:
    """(|I - P_l|_F, |I - P_f|_F)."""
    out = []
    for name, p in (("P_l", p_l), ("P_f", p_f)):
        p = np.asarray(getattr(p, "p_l", p), dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ShapeError(f"{name} must be square, got shape {p.shape}")
        out.append(_frob_complement(p))
    return out[0], out[1]


def _frob_complement_from_fit(model) -> float:
    """|I - P_l|_F via the Gram identity, reusing the fit's SVD.

    |I - U U^T|_F^2 = M - 2 |U|_F^2 + |U^T U|_F^2 for the retained columns U,
    which measures the same matrix without forming it.
    """
    u, s, _ = model.svd
    ur = u[:, _spectral_filter(s, 0.0, model.rel_tol)[0]]
    m = u.shape[0]
    sq = m - 2.0 * np.sum(ur * ur) + np.sum((ur.T @ ur) ** 2)
    return float(np.sqrt(max(sq, 0.0)))


def _replica_metrics(
    config: ExperimentConfig, grid_idx: int, replica_idx: int, metrics: frozenset
) -> dict | None:
    """All requested metrics for one paired replica; None if degenerate."""
    try:
        return _replica_metrics_inner(config, grid_idx, replica_idx, metrics)
    except (NumericError, np.linalg.LinAlgError):
        return None


def _replica_metrics_inner(
    config: ExperimentConfig, grid_idx: int, replica_idx: int, metrics: frozenset
) -> dict | None:
    draw = draw_paired_replica(config, grid_idx, replica_idx)
    models = (draw.model_1, draw.model_2)
    out = _paired_metrics(draw, symmetric=True, wanted=metrics)

    if "sigma_Z_min" in metrics:
        out["sigma_Z_min"] = 0.5 * (models[0].sigma_z_min + models[1].sigma_z_min)
    if "frob_I_minus_Pl" in metrics:
        out["frob_I_minus_Pl"] = 0.5 * (
            _frob_complement_from_fit(models[0]) + _frob_complement_from_fit(models[1])
        )
    if "frob_I_minus_Pf" in metrics:
        out["frob_I_minus_Pf"] = 0.5 * (
            _frob_complement(draw.p_fs[0]) + _frob_complement(draw.p_fs[1])
        )
    if metrics & _ANGLE_METRICS:
        analyses = [analyze_operator(p) for p in draw.p_fs]
        if any(a.rank == 0 for a in analyses):
            return None
        for name in metrics & _ANGLE_METRICS:
            out[name] = 0.5 * (getattr(analyses[0], name) + getattr(analyses[1], name))

    vals = np.array([out[k] for k in out], dtype=float)
    if not np.all(np.isfinite(vals)):
        return None
    return {k: float(v) for k, v in out.items()}


def _replica_task(args) -> tuple[int, int, dict | None]:
    config, grid_idx, replica_idx, metrics = args
    return grid_idx, replica_idx, _replica_metrics(config, grid_idx, replica_idx, metrics)


# ------------------------------------------------------------------ run


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Execute the sweep; infeasible points are recorded, not fatal.

    A grid point fails (recorded in point_errors) if its config is invalid or
    if more than 10% of its replicas come back degenerate.  Aggregation is an
    ordered reduction over replica indices, so output is identical for any
    worker count.
    """
    if workers is None:
        env = os.environ.get("GEOREG_WORKERS", "1") or "1"
        try:
            workers = int(env)
        except ValueError:
            raise ConfigurationError(f"GEOREG_WORKERS must be an integer, got {env!r}") from None
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    t0 = time.perf_counter()
    base = spec.base_config
    m = base.m
    metric_set = frozenset(spec.metrics)

    configs: dict[int, tuple[float, float, ExperimentConfig]] = {}
    point_errors: dict[tuple[float, float], str] = {}
    for gidx, np_r, nf_r in spec.grid_points():
        try:
            cfg = base.with_updates(
                n_p=ratio_to_count(np_r, m), n_f=ratio_to_count(nf_r, m)
            )
        except ConfigurationError as exc:
            point_errors[(np_r, nf_r)] = str(exc)
            continue
        configs[gidx] = (np_r, nf_r, cfg)

    tasks = [
        (cfg, gidx, r, metric_set)
        for gidx, (_, _, cfg) in sorted(configs.items())
        for r in range(spec.n_replicas)
    ]
    per_point: dict[int, list] = {gidx: [] for gidx in configs}
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for gidx, _, res in pool.map(_replica_task, tasks, chunksize=4):
                per_point[gidx].append(res)
    else:
        for task in tasks:
            gidx, _, res = _replica_task(task)
            per_point[gidx].append(res)

    scale = base.sigma_y_sq if spec.normalize else 1.0
    rows = []
    for gidx in sorted(configs):
        np_r, nf_r, cfg = configs[gidx]
        results = [r for r in per_point[gidx] if r is not None]
        n_dropped = spec.n_replicas - len(results)
        if n_dropped > 0.1 * spec.n_replicas:
            point_errors[(np_r, nf_r)] = (
                f"{n_dropped}/{spec.n_replicas} replicas degenerate"
            )
            continue
        means, ses = {}, {}
        for name in spec.metrics:
            mean, se = summarize([r[name] for r in results])
            if name in NORMALIZED_METRICS:
                mean, se = mean / scale, se / scale
            means[name] = mean
            ses[name] = se
        rows.append(
            SweepRow(
                np_over_m=float(np_r),
                nf_over_m=float(nf_r),
                n_p=cfg.n_p,
                n_f=cfg.n_f,
                means=means,
                standard_errors=ses,
                n_effective=len(results),
                n_dropped=n_dropped,
            )
        )
    return SweepResult(
        rows=tuple(rows),
        point_errors=point_errors,
        n_replicas=spec.n_replicas,
        elapsed_seconds=time.perf_counter() - t0,
        metrics=spec.metrics,
        normalized=spec.normalize,
    )
