"""Double-descent sweeps: replicate, measure, and aggregate diagnostics.

A sweep walks a grid of N_p/M ratios at the base config's N_f.  Each grid
point runs n_replicas independent paired replicas (fresh teacher, weights,
and data — see decomposition.draw_paired_replica) and records per-replica
values of every metric in ALL_METRICS:

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
reduces one-sidedly; the P_f metrics, frob_I_minus_Pf among them, are
properties of each cached operator's analysis; sigma_Z_min and
frob_I_minus_Pl read each fit's stored factorization of Z.

RNG streams are keyed by (grid-point index, replica index), and results are
reduced in replica-index order, so they do not depend on execution order.
With workers > 1 the replicas run in a pool of spawned processes whose BLAS
is pinned to one thread; the serial path uses the BLAS the caller loaded.
Outputs are therefore identical across worker counts when the caller's BLAS
also runs one thread (OPENBLAS_NUM_THREADS=1).  A spawned worker re-imports
the caller's __main__, so a script that sweeps with workers > 1 needs an
``if __name__ == "__main__":`` guard and cannot be read from stdin.
"""
from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig, ratio_to_count
from .decomposition import _paired_metrics, draw_paired_replica, summarize
from .errors import ConfigurationError, ExperimentError, NumericError
from .geometry import analyze_operator

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

# thread-count variables read by OpenBLAS, OpenMP and MKL when they load
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------- sweep definition


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: base config, N_p/M grid, and replication."""

    base_config: ExperimentConfig
    np_over_m_grid: tuple
    n_replicas: int = 100
    normalize: bool = False

    def __post_init__(self):
        object.__setattr__(self, "np_over_m_grid", tuple(self.np_over_m_grid))
        if not self.np_over_m_grid:
            raise ConfigurationError("np_over_m_grid must not be empty")
        for r in self.np_over_m_grid:
            if not 0 < r < np.inf:
                raise ConfigurationError(f"grid ratios must be finite and > 0, got {r}")
        if not isinstance(self.n_replicas, (int, np.integer)) or self.n_replicas < 1:
            raise ConfigurationError(f"n_replicas must be a positive integer, got {self.n_replicas!r}")


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
    normalized: bool = False
    worker_blas_threads: int | None = None  # 1 in pool workers; None when run in-process


# ------------------------------------------------------------- plumbing


def _frob_complement_from_fit(model) -> float:
    """|I - P_l|_F via the Gram identity, from the fit's kept modes.

    |I - U U^T|_F^2 = M - 2 |U|_F^2 + |U^T U|_F^2 for the kept columns U of
    Z's factorization, which measures the same matrix without forming it.
    """
    ur = model.factors.U_k
    sq = ur.shape[0] - 2.0 * np.sum(ur * ur) + np.sum((ur.T @ ur) ** 2)
    return float(np.sqrt(max(sq, 0.0)))


def _replica_metrics(config: ExperimentConfig, grid_idx: int, replica_idx: int) -> dict | None:
    """Every metric in ALL_METRICS for one paired replica; None if degenerate."""
    try:
        draw = draw_paired_replica(config, grid_idx, replica_idx)
        models = (draw.model_1, draw.model_2)
        out = _paired_metrics(draw, symmetric=True)
        per_fit = {
            "sigma_Z_min": [m.sigma_z_min for m in models],
            "frob_I_minus_Pl": [_frob_complement_from_fit(m) for m in models],
        }
        analyses = [analyze_operator(p) for p in draw.p_fs]
    except (NumericError, np.linalg.LinAlgError):
        return None
    if any(a.rank == 0 for a in analyses):
        return None
    for name in ("frob_I_minus_Pf", "sigma_max", "theta_max_deg", "delta_phi_max_deg"):
        per_fit[name] = [getattr(a, name) for a in analyses]
    out.update({name: 0.5 * (v1 + v2) for name, (v1, v2) in per_fit.items()})
    vals = np.array(list(out.values()), dtype=float)
    if not np.all(np.isfinite(vals)):
        return None
    return {k: float(v) for k, v in out.items()}


# ------------------------------------------------------------------ run


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _resolve_workers(workers: int | None, fallback: int) -> int:
    """workers if given, else $GEOREG_WORKERS if set and non-empty, else fallback."""
    if workers is None:
        env = os.environ.get("GEOREG_WORKERS", "")
        try:
            workers = int(env) if env else fallback
        except ValueError:
            raise ConfigurationError(f"GEOREG_WORKERS must be an integer, got {env!r}") from None
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return workers


@contextmanager
def _blas_pinned_env():
    """Set the BLAS thread variables to 1 for processes started inside; restore them after.

    os.environ belongs to the whole process, so other threads see the pinned
    values while the block runs.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    try:
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _run_pooled(tasks: list, workers: int) -> list:
    """_replica_metrics of every (config, grid_idx, replica_idx) task, in task order.

    One task per replica, submitted costliest (largest n_p) first so that the
    last tasks to finish are short.  Every worker starts while the BLAS
    variables are pinned: BLAS reads them once, when the worker imports numpy.
    """
    order = sorted(range(len(tasks)), key=lambda i: -tasks[i][0].n_p)
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        with _blas_pinned_env():
            futures = {i: pool.submit(_replica_metrics, *tasks[i]) for i in order}
        return [futures[i].result() for i in range(len(tasks))]
    except BrokenProcessPool as exc:
        raise ExperimentError(
            "the sweep's worker pool died. Each worker re-imports the calling script, so "
            "a script that calls run_sweep with workers > 1 must do so under "
            '`if __name__ == "__main__":` and cannot be read from stdin; workers=1 runs '
            "in-process"
        ) from exc
    finally:
        pool.shutdown(cancel_futures=True)


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Execute the sweep; infeasible points are recorded, not fatal.

    A grid point fails (recorded in point_errors) if its config is invalid or
    if more than 10% of its replicas come back degenerate.  Aggregation is an
    ordered reduction over replica indices, so output does not depend on the
    order in which replicas finish.

    workers defaults to $GEOREG_WORKERS, else 1.  There is one task per
    (grid point, replica); when min(workers, tasks) > 1 they run in a pool of
    that many spawned processes with BLAS pinned to one thread, and a pool
    that dies raises ExperimentError.
    """
    workers = _resolve_workers(workers, fallback=1)
    t0 = time.perf_counter()
    base = spec.base_config
    m = base.m
    nf_r = base.n_f / m

    configs: dict[int, tuple[float, ExperimentConfig]] = {}
    point_errors: dict[tuple[float, float], str] = {}  # keyed (np_over_m, nf_over_m)
    for gidx, np_r in enumerate(spec.np_over_m_grid):
        try:
            cfg = base.with_updates(n_p=ratio_to_count(np_r, m))
        except ConfigurationError as exc:
            point_errors[(np_r, nf_r)] = str(exc)
            continue
        configs[gidx] = (np_r, cfg)

    tasks = [(configs[gidx][1], gidx, r) for gidx in sorted(configs) for r in range(spec.n_replicas)]
    workers = min(workers, len(tasks))
    if workers > 1:
        replicas = _run_pooled(tasks, workers)
    else:
        replicas = [_replica_metrics(*task) for task in tasks]
    per_point: dict[int, list] = {gidx: [] for gidx in configs}
    for (_, gidx, _), res in zip(tasks, replicas):
        per_point[gidx].append(res)

    scale = base.sigma_y_sq if spec.normalize else 1.0
    rows = []
    for gidx in sorted(configs):
        np_r, cfg = configs[gidx]
        results = [r for r in per_point[gidx] if r is not None]
        n_dropped = spec.n_replicas - len(results)
        if n_dropped > 0.1 * spec.n_replicas:
            point_errors[(np_r, nf_r)] = (
                f"{n_dropped}/{spec.n_replicas} replicas degenerate"
            )
            continue
        means, ses = {}, {}
        for name in ALL_METRICS:
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
        normalized=spec.normalize,
        worker_blas_threads=1 if workers > 1 else None,
    )
