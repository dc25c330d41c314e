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
paired-replica kernel; run_bias_variance reports its one-sided reduction
over the same draws.  The P_f metrics, frob_I_minus_Pf among them, are
properties of each fit's operator analysis; sigma_Z_min and frob_I_minus_Pl
are the sigma_min and frob_complement of each fit's Factorization of Z.

One grid runner, _run_grid, serves run_sweep and run_bias_variance with one
task per (grid point, replica); only the replica kernel differs.  Every
replica runs through _replica, which drops it, returning its reason
"Type: message", when its kernel raises NumericError or LinAlgError or
returns a metric that is not finite.  A grid point fails, in point_errors,
when more than 10% of its replicas drop; SweepResult.drop_reasons counts
the reasons of every point that ran.

RNG streams are keyed by (grid-point index, replica index), and results are
reduced in replica-index order, so they do not depend on execution order.
workers defaults to 1, in-process; georeg sweep and georeg bias-variance
pass --workers, else the usable CPU count.  With workers > 1 the replicas
run in a pool of spawned processes whose BLAS is pinned to one thread; the
serial path uses the BLAS the caller loaded.  Outputs are therefore
identical across worker counts when the caller's BLAS also runs one thread
(OPENBLAS_NUM_THREADS=1).

The workers also start with glibc's MALLOC_MMAP_THRESHOLD_=33554432 and
MALLOC_TRIM_THRESHOLD_=67108864, each unless the caller has set it: fixed
thresholds keep the heap, where glibc's default hands it back and faults
each replica's arrays in afresh.  A top pad alone would not keep it, as it
turns off the dynamic mmap threshold; other allocators ignore both.

The pool is kept for the life of the process: the first pooled call starts
it, later calls at the same worker count and allocator variables reuse its
workers, any other call replaces it, and an atexit hook shuts it down, so a
process that runs several grids pays the workers' start-up once.  The pool
modules are imported by the first pooled call, so an in-process run never
loads them.  A spawned worker re-imports the caller's __main__, so a script
that runs replicas with workers > 1 still needs an
``if __name__ == "__main__":`` guard and cannot be read from stdin.
"""
from __future__ import annotations

import atexit
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .config import ExperimentConfig, check_integer, ratio_to_count
from .decomposition import _PAIRED_METRICS, _one_sided_metrics, _paired_metrics, draw_paired_replica, summarize
from .errors import ConfigurationError, ExperimentError, NumericError
from .geometry import analyze_operator, feature_operator_from_model

if TYPE_CHECKING:  # the pool modules are imported by the first pooled call
    from concurrent.futures import ProcessPoolExecutor

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

# thread-count variables read by OpenBLAS, OpenMP and MKL when they load
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc malloc thresholds for the pool workers, in bytes (see the module docstring)
_WORKER_MALLOC_VARS = {"MALLOC_MMAP_THRESHOLD_": "33554432", "MALLOC_TRIM_THRESHOLD_": "67108864"}


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
            if self.np_over_m_grid.count(r) > 1:
                raise ConfigurationError(f"np_over_m_grid repeats the ratio {r}")
        check_integer("n_replicas", self.n_replicas)
        if not isinstance(self.normalize, bool):
            raise ConfigurationError(f"normalize must be a bool, got {self.normalize!r}")


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


@dataclass(frozen=True)
class SweepResult:
    rows: tuple = field(default_factory=tuple)
    point_errors: dict = field(default_factory=dict)
    # {(np_over_m, nf_over_m): {reason: count}} over the dropped replicas of every point that ran
    drop_reasons: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    worker_blas_threads: int | None = None  # 1 in pool workers; None when run in-process
    worker_malloc_vars: dict | None = None  # the allocator variables the workers started with; None in-process


# ------------------------------------------------------------- plumbing


def _replica_metrics(config: ExperimentConfig, grid_idx: int, replica_idx: int) -> dict:
    """Every metric in ALL_METRICS for one paired replica (run_sweep's kernel)."""
    draw = draw_paired_replica(config, grid_idx, replica_idx)
    models = draw.models
    out = _paired_metrics(draw, symmetric=True)
    per_fit = {
        "sigma_Z_min": [m.factors.sigma_min for m in models],
        "frob_I_minus_Pl": [m.factors.frob_complement for m in models],
    }
    analyses = [analyze_operator(feature_operator_from_model(m, d.X)) for m, d in zip(models, draw.trains)]
    if any(a.rank == 0 for a in analyses):
        raise NumericError("P_f has rank 0")
    for name in ("frob_I_minus_Pf", "sigma_max", "theta_max_deg", "delta_phi_max_deg"):
        per_fit[name] = [getattr(a, name) for a in analyses]
    out.update({name: 0.5 * (v1 + v2) for name, (v1, v2) in per_fit.items()})
    return out


def _replica(kernel, config: ExperimentConfig, grid_idx: int, replica_idx: int) -> dict | str:
    """kernel's metrics of one replica as floats, or the reason it is dropped (see the module docstring)."""
    try:
        metrics = kernel(config, grid_idx, replica_idx)
    except (NumericError, np.linalg.LinAlgError) as exc:
        return f"{type(exc).__name__}: {exc}"
    bad = [k for k, v in metrics.items() if not np.isfinite(v)]
    if bad:
        return f"NumericError: non-finite replica metrics: {', '.join(bad)}"
    return {k: float(v) for k, v in metrics.items()}


# ------------------------------------------------------------------ run


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextmanager
def _worker_env():
    """The pool workers' environment for the processes started inside; os.environ
    is restored after.

    The BLAS thread variables are set to 1, and each allocator variable of
    _WORKER_MALLOC_VARS to its value where the caller has not set it.  Yields
    the allocator variables in effect.  os.environ belongs to the whole
    process, so other threads see these values while the block runs.
    """
    saved = {name: os.environ.get(name) for name in (*_BLAS_THREAD_VARS, *_WORKER_MALLOC_VARS)}
    try:
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        for name, value in _WORKER_MALLOC_VARS.items():
            os.environ.setdefault(name, value)
        yield {name: os.environ[name] for name in _WORKER_MALLOC_VARS}
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


# The process's replica pool, kept across calls: (executor, workers, pid of
# the process that started it, allocator variables its workers start with),
# or None before the first pooled call.
_pool: tuple | None = None
_pool_lock = threading.Lock()


def _kept_pool(workers: int, malloc_vars: dict) -> ProcessPoolExecutor:
    """The kept pool of `workers` spawned workers started under `malloc_vars`,
    started or replaced as needed; call with _pool_lock held, inside
    _worker_env.  A replaced pool is shut down after its pending work
    finishes, or only dropped if another process (whose fork this is) started it.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _pool
    pid = os.getpid()
    if _pool is not None and _pool[1:] == (workers, pid, malloc_vars):
        return _pool[0]
    if _pool is not None and _pool[2] == pid:
        _pool[0].shutdown()
    _pool = (ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")), workers, pid, malloc_vars)
    return _pool[0]


@atexit.register
def _shut_down_pool() -> None:
    """Shut this process's kept pool down at exit.

    atexit runs before the interpreter unloads modules, so the pool's own
    finalizers still find the modules they use, which the first pooled call
    imported after this one.
    """
    global _pool
    if _pool is not None and _pool[2] == os.getpid():
        pool, _pool = _pool[0], None
        pool.shutdown()


def _discard_pool(pool: ProcessPoolExecutor) -> None:
    """Forget the kept pool if it is `pool`, so that the next call starts a new one."""
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[0] is pool:
            _pool = None
    pool.shutdown(cancel_futures=True)


def _run_pooled(kernel, tasks: list, workers: int) -> tuple[list, dict]:
    """(_replica(kernel, *task) for every (config, grid_idx, replica_idx) task,
    in task order; the allocator variables the workers started with).

    Tasks go to the kept pool costliest (largest n_p) first, so that the last
    to finish are short.  Its workers start lazily, inside submit, so every
    submit runs inside _worker_env, whose variables BLAS and glibc read once,
    as a worker starts.  A pool that dies is discarded and raises
    ExperimentError; any other exception, KeyboardInterrupt included,
    cancels this call's pending tasks and leaves the pool to later calls.
    """
    from concurrent.futures.process import BrokenProcessPool

    order = sorted(range(len(tasks)), key=lambda i: -tasks[i][0].n_p)
    futures = {}
    try:
        with _pool_lock, _worker_env() as malloc_vars:
            pool = _kept_pool(workers, malloc_vars)
            for i in order:
                futures[i] = pool.submit(_replica, kernel, *tasks[i])
        return [futures[i].result() for i in range(len(tasks))], malloc_vars
    except BrokenProcessPool as exc:
        _discard_pool(pool)
        raise ExperimentError(
            "the replica pool died. Each worker re-imports the calling script, so a script "
            "that calls run_sweep or cli.main with workers > 1 must do so under "
            '`if __name__ == "__main__":` and cannot be read from stdin; workers=1 runs '
            "in-process"
        ) from exc
    except BaseException:
        for future in futures.values():
            future.cancel()
        raise


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Execute the sweep; infeasible points are recorded, not fatal.

    A grid point fails (recorded in point_errors) if its config is invalid or
    on its dropped replicas (see the module docstring).  Aggregation is an
    ordered reduction over replica indices, so output does not depend on the
    order in which replicas finish.

    workers is an integer >= 1.  There is one task per (grid point,
    replica); when min(workers, tasks) > 1 they run in a pool of that many
    spawned processes with BLAS pinned to one thread and glibc's allocator
    set to keep its heap, and a pool that dies raises ExperimentError.
    """
    return _run_grid(spec, workers, _replica_metrics, ALL_METRICS)


def run_bias_variance(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """run_sweep in decomposition's one-sided reduction: each row reports the
    five _PAIRED_METRICS (georeg bias-variance).  n_replicas must be >= 2."""
    if spec.n_replicas < 2:
        raise ConfigurationError(f"n_replicas must be >= 2, got {spec.n_replicas}")
    return _run_grid(spec, workers, _one_sided_metrics, _PAIRED_METRICS)


def _run_grid(spec: SweepSpec, workers: int, kernel, metrics: tuple) -> SweepResult:
    """spec's grid with kernel as the replica kernel, reporting metrics."""
    check_integer("workers", workers)
    t0 = time.perf_counter()
    base, n = spec.base_config, spec.n_replicas
    nf_r = base.n_f / base.m

    configs: dict[int, tuple[float, ExperimentConfig]] = {}  # in grid order
    point_errors: dict[tuple[float, float], str] = {}  # keyed (np_over_m, nf_over_m)
    for gidx, np_r in enumerate(spec.np_over_m_grid):
        try:
            configs[gidx] = (np_r, replace(base, n_p=ratio_to_count(np_r, base.m)))
        except ConfigurationError as exc:
            point_errors[(np_r, nf_r)] = str(exc)

    tasks = [(cfg, gidx, r) for gidx, (_, cfg) in configs.items() for r in range(n)]
    workers = min(workers, len(tasks))
    replicas, malloc_vars = _run_pooled(kernel, tasks, workers) if workers > 1 else ([_replica(kernel, *t) for t in tasks], None)

    # spec.normalize divides the paired metrics by sigma_y^2; dividing by 1.0
    # leaves a metric's bits unchanged
    div = {name: base.sigma_y_sq if spec.normalize and name in _PAIRED_METRICS else 1.0 for name in metrics}
    rows, drop_reasons = [], {}
    for k, (np_r, cfg) in enumerate(configs.values()):
        point = replicas[k * n:(k + 1) * n]
        kept = [r for r in point if isinstance(r, dict)]
        drop_reasons[(np_r, nf_r)] = dict(Counter(r for r in point if isinstance(r, str)))
        if n - len(kept) > 0.1 * n:
            point_errors[(np_r, nf_r)] = f"{n - len(kept)}/{n} replicas degenerate"
            continue
        stats = {name: summarize([r[name] for r in kept]) for name in metrics}
        rows.append(
            SweepRow(
                np_over_m=float(np_r),
                nf_over_m=float(nf_r),
                n_p=cfg.n_p,
                n_f=cfg.n_f,
                means={name: mean / div[name] for name, (mean, _) in stats.items()},
                standard_errors={name: se / div[name] for name, (_, se) in stats.items()},
                n_effective=len(kept),
            )
        )
    return SweepResult(
        rows=tuple(rows),
        point_errors=point_errors,
        drop_reasons=drop_reasons,
        elapsed_seconds=time.perf_counter() - t0,
        worker_blas_threads=1 if workers > 1 else None,
        worker_malloc_vars=malloc_vars,
    )
