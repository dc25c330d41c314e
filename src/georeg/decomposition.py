"""Geometric test error and its Monte-Carlo bias-variance decomposition.

The geometric test error of a fitted model at input x is (delta_x . beta)^2,
the squared label error committed by replacing x with what the model
perceives, x_hat = P_f x.  Averaged over training sets D it splits as

    E_D[(x.beta - x_hat.beta)^2] = Bias^2 + Var
    Bias^2 = E[(x - x_hat).beta]^2          Var = Var_D[x_hat.beta]

Both are estimated with PAIRED training sets: each replica draws one teacher
and one weight matrix, then two independent training sets D1, D2 and a test
set.  Because the two fits are exchangeable and independent given the
teacher, products across the pair are unbiased for the squared means:

    Bias^2 ~ mean[(T - A1)(T - A2)]      A_k = x_hat_k . beta,  T = x . beta
    Var    ~ mean[A1^2] - mean[A1 A2]

One private per-replica kernel, _paired_metrics, forms these products: T,
A1, A2 and the test residuals once per call.  A_k reads P_f only through
beta_hat_k = P_f^T beta = W G (X_k beta), the teacher as fit k perceives
it.  So draw_paired_replica solves each fit for the two columns
[y_k, X_k beta] at once, which gives w_hat = G y_k and G (X_k beta) from one
LU of K on the Gram route, and keeps both beta_hats; paired_projections
only multiplies them by X_test.  The N_f x N_f operator is never built for
these products.  PairedDraw.p_fs builds it, with a solve of its own, once
per replica for the sweep's analyze_operator, its only reader.

The kernel has two reductions over the same draws.  The one-sided one
(_one_sided_metrics), which bias_variance_mc and georeg bias-variance
report, takes E_geom, the variance and the train and test errors from the
D1 fit alone, keeping the estimator exactly the paired-product form above.
The symmetric one, which run_sweep in experiments.py reports, averages them
over the pair; that changes no expectation value (exchangeability) but
tightens the standard errors.  The cross product bias^2 is the same in
both.  Every estimator drops a degenerate replica, which a kernel returns
as its reason (_drop_reason), and fails when more than 10% drop
(_kept_replicas).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import (
    ExperimentConfig,
    STREAM_TEACHER,
    STREAM_TEST,
    STREAM_TRAIN,
    STREAM_TRAIN_PAIR,
    STREAM_WEIGHTS,
)
from .errors import ConfigurationError, NumericError
from .geometry import feature_operator_from_model
from .linreg_core import (
    Dataset,
    FeatureMap,
    FittedModel,
    TeacherModel,
    _fit,
    apply_features,
    fit,  # not called here; bench/test_bench.py checks that the tracer finds it bound in this module
    make_feature_map,
    sample_dataset,
    sample_teacher,
)

# ------------------------------------------------------------- replicas


@dataclass(frozen=True)
class PairedDraw:
    """One replica: shared teacher/weights, two training fits, one test set."""

    teacher: TeacherModel
    feature_map: FeatureMap
    train_1: Dataset
    train_2: Dataset
    test: Dataset
    model_1: FittedModel
    model_2: FittedModel
    beta_hats: tuple[np.ndarray, np.ndarray]  # P_f^T beta of the D1 fit, of the D2 fit

    @cached_property
    def p_fs(self) -> tuple[np.ndarray, np.ndarray]:
        """(P_f of the D1 fit, P_f of the D2 fit), built once per replica;
        only the sweep's analyze_operator reads them."""
        return (
            feature_operator_from_model(self.model_1, self.train_1.X),
            feature_operator_from_model(self.model_2, self.train_2.X),
        )


def draw_paired_replica(
    config: ExperimentConfig, grid_idx: int, replica_idx: int
) -> PairedDraw:
    """Draw and fit one paired replica on deterministic per-index streams.

    Streams are keyed (grid_idx, replica_idx, stream id), so any execution
    order — sequential, threaded, or process pools — produces identical
    samples for the same seed.  Each fit solves for y and X beta in one call
    (see the module docstring), so its w_hat can differ from fit's in the
    last digits.
    """
    key = (grid_idx, replica_idx)
    teacher = sample_teacher(config, key + (STREAM_TEACHER,))
    fmap = make_feature_map(config, key + (STREAM_WEIGHTS,))
    d1 = sample_dataset(config, teacher, key + (STREAM_TRAIN,))
    d2 = sample_dataset(config, teacher, key + (STREAM_TRAIN_PAIR,))
    dt = sample_dataset(config, teacher, key + (STREAM_TEST,))
    (m1, g1), (m2, g2) = (
        _fit(apply_features(fmap, d.X), d.y, config.lam, None, fmap, also=d.X @ teacher.beta) for d in (d1, d2)
    )
    return PairedDraw(
        teacher=teacher,
        feature_map=fmap,
        train_1=d1,
        train_2=d2,
        test=dt,
        model_1=m1,
        model_2=m2,
        beta_hats=(fmap.W @ g1, fmap.W @ g2),
    )


def paired_projections(draw: PairedDraw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, A1, A2) over the test rows: true signal x.beta and both x_hat.beta.

    A_k = X_test beta_hat_k with the draw's beta_hat_k = P_f^T beta of fit k,
    which came out of that fit's own solve, so no solve runs here.
    """
    X = draw.test.X
    return X @ draw.teacher.beta, X @ draw.beta_hats[0], X @ draw.beta_hats[1]


# sweep metric name -> BiasVarianceEstimate field, in the order reported
_PAIRED_METRICS = {
    "geom_error": "geometric_error",
    "bias_sq": "bias_squared",
    "variance": "variance",
    "test_error": "total_test_error",
    "train_error": "train_error",
}


def _paired_metrics(draw: PairedDraw, symmetric: bool) -> dict:
    """The paired-product metrics of one replica, keyed as in _PAIRED_METRICS.

    symmetric=False is the one-sided reduction (every metric but bias_sq from
    the D1 fit); symmetric=True averages each over both fits.  bias_sq is the
    cross product (T - A1).(T - A2) either way.
    """
    models = (draw.model_1, draw.model_2)

    def reduce(per_fit):
        return 0.5 * (per_fit(0) + per_fit(1)) if symmetric else per_fit(0)

    z_t = apply_features(draw.feature_map, draw.test.X)
    t, *a = paired_projections(draw)
    return {
        "train_error": reduce(lambda k: models[k].train_error),
        "test_error": reduce(lambda k: np.mean((draw.test.y - z_t @ models[k].w_hat) ** 2)),
        "geom_error": reduce(lambda k: np.mean((t - a[k]) ** 2)),
        "bias_sq": np.mean((t - a[0]) * (t - a[1])),
        "variance": reduce(lambda k: np.mean(a[k] ** 2)) - np.mean(a[0] * a[1]),
    }


def _finite(metrics: dict) -> dict:
    """metrics with float values; NumericError naming the metrics that are not finite."""
    bad = [k for k, v in metrics.items() if not np.isfinite(v)]
    if bad:
        raise NumericError(f"non-finite replica metrics: {', '.join(bad)}")
    return {k: float(v) for k, v in metrics.items()}


def _drop_reason(exc: Exception) -> str:
    """What a replica kernel returns in place of its metrics: the exception's type and message."""
    return f"{type(exc).__name__}: {exc}"


def _one_sided_metrics(config: ExperimentConfig, grid_idx: int, replica_idx: int) -> dict | str:
    """The one-sided paired metrics of one replica; the drop reason if its draw raises or a metric is not finite."""
    try:
        return _finite(_paired_metrics(draw_paired_replica(config, grid_idx, replica_idx), symmetric=False))
    except (NumericError, np.linalg.LinAlgError) as exc:
        return _drop_reason(exc)


def _kept_replicas(results: list) -> tuple[list, dict]:
    """(the replicas kept, {drop reason: count}); NumericError if more than 10% are dropped.

    A kernel returns a kept replica as its dict of metrics and a dropped one as
    its reason, a string.
    """
    kept = [r for r in results if isinstance(r, dict)]
    n_dropped = len(results) - len(kept)
    if n_dropped > 0.1 * len(results):
        raise NumericError(f"{n_dropped}/{len(results)} replicas degenerate")
    return kept, _drop_counts(results)


def _drop_counts(results: list) -> dict:
    """{drop reason: count} over the dropped replicas of results."""
    return dict(Counter(r for r in results if isinstance(r, str)))


# ------------------------------------------------------------ estimator


@dataclass(frozen=True)
class BiasVarianceEstimate:
    """Monte-Carlo decomposition of the geometric test error."""

    geometric_error: float
    bias_squared: float
    variance: float
    total_test_error: float
    train_error: float
    n_replicas: int
    n_test_points: int
    standard_errors: dict


def bias_variance_mc(
    config: ExperimentConfig, n_replicas: int, grid_idx: int = 0
) -> BiasVarianceEstimate:
    """Paired-training-set estimator of bias^2, variance, and E_geom.

    Per replica: draw (teacher, W, D1, D2, test), fit both training sets, and
    take the one-sided reduction of the paired products described in the
    module docstring: E_geom, the total test error, and the training error
    come from the D1 fit.  Returns means over the kept replicas (n_replicas
    counts them) with standard errors for every field; see _kept_replicas.
    """
    if not isinstance(n_replicas, (int, np.integer)) or n_replicas < 2:
        raise ConfigurationError(f"n_replicas must be an integer >= 2, got {n_replicas!r}")
    per, _ = _kept_replicas([_one_sided_metrics(config, grid_idx, r) for r in range(n_replicas)])
    stats = {attr: summarize([p[name] for p in per]) for name, attr in _PAIRED_METRICS.items()}
    return BiasVarianceEstimate(
        **{attr: mean for attr, (mean, _) in stats.items()},
        n_replicas=len(per),
        n_test_points=config.m,
        standard_errors={attr: se for attr, (_, se) in stats.items()},
    )


def summarize(values) -> tuple[float, float]:
    """(mean, standard error); standard error is 0 for a single value."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ConfigurationError("summarize needs at least one value")
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))
