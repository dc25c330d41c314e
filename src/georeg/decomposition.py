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
LU of K on the Gram route, and keeps both beta_hats; _paired_metrics only
multiplies them by X_test.  The N_f x N_f operator is never built here; the
sweep builds it for analyze_operator.

The kernel has two reductions over the same draws.  The one-sided one
(_one_sided_metrics), which experiments.run_bias_variance and georeg
bias-variance report, takes E_geom, the variance and the train and test
errors from the D1 fit alone, keeping the estimator exactly the
paired-product form above.  The symmetric one, which run_sweep reports,
averages them over the pair; that changes no expectation value
(exchangeability) but tightens the standard errors.  The cross product
bias^2 is the same in both.  experiments states how a degenerate replica
is dropped.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import (
    ExperimentConfig,
    STREAM_TEACHER,
    STREAM_TEST,
    STREAM_TRAIN,
    STREAM_TRAIN_PAIR,
    STREAM_WEIGHTS,
)
from .errors import ConfigurationError
from .linreg_core import (
    Dataset,
    FittedModel,
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
    """One replica: a shared teacher beta and feature map (held by both
    models), the training sets D1 and D2 with their fits, and one test set."""

    beta: np.ndarray
    trains: tuple[Dataset, Dataset]  # D1, D2
    test: Dataset
    models: tuple[FittedModel, FittedModel]  # the D1 fit, the D2 fit
    beta_hats: tuple[np.ndarray, np.ndarray]  # P_f^T beta of the D1 fit, of the D2 fit


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
    beta = sample_teacher(config, key + (STREAM_TEACHER,))
    fmap = make_feature_map(config, key + (STREAM_WEIGHTS,))
    d1 = sample_dataset(config, beta, key + (STREAM_TRAIN,))
    d2 = sample_dataset(config, beta, key + (STREAM_TRAIN_PAIR,))
    dt = sample_dataset(config, beta, key + (STREAM_TEST,))
    (m1, g1), (m2, g2) = (
        _fit(apply_features(fmap, d.X), d.y, config.lam, fmap, also=d.X @ beta) for d in (d1, d2)
    )
    return PairedDraw(beta, (d1, d2), dt, (m1, m2), (fmap.W @ g1, fmap.W @ g2))


# the paired-product metrics, in the column order of bias_variance.csv
_PAIRED_METRICS = ("geom_error", "bias_sq", "variance", "test_error", "train_error")


def _paired_metrics(draw: PairedDraw, symmetric: bool) -> dict:
    """The paired-product metrics of one replica, keyed by _PAIRED_METRICS.

    symmetric=False is the one-sided reduction (every metric but bias_sq from
    the D1 fit); symmetric=True averages each over both fits.  bias_sq is the
    cross product (T - A1).(T - A2) either way.
    """
    models, X = draw.models, draw.test.X

    def reduce(per_fit):
        return 0.5 * (per_fit(0) + per_fit(1)) if symmetric else per_fit(0)

    z_t = apply_features(models[0].feature_map, X)
    # T = X_test beta and A_k = X_test beta_hat_k over the test rows
    t, a = X @ draw.beta, [X @ beta_hat for beta_hat in draw.beta_hats]
    return {
        "train_error": reduce(lambda k: models[k].train_error),
        "test_error": reduce(lambda k: np.mean((draw.test.y - z_t @ models[k].w_hat) ** 2)),
        "geom_error": reduce(lambda k: np.mean((t - a[k]) ** 2)),
        "bias_sq": np.mean((t - a[0]) * (t - a[1])),
        "variance": reduce(lambda k: np.mean(a[k] ** 2)) - np.mean(a[0] * a[1]),
    }


def _one_sided_metrics(config: ExperimentConfig, grid_idx: int, replica_idx: int) -> dict:
    """The one-sided paired metrics of one replica (experiments.run_bias_variance's kernel)."""
    return _paired_metrics(draw_paired_replica(config, grid_idx, replica_idx), symmetric=False)


def summarize(values) -> tuple[float, float]:
    """(mean, standard error); equal values, or a single one, give that
    value and 0 exactly, which a float mean of them need not."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ConfigurationError("summarize needs at least one value")
    if np.all(arr == arr[0]):
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))
