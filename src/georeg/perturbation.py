"""Adversarial/invariant perturbation split and finite-difference responses.

The fitted model only reacts to input directions inside span{f_W,i}, the row
space of P_f.  A random perturbation e therefore splits into

    e_par  = normalize(F_W F_W^T e)        adversarial component
    e_perp = normalize((I - F_W F_W^T) e)  invariant component

P_f e_perp = 0, so moving along e_perp leaves the internal representation
x_hat — and with it the geometric part of the prediction — unchanged, while
e_par changes the prediction without necessarily changing the true label
much.  The experiment draws all its random directions as one array, splits
them with one projection, and measures one-sided finite differences of the
true label and the prediction per kind with one featurization of the moved
points, then correlates the two per kind.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, STREAM_PERTURB, StreamTag, stream_rng
from .errors import (
    ConfigurationError,
    DegenerateDirectionError,
    ExperimentError,
    NumericError,
    ShapeError,
)
from .geometry import FeatureOperatorAnalysis
from .linreg_core import FittedModel, TeacherModel, apply_features

KINDS = ("adversarial", "invariant")


@dataclass(frozen=True)
class PerturbationRecord:
    """One measured direction: true and predicted label response rates."""

    kind: str
    d_y_true: float
    d_y_pred: float
    eta: float
    direction: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"kind must be one of {KINDS}, got {self.kind!r}")
        n = np.linalg.norm(self.direction)
        if abs(n - 1.0) > 1e-12:
            raise ConfigurationError(f"direction is not unit length (norm {n:.3e})")


# ------------------------------------------------------------- geometry


def _input_vector(v: np.ndarray, analysis: FeatureOperatorAnalysis, name: str) -> np.ndarray:
    """v as a float vector in P_f's input space; P_f must not be null."""
    if analysis.rank < 1:
        raise ConfigurationError("analysis has no SVD triples; P_f is null")
    v = np.asarray(v, dtype=float)
    n_f = analysis.p_f.shape[0]
    if v.shape != (n_f,):
        raise ShapeError(f"{name} must have shape ({n_f},), got {v.shape}")
    return v


def _split(E: np.ndarray, f_w: np.ndarray) -> tuple:
    """Split every row e of E along and orthogonal to span{f_W,i}.

    Returns (e_par, e_perp, ok_par, ok_perp): the unit components row by row
    and, per side, whether that component is non-degenerate, i.e. its norm
    exceeds 1e-12 |e|.  A degenerate row's unit component is meaningless.
    """
    par = (E @ f_w) @ f_w.T
    perp = E - par
    floor = 1e-12 * np.linalg.norm(E, axis=1)
    n_par = np.linalg.norm(par, axis=1)
    n_perp = np.linalg.norm(perp, axis=1)
    ok_par, ok_perp = n_par > floor, n_perp > floor
    return (
        par / np.where(ok_par, n_par, 1.0)[:, None],
        perp / np.where(ok_perp, n_perp, 1.0)[:, None],
        ok_par,
        ok_perp,
    )


def decompose_perturbation(
    e: np.ndarray, analysis: FeatureOperatorAnalysis
) -> tuple[np.ndarray, np.ndarray]:
    """Split e into unit vectors along and orthogonal to span{f_W,i}.

    Raises DegenerateDirectionError naming the degenerate side when either
    projected component has norm <= 1e-12 |e| — e.g. e already inside the
    span leaves no perpendicular part.
    """
    e = _input_vector(e, analysis, "e")
    if not e.any():
        raise ConfigurationError("perturbation e must be nonzero")
    par, perp, ok_par, ok_perp = _split(e[None, :], analysis.f_w)
    if not ok_par[0]:
        raise DegenerateDirectionError("parallel")
    if not ok_perp[0]:
        raise DegenerateDirectionError("perpendicular")
    return par[0], perp[0]


# ------------------------------------------------------------ experiment


def _pearson(t: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """(correlation, OLS slope) of the responses p against t."""
    a = t - t.mean()
    b = p - p.mean()
    va = float(a @ a)
    vb = float(b @ b)
    if va == 0.0 or vb == 0.0:
        return float("nan"), float("nan")
    cov = float(a @ b)
    return float(cov / np.sqrt(va * vb)), cov / va


def perturbation_experiment(
    model: FittedModel,
    teacher: TeacherModel,
    analysis: FeatureOperatorAnalysis,
    x: np.ndarray,
    config: ExperimentConfig,
    n_pairs: int = 200,
    eta: float = 1e-2,
    stream_tag: StreamTag = (0, 0, STREAM_PERTURB),
) -> tuple[list[PerturbationRecord], dict]:
    """Measure label responses along random adversarial/invariant directions.

    Draws n_pairs perturbations e from the input distribution (normal with
    the same per-entry scale as x), splits each, and records dy/d_eta and
    dyhat/d_eta for both components at the base point x.  For a purely linear
    teacher dy/d_eta is beta . e_hat, the exact value of the finite
    difference at any eta; with a nonlinear label term the one-sided
    difference at the given eta is used.  Degenerate splits are skipped and
    counted.  Returns the records, adversarial then invariant per kept pair,
    plus per-kind correlations and OLS slopes.
    """
    if n_pairs < 2:
        raise ConfigurationError(f"n_pairs must be >= 2, got {n_pairs}")
    if not eta > 0:
        raise ConfigurationError(f"eta must be positive, got {eta}")
    if model.feature_map is None:
        raise ConfigurationError("model has no feature map attached; cannot featurize x")
    x = _input_vector(x, analysis, "x")
    rng = stream_rng(config.seed, stream_tag)
    E = rng.normal(0.0, config.sigma_x / np.sqrt(config.n_f), (n_pairs, x.shape[0]))
    par, perp, ok_par, ok_perp = _split(E, analysis.f_w)
    kept = ok_par & ok_perp
    n_kept = int(kept.sum())
    if not n_kept:
        raise ExperimentError(f"all {n_pairs} perturbation pairs were degenerate")

    y_pred_x = apply_features(model.feature_map, x) @ model.w_hat
    y_true_x = teacher.y_star(x)[0]
    responses = {}
    # one block of directions per kind: a single block of both kinds holds
    # twice the featurized rows in memory at once
    for kind, D in zip(KINDS, (par[kept], perp[kept])):
        moved = x + eta * D
        d_pred = (apply_features(model.feature_map, moved) @ model.w_hat - y_pred_x) / eta
        if teacher.nonlinear_label_fn is None:
            # a stack of 1 x n_f rows: each product is the vector dot
            # beta . e_hat itself, where D @ beta would sum in another order
            d_true = (D[:, None, :] @ teacher.beta)[:, 0]
        else:
            d_true = (teacher.y_star(moved) - y_true_x) / eta
        if not (np.all(np.isfinite(d_true)) and np.all(np.isfinite(d_pred))):
            raise NumericError(f"{kind} label responses are not finite")
        responses[kind] = (D, d_true, d_pred)

    records = [
        PerturbationRecord(
            kind=kind, d_y_true=float(t[i]), d_y_pred=float(p[i]), eta=eta, direction=D[i]
        )
        for i in range(n_kept)
        for kind, (D, t, p) in responses.items()
    ]
    summary = {"skipped_degenerate": int(n_pairs - n_kept)}
    for kind, (_, t, p) in responses.items():
        corr, slope = _pearson(t, p) if n_kept >= 2 else (float("nan"), float("nan"))
        summary[f"corr_{kind}"] = corr
        summary[f"slope_{kind}"] = slope
        summary[f"n_{kind}"] = n_kept
    return records, summary
