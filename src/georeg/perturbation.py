"""Adversarial/invariant perturbation split and finite-difference responses.

The fitted model only reacts to input directions inside span{f_W,i}, the row
space of P_f.  A random perturbation e therefore splits into

    e_par  = normalize(F_W F_W^T e)        adversarial component
    e_perp = normalize((I - F_W F_W^T) e)  invariant component

P_f e_perp = 0, so moving along e_perp leaves the internal representation
x_hat — and with it the geometric part of the prediction — unchanged, while
e_par changes the prediction without necessarily changing the true label
much.  The experiment draws all its random directions as one array, splits
them with one projection, and per kind takes the linear teacher's exact
label response beta . e and the prediction's one-sided finite difference,
with one featurization of the moved points, then correlates the two.
"""
from __future__ import annotations

import numpy as np

from .config import ExperimentConfig, STREAM_PERTURB, check_integer, stream_rng
from .errors import (
    ConfigurationError,
    DegenerateDirectionError,
    ExperimentError,
    NumericError,
    ShapeError,
)
from .geometry import FeatureOperatorAnalysis
from .linreg_core import FittedModel, _check_beta, apply_features

KINDS = ("adversarial", "invariant")


# ------------------------------------------------------------- geometry


def _input_vector(v: np.ndarray, analysis: FeatureOperatorAnalysis, name: str) -> np.ndarray:
    """v as a finite float vector in P_f's input space; P_f must not be null."""
    if analysis.rank < 1:
        raise ConfigurationError("analysis has no SVD triples; P_f is null")
    v = np.asarray(v, dtype=float)
    n_f = analysis.p_f.shape[0]
    if v.shape != (n_f,):
        raise ShapeError(f"{name} must have shape ({n_f},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NumericError(f"{name} has non-finite entries")
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


def _pearson(t: np.ndarray, p: np.ndarray) -> tuple[float | None, float | None]:
    """(correlation, OLS slope) of the responses p against t; None where
    undefined: both when t does not vary, the correlation when p does not."""
    a = t - t.mean()
    b = p - p.mean()
    va = float(a @ a)
    vb = float(b @ b)
    if va == 0.0:
        return None, None
    cov = float(a @ b)
    return (float(cov / np.sqrt(va * vb)) if vb else None), cov / va


def perturbation_experiment(
    model: FittedModel,
    beta: np.ndarray,
    analysis: FeatureOperatorAnalysis,
    x: np.ndarray,
    config: ExperimentConfig,
    n_pairs: int = 200,
    eta: float = 1e-2,
) -> tuple[dict, dict]:
    """Measure label responses along random adversarial/invariant directions.

    Draws n_pairs perturbations e on the (0, 0, STREAM_PERTURB) stream from
    the input distribution (normal with the same per-entry scale as x),
    splits each, and measures dy/d_eta and dyhat/d_eta for both components at
    the base point x.  The teacher is linear, so dy/d_eta is beta . e_hat,
    the exact value of the finite difference at any eta; dyhat/d_eta is the
    one-sided difference at the given eta.  Degenerate splits are skipped
    and counted.  Returns (responses, summary): responses[kind] is
    (directions, d_y_true, d_y_pred) for each kind in KINDS, one row or entry
    per kept pair in draw order; summary holds per-kind correlations and OLS
    slopes, each None where undefined (see _pearson).
    """
    check_integer("n_pairs", n_pairs, lo=2)
    if not 0 < eta < np.inf:
        raise ConfigurationError(f"eta must be finite and positive, got {eta}")
    if model.feature_map is None:
        raise ConfigurationError("model has no feature map attached; cannot featurize x")
    x = _input_vector(x, analysis, "x")
    if config.n_f != x.shape[0]:
        raise ConfigurationError(f"config has n_f = {config.n_f}, but P_f has N_f = {x.shape[0]}")
    beta = _check_beta(beta, x.shape[0])
    rng = stream_rng(config.seed, (0, 0, STREAM_PERTURB))
    E = rng.normal(0.0, config.sigma_x / np.sqrt(config.n_f), (n_pairs, x.shape[0]))
    par, perp, ok_par, ok_perp = _split(E, analysis.f_w)
    kept = ok_par & ok_perp
    n_kept = int(kept.sum())
    if not n_kept:
        raise ExperimentError(f"all {n_pairs} perturbation pairs were degenerate")

    y_pred_x = apply_features(model.feature_map, x) @ model.w_hat
    responses = {}
    # one block of directions per kind: a single block of both kinds holds
    # twice the featurized rows in memory at once
    for kind, D in zip(KINDS, (par[kept], perp[kept])):
        moved = x + eta * D
        d_pred = (apply_features(model.feature_map, moved) @ model.w_hat - y_pred_x) / eta
        # a stack of 1 x n_f rows: each product is the vector dot
        # beta . e_hat itself, where D @ beta would sum in another order
        d_true = (D[:, None, :] @ beta)[:, 0]
        if not (np.all(np.isfinite(d_true)) and np.all(np.isfinite(d_pred))):
            raise NumericError(f"{kind} label responses are not finite")
        responses[kind] = (D, d_true, d_pred)

    summary = {"skipped_degenerate": int(n_pairs - n_kept)}
    for kind, (_, t, p) in responses.items():
        corr, slope = _pearson(t, p)
        summary[f"corr_{kind}"] = corr
        summary[f"slope_{kind}"] = slope
        summary[f"n_{kind}"] = n_kept
    return responses, summary
