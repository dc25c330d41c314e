"""Projection operators on label space and feature space, and their angles.

Label space: P_l = Z Z^+ orthogonally projects the M training labels onto the
row space of Z.  Training residuals live in its complement, so the fraction
of label variance the model cannot absorb is |(I - P_l) y|^2 / M.

Feature space: P_f = (W G X)^T, with G the (possibly ridge-filtered)
effective inverse of Z, maps a fresh input x to the input the fitted model
effectively responds to, x_hat = P_f x.  Its SVD

    P_f = sum_i sigma_i f_X_i f_W_i^T        (sigma_i > 0, descending)

carries two angles per mode:

    theta_i     = angle(f_X_i, f_W_i)                 subspace orientation
    delta_phi_i = atan2(sigma_i cos theta_i - 1, sigma_i sin theta_i)
                                                      projection deviation

An orthogonal projector has sigma = 1, theta = 0; an oblique projector has
sigma_i cos theta_i = 1 (delta_phi = 0); nonlinear features give a "noisy"
oblique operator with small nonzero delta_phi away from the degenerate
directions.  theta_max and delta_phi_max refer to the angles paired with the
LARGEST singular value, i.e. those of the leading mode.

Angles are evaluated with the chord form theta = 2 atan2(|u - v|, |u + v|),
which is exact where arccos of a dot product loses six digits, so the
identity family reports theta at the 1e-12-degree level rather than 1e-6.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericError, ShapeError
from .linreg_core import (
    Dataset,
    FeatureMap,
    FittedModel,
    TeacherModel,
    _effective_inverse,
    _spectral_filter,
    _thin_svd,
    apply_features,
)

# ------------------------------------------------------------- projectors


@dataclass(frozen=True)
class LabelProjector:
    """Orthogonal projector P_l = Z Z^+ onto the row space of Z."""

    p_l: np.ndarray
    rank: int


def label_projector(Z: np.ndarray, rel_tol: float | None = None) -> LabelProjector:
    """P_l = Z Z^+ = U_r U_r^T from the truncated SVD of Z.

    When rank(Z) = M this is the identity on label space and the model can
    interpolate any label vector.
    """
    (U, s, _), tol = _thin_svd(np.asarray(Z, dtype=float), rel_tol, "label_projector")
    keep = _spectral_filter(s, 0.0, tol)[0]
    Ur = U[:, keep]
    return LabelProjector(p_l=Ur @ Ur.T, rank=int(np.count_nonzero(keep)))


def feature_operator(
    feature_map: FeatureMap,
    Z: np.ndarray,
    X: np.ndarray,
    lam: float = 0.0,
    rel_tol: float | None = None,
    z_inverse: np.ndarray | None = None,
) -> np.ndarray:
    """The feature-space operator P_f = (W G X)^T, shape N_f x N_f.

    G is Z^+ for lam = 0 and the ridge-filtered inverse V diag(s/(s^2+lam)) U^T
    for lam > 0, so operator diagnostics describe the same estimator that was
    actually fitted.  ``z_inverse`` lets callers reuse a FittedModel's
    effective inverse instead of redoing the SVD.
    """
    Z = np.asarray(Z, dtype=float)
    X = np.asarray(X, dtype=float)
    W = feature_map.W
    m, n_p = Z.shape
    if W.shape[1] != n_p:
        raise ShapeError(f"W is {W.shape} but Z has {n_p} feature columns")
    if X.shape != (m, W.shape[0]):
        raise ShapeError(f"X is {X.shape}, expected ({m}, {W.shape[0]})")
    if z_inverse is None:
        svd, tol = _thin_svd(Z, rel_tol, "feature_operator")
        z_inverse = _effective_inverse(svd, lam, tol)
    return (W @ z_inverse @ X).T


def feature_operator_from_model(model: FittedModel, X: np.ndarray) -> np.ndarray:
    """P_f for a fitted model, reusing its stored SVD."""
    if model.feature_map is None:
        raise ConfigurationError("model has no feature map attached")
    return feature_operator(
        model.feature_map, model.Z, X, lam=model.lam, z_inverse=model.effective_inverse()
    )


# ----------------------------------------------------------- SVD analysis


@dataclass(frozen=True)
class FeatureOperatorAnalysis:
    """SVD triples of P_f with per-mode angles, sorted by descending sigma."""

    p_f: np.ndarray = field(repr=False)
    sigmas: np.ndarray
    f_x: np.ndarray = field(repr=False)  # columns f_X_i
    f_w: np.ndarray = field(repr=False)  # columns f_W_i
    thetas_deg: np.ndarray
    delta_phis_deg: np.ndarray
    rank_tol: float

    @property
    def rank(self) -> int:
        return int(self.sigmas.size)

    @property
    def triples(self) -> list[tuple[float, np.ndarray, np.ndarray]]:
        return [
            (float(self.sigmas[i]), self.f_x[:, i], self.f_w[:, i])
            for i in range(self.rank)
        ]

    # the *_max angles are the ones paired with sigma_max (the leading mode),
    # not maxima over modes — near-null modes carry meaningless large angles.
    @property
    def sigma_max(self) -> float | None:
        return float(self.sigmas[0]) if self.rank else None

    @property
    def theta_max_deg(self) -> float | None:
        return float(self.thetas_deg[0]) if self.rank else None

    @property
    def delta_phi_max_deg(self) -> float | None:
        return float(self.delta_phis_deg[0]) if self.rank else None


def _stable_angles(sig: np.ndarray, U: np.ndarray, V: np.ndarray):
    """theta and delta_phi (degrees) for unit-column pairs U, V with values sig.

    theta by the chord form; delta_phi = atan2(sigma cos theta - 1,
    sigma sin theta), set to 0 when |sigma f_X - f_W| <= 1e-12 sigma (the
    degenerate orthogonal-projector direction where the deviation angle is
    undefined).
    """
    th = 2.0 * np.arctan2(
        np.linalg.norm(U - V, axis=0), np.linalg.norm(U + V, axis=0)
    )
    cth = np.clip(np.sum(U * V, axis=0), -1.0, 1.0)
    num = sig * cth - 1.0
    den = sig * np.sin(th)
    mag = np.hypot(num, den)
    dphi = np.where(mag <= 1e-12 * sig, 0.0, np.arctan2(num, den))
    return np.degrees(th), np.degrees(dphi)


def analyze_operator(p_f: np.ndarray, rank_tol: float = 1e-10) -> FeatureOperatorAnalysis:
    """SVD of P_f truncated at rank_tol * sigma_max, with per-mode angles.

    The paired sign freedom of the SVD cannot change f_X_i . f_W_i (both
    vectors flip together), so theta_i is well defined in [0, 180] degrees;
    values above 90 degrees mark anti-aligned mode pairs.
    """
    p_f = np.asarray(p_f, dtype=float)
    if p_f.ndim != 2 or p_f.shape[0] != p_f.shape[1]:
        raise ShapeError(f"P_f must be square, got shape {p_f.shape}")
    if not rank_tol > 0:
        raise ConfigurationError(f"rank_tol must be positive, got {rank_tol}")
    if not np.all(np.isfinite(p_f)):
        raise NumericError("analyze_operator input has non-finite entries")
    u, sv, vt = np.linalg.svd(p_f)
    keep = _spectral_filter(sv, 0.0, rank_tol)[0]
    sig = sv[keep]
    U = u[:, keep]
    V = vt[keep, :].T
    th_deg, dphi_deg = _stable_angles(sig, U, V)
    return FeatureOperatorAnalysis(
        p_f=p_f,
        sigmas=sig,
        f_x=U,
        f_w=V,
        thetas_deg=th_deg,
        delta_phis_deg=dphi_deg,
        rank_tol=float(rank_tol),
    )


def angles_from_vectors(
    triple: tuple[float, np.ndarray, np.ndarray],
) -> tuple[float, float]:
    """Angles of one SVD triple, by the vector construction.

    With x = f_W: x_hat = sigma f_X (f_W . x) = sigma f_X and x_hat_W = f_W,
    so theta is the angle between f_X and f_W and delta_phi is 90 degrees
    minus the angle between f_W and x_hat - x_hat_W.  Evaluated in the stable
    atan2 form, which is the same quantity: the deviation vector has
    component sigma cos theta - 1 along f_W and sigma sin theta across it.
    Degenerate case |x_hat - x_hat_W| <= 1e-12 sigma returns delta_phi = 0.
    """
    sigma, f_x_vec, f_w_vec = triple
    sigma = float(sigma)
    f_x_vec = np.asarray(f_x_vec, dtype=float)
    f_w_vec = np.asarray(f_w_vec, dtype=float)
    if sigma <= 0:
        raise ConfigurationError(f"sigma must be positive, got {sigma}")
    if f_x_vec.shape != f_w_vec.shape or f_x_vec.ndim != 1:
        raise ShapeError("f_X and f_W must be vectors of equal length")
    for name, v in (("f_X", f_x_vec), ("f_W", f_w_vec)):
        n = np.linalg.norm(v)
        if abs(n - 1.0) > 1e-8:
            raise ConfigurationError(f"{name} is not a unit vector (norm {n:.3e})")
    th_deg, dphi_deg = _stable_angles(
        np.array([sigma]), f_x_vec[:, None], f_w_vec[:, None]
    )
    return float(th_deg[0]), float(dphi_deg[0])


# -------------------------------------------------------- representations


@dataclass(frozen=True)
class Representation:
    """What the model makes of one input: x_hat + delta_x = x exactly."""

    x_hat: np.ndarray
    x_hat_w: np.ndarray
    delta_x: np.ndarray


def internal_representation(
    analysis: FeatureOperatorAnalysis, x: np.ndarray
) -> Representation:
    """x_hat = P_f x, x_hat_W = F_W F_W^T x, delta_x = x - x_hat.

    x_hat_W is the intermediate stop: the part of x the model can express at
    all.  delta_x is the component the model treats as noise — it cannot
    influence the prediction through the fitted weights.
    """
    x = np.asarray(x, dtype=float)
    n_f = analysis.p_f.shape[0]
    if x.shape != (n_f,):
        raise ShapeError(f"x must have shape ({n_f},), got {x.shape}")
    x_hat = analysis.p_f @ x
    x_hat_w = analysis.f_w @ (analysis.f_w.T @ x)
    return Representation(x_hat=x_hat, x_hat_w=x_hat_w, delta_x=x - x_hat)


def prediction_decomposition(
    model: FittedModel,
    teacher: TeacherModel,
    data: Dataset,
    x: np.ndarray,
) -> tuple[float, float]:
    """Split predict(model, x) into (x_hat . beta, delta_y_hat).

    delta_y_hat(x) = dz_NL(x)^T G y + x^T W G (dy*_NL + eps), where G is the
    model's effective inverse, dz_NL(x) = z(x) - W^T x is the nonlinear
    feature remainder, and dy*_NL the teacher's nonlinear label remainder on
    the training rows.  The two terms sum to the prediction exactly, because
    z(x)^T G y expands into them plus x^T W G X beta = x_hat . beta.
    """
    if model.feature_map is None:
        raise ConfigurationError("model has no feature map attached")
    if data.eps is None:
        raise ConfigurationError(
            "prediction_decomposition needs the realized noise; this dataset has eps=None"
        )
    x = np.asarray(x, dtype=float)
    W = model.feature_map.W
    if x.shape != (W.shape[0],):
        raise ShapeError(f"x must have shape ({W.shape[0]},), got {x.shape}")
    if teacher.beta.shape[0] != W.shape[0]:
        raise ShapeError("teacher beta length does not match the feature map")

    G = model.effective_inverse()  # N_p x M
    z = apply_features(model.feature_map, x)
    dz_nl = z - W.T @ x
    if teacher.nonlinear_label_fn is None:
        dy_nl = np.zeros(data.X.shape[0])
    else:
        dy_nl = np.array([teacher.nonlinear_label_fn(row) for row in data.X])

    x_hat_dot_beta = float(x @ (W @ (G @ (data.X @ teacher.beta))))
    delta_y_hat = float(dz_nl @ (G @ data.y) + x @ (W @ (G @ (dy_nl + data.eps))))
    return x_hat_dot_beta, delta_y_hat


# ------------------------------------------------------------- reporting


def _frob_complement(p: np.ndarray) -> float:
    """|I - P|_F of a square operator P."""
    return float(np.linalg.norm(np.eye(p.shape[0]) - p))


def analysis_to_json_dict(analysis: FeatureOperatorAnalysis) -> dict:
    """Plain-types view of an analysis, e.g. for the CLI's angles command."""
    return {
        "sigma": [float(v) for v in analysis.sigmas],
        "theta_deg": [float(v) for v in analysis.thetas_deg],
        "delta_phi_deg": [float(v) for v in analysis.delta_phis_deg],
        "sigma_max": analysis.sigma_max,
        "theta_max_deg": analysis.theta_max_deg,
        "delta_phi_max_deg": analysis.delta_phi_max_deg,
        "frob_I_minus_Pf": _frob_complement(analysis.p_f),
    }
