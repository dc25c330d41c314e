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

Every SVD here, of Z and of P_f, is a linreg_core.factorize.  P_f has one
route, feature_operator_from_model, which applies G from the fit's stored
factorization between W and X without forming the N_p x M matrix G;
|I - P_f|_F is a property of the operator's analysis.

Angles are evaluated with the chord form theta = 2 atan2(|u - v|, |u + v|),
which is exact where arccos of a dot product loses six digits, so the
identity family reports theta at the 1e-12-degree level rather than 1e-6.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ShapeError
from .linreg_core import FittedModel, _check_vector, apply_features, factorize

# ------------------------------------------------------------- projectors


@dataclass(frozen=True)
class LabelProjector:
    """Orthogonal projector P_l = Z Z^+ onto the row space of Z."""

    p_l: np.ndarray
    rank: int


def label_projector(Z: np.ndarray) -> LabelProjector:
    """P_l = Z Z^+ = U_r U_r^T from the SVD of Z, truncated by the one cut
    of linreg_core.Factorization.

    When rank(Z) = M this is the identity on label space and the model can
    interpolate any label vector.
    """
    factors = factorize(Z, caller="label_projector")
    return LabelProjector(p_l=factors.U_k @ factors.U_k.T, rank=factors.rank)


def _weights_and_inputs(model: FittedModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(W, X) of a fit with a feature map and its training inputs X, 2-D with N_f columns."""
    if model.feature_map is None:
        raise ConfigurationError("model has no feature map attached")
    X = np.asarray(X, dtype=float)
    W = model.feature_map.W
    if X.ndim != 2 or X.shape[1] != W.shape[0]:
        raise ShapeError(f"X is {X.shape}, expected {W.shape[0]} columns")
    return W, X


def feature_operator_from_model(model: FittedModel, X: np.ndarray) -> np.ndarray:
    """The feature-space operator P_f = (W G X)^T of a fit, shape N_f x N_f.

    X holds the M training inputs the fit's Z was featurized from, and G is
    the fit's effective inverse: Z^+ for lam = 0 and the ridge-filtered
    inverse for lam > 0, so operator diagnostics describe the same estimator
    that was actually fitted.  G is applied between W and X without being
    formed, by linreg_core.Factorization.solve on the fit's route.
    """
    W, X = _weights_and_inputs(model, X)
    return model.factors.solve(X, left=W).T


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

    @property
    def rank(self) -> int:
        return int(self.sigmas.size)

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

    @property
    def frob_I_minus_Pf(self) -> float:
        """|I - P_f|_F."""
        return float(np.linalg.norm(np.eye(self.p_f.shape[0]) - self.p_f))


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


def analyze_operator(p_f: np.ndarray) -> FeatureOperatorAnalysis:
    """SVD of P_f truncated by the one cut of linreg_core.Factorization,
    with per-mode angles.

    The paired sign freedom of the SVD cannot change f_X_i . f_W_i (both
    vectors flip together), so theta_i is well defined in [0, 180] degrees;
    values above 90 degrees mark anti-aligned mode pairs.
    """
    p_f = np.asarray(p_f, dtype=float)
    if p_f.ndim != 2 or p_f.shape[0] != p_f.shape[1]:
        raise ShapeError(f"P_f must be square, got shape {p_f.shape}")
    factors = factorize(p_f, caller="analyze_operator")
    sig, U, V = factors.s_k, factors.U_k, factors.Vt_k.T
    th_deg, dphi_deg = _stable_angles(sig, U, V)
    return FeatureOperatorAnalysis(
        p_f=p_f,
        sigmas=sig,
        f_x=U,
        f_w=V,
        thetas_deg=th_deg,
        delta_phis_deg=dphi_deg,
    )


# ------------------------------------------------------------ predictions


def prediction_decomposition(
    model: FittedModel,
    beta: np.ndarray,
    X: np.ndarray,
    x: np.ndarray,
) -> tuple[float, float]:
    """Split the prediction z(x) . w_hat into (x_hat . beta, delta_y_hat).

    X holds the fit's M training inputs, as in feature_operator_from_model,
    and w_hat = G y with y = X beta + eps.  x_hat . beta = x^T W G X beta
    takes one vector solve of X beta on the fit's factorization, and
    delta_y_hat(x) = dz_NL(x)^T w_hat + x^T W G eps, where
    dz_NL(x) = z(x) - W^T x is the nonlinear feature remainder and
    G eps = w_hat - G X beta the fit's response to the training noise.
    The two terms sum to z(x) . w_hat up to round-off, as they split the
    fit's own w_hat.
    """
    W, X = _weights_and_inputs(model, X)
    x = _check_vector("x", x, W.shape[0])
    beta = _check_vector("beta", beta, W.shape[0])

    g_xb = model.factors.solve(X @ beta)
    dz_nl = apply_features(model.feature_map, x) - W.T @ x

    x_hat_dot_beta = float(x @ (W @ g_xb))
    delta_y_hat = float(dz_nl @ model.w_hat + x @ (W @ (model.w_hat - g_xb)))
    return x_hat_dot_beta, delta_y_hat


# ------------------------------------------------------------- reporting


def analysis_to_json_dict(analysis: FeatureOperatorAnalysis) -> dict:
    """Plain-types view of an analysis, e.g. for the CLI's angles command."""
    return {
        "sigma": [float(v) for v in analysis.sigmas],
        "theta_deg": [float(v) for v in analysis.thetas_deg],
        "delta_phi_deg": [float(v) for v in analysis.delta_phis_deg],
        "sigma_max": analysis.sigma_max,
        "theta_max_deg": analysis.theta_max_deg,
        "delta_phi_max_deg": analysis.delta_phi_max_deg,
        "frob_I_minus_Pf": analysis.frob_I_minus_Pf,
    }
