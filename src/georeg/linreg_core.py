"""Data generation, feature-map families, and minimum-norm/ridge fitting.

The teacher produces labels y(x) = y*(x) + eps with y*(x) = x.beta plus an
optional nonlinear part.  A student predicts yhat(x) = z(x).what, where the
features z(x) come from one of three families:

    identity   z(x) = x                      (n_p = n_f)
    linear     z(x) = W^T x                  W random n_f x n_p
    nonlinear  z(x) = C.phi(W^T x)           elementwise activation

For relu the prefactor C = 2 makes W the exact effective linear component of
the feature map under Gaussian inputs (Stein's identity), which the geometric
diagnostics rely on.

Fitting minimizes |Z w - y|^2 + lam |w|^2 through the effective inverse
G = V diag(f) U^T of the thin SVD Z = U diag(s) V^T.  One private kernel,
_spectral_filter, owns the package's singular-value rule: rank(Z) counts
s > rel_tol * s_max, and the filter factors are f = 1/s on those modes for
lam = 0 (the minimum-norm what = Z^+ y) or f = s/(s^2 + lam) on every mode
for lam > 0.  fit, FittedModel.effective_inverse and pseudoinverse build w
and G from it, and geometry takes its cut and its G from the same place, so
algebraic identities between the operators hold to round-off on either path.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import (
    ExperimentConfig,
    StreamTag,
    STREAM_TEACHER,
    STREAM_WEIGHTS,
    default_rel_tol,
    stream_rng,
)
from .errors import ConfigurationError, NumericError, ShapeError

# ---------------------------------------------------------------- teachers


@dataclass(frozen=True)
class TeacherModel:
    """Ground-truth label generator y*(x) = x.beta [+ nonlinear_label_fn(x)]."""

    beta: np.ndarray
    sigma_eps: float
    nonlinear_label_fn: Callable[[np.ndarray], float] | None = None

    def y_star(self, X: np.ndarray) -> np.ndarray:
        """Noiseless labels for each row of X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.beta.shape[0]:
            raise ShapeError(
                f"X has {X.shape[1]} columns but beta has length {self.beta.shape[0]}"
            )
        out = X @ self.beta
        if self.nonlinear_label_fn is not None:
            out = out + np.array([self.nonlinear_label_fn(row) for row in X])
        return out


def sample_teacher(config: ExperimentConfig, stream_tag: StreamTag = (0, 0, STREAM_TEACHER)) -> TeacherModel:
    """Draw beta with i.i.d. N(0, sigma_beta^2) entries; pure in (config, tag)."""
    rng = stream_rng(config.seed, stream_tag)
    beta = rng.normal(0.0, config.sigma_beta, config.n_f)
    return TeacherModel(beta=beta, sigma_eps=config.sigma_eps)


# ---------------------------------------------------------------- datasets


@dataclass(frozen=True)
class Dataset:
    """A design matrix with labels and (when known) the realized noise."""

    X: np.ndarray
    y: np.ndarray
    eps: np.ndarray | None

    def __post_init__(self):
        if self.X.shape[0] != self.y.shape[0]:
            raise ShapeError(f"X has {self.X.shape[0]} rows but y has {self.y.shape[0]}")
        if self.eps is not None and self.eps.shape[0] != self.y.shape[0]:
            raise ShapeError("eps length does not match y")


def sample_dataset(
    config: ExperimentConfig,
    teacher: TeacherModel,
    stream_tag: StreamTag,
    n_rows: int | None = None,
) -> Dataset:
    """Draw a dataset of ``n_rows`` (default config.m) points.

    X entries are i.i.d. N(0, sigma_x^2/n_f), noise is i.i.d.
    N(0, sigma_eps^2), and y = y*(X) + eps.  The same (config, teacher,
    stream_tag) always reproduces the same bytes: X is drawn first, then eps,
    from the single stream named by the tag.
    """
    m = config.m if n_rows is None else int(n_rows)
    if m < 1:
        raise ConfigurationError(f"n_rows must be >= 1, got {m}")
    rng = stream_rng(config.seed, stream_tag)
    X = rng.normal(0.0, config.sigma_x / np.sqrt(config.n_f), (m, config.n_f))
    eps = rng.normal(0.0, config.sigma_eps, m)
    y = teacher.y_star(X) + eps
    return Dataset(X=X, y=y, eps=eps)


# ---------------------------------------------------------------- features


@dataclass(frozen=True)
class FeatureMap:
    """One of the three basis families with its effective linear component W."""

    kind: str  # identity | linear | nonlinear
    W: np.ndarray  # n_f x n_p
    activation: Callable[[np.ndarray], np.ndarray] | None = None
    normalization_c: float = 1.0
    activation_name: str = ""


def make_feature_map(
    config: ExperimentConfig,
    stream_tag: StreamTag = (0, 0, STREAM_WEIGHTS),
    activation_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    normalization_c: float | None = None,
) -> FeatureMap:
    """Build the feature map named by config.activation.

    identity: W = I and z(x) = x.  linear/nonlinear: W entries i.i.d.
    N(0, sigma_w^2/n_p).  relu uses z = C max(0, W^T x) with C = 2, exact for
    Gaussian inputs.  A custom activation must supply ``activation_fn`` and
    ``normalization_c``; W is then only an approximation of the true effective
    linear component, which is the caller's responsibility to account for.
    """
    kind = config.activation
    if kind == "identity":
        if config.n_p != config.n_f:
            raise ConfigurationError("identity feature map requires n_p == n_f")
        return FeatureMap(kind="identity", W=np.eye(config.n_f), activation_name="identity")

    rng = stream_rng(config.seed, stream_tag)
    W = rng.normal(0.0, config.sigma_w / np.sqrt(config.n_p), (config.n_f, config.n_p))
    if kind == "linear":
        return FeatureMap(kind="linear", W=W, activation_name="linear")
    if kind == "relu":
        c = config.relu_c if normalization_c is None else float(normalization_c)
        return FeatureMap(
            kind="nonlinear",
            W=W,
            activation=lambda a: np.maximum(0.0, a),
            normalization_c=c,
            activation_name="relu",
        )
    if activation_fn is None:
        raise ConfigurationError(
            f"activation {kind!r} needs an explicit activation_fn and normalization_c"
        )
    if normalization_c is None:
        raise ConfigurationError(f"custom activation {kind!r} needs normalization_c")
    import warnings

    warnings.warn(
        f"custom activation {kind!r}: W is only an approximate effective linear component",
        stacklevel=2,
    )
    return FeatureMap(
        kind="nonlinear",
        W=W,
        activation=activation_fn,
        normalization_c=float(normalization_c),
        activation_name=kind,
    )


def apply_features(fmap: FeatureMap, X: np.ndarray) -> np.ndarray:
    """Map input rows to feature rows: Z[a] = z(x_a)."""
    X = np.asarray(X, dtype=float)
    one_d = X.ndim == 1
    X2 = np.atleast_2d(X)
    if X2.shape[1] != fmap.W.shape[0]:
        raise ShapeError(f"X has {X2.shape[1]} columns, feature map expects {fmap.W.shape[0]}")
    if fmap.kind == "identity":
        Z = X2
    elif fmap.kind == "linear":
        Z = X2 @ fmap.W
    else:
        Z = fmap.normalization_c * fmap.activation(X2 @ fmap.W)
    return Z[0] if one_d else Z


# ---------------------------------------------------------------- fitting


def _spectral_filter(s: np.ndarray, lam: float, rel_tol: float) -> tuple:
    """The package's one singular-value rule: (keep, modes, f).

    keep masks the kept modes, s > rel_tol * s_max; rank(Z) counts them.
    The effective inverse is G = V[:, modes] diag(f) U[:, modes]^T with the
    filter factors f = s/(s^2 + lam) on every mode for lam > 0 and f = 1/s
    on the kept modes for lam = 0.
    """
    if not lam >= 0:
        raise ConfigurationError(f"lam must be >= 0, got {lam}")
    keep = s > rel_tol * (s[0] if s.size else 0.0)
    # modes is a mask, not a slice: indexing with it copies the kept columns
    # of the SVD factors into C order, and the products' round-off, hence the
    # last digits of every reported number, depends on that layout.
    if lam > 0:
        return keep, slice(None), s / (s**2 + lam)
    return keep, keep, 1.0 / s[keep]


def _thin_svd(A: np.ndarray, rel_tol: float | None, caller: str) -> tuple[tuple, float]:
    """Thin SVD (U, s, Vt) of a finite matrix, with the cutoff to apply to it
    (default_rel_tol(A.shape) when rel_tol is None)."""
    if not np.all(np.isfinite(A)):
        raise NumericError(f"{caller} input has non-finite entries")
    tol = default_rel_tol(A.shape) if rel_tol is None else float(rel_tol)
    return np.linalg.svd(A, full_matrices=False), tol


def _effective_inverse(svd: tuple, lam: float, rel_tol: float) -> np.ndarray:
    """G = V diag(f) U^T from an SVD of Z, with f from _spectral_filter."""
    U, s, Vt = svd
    _, modes, f = _spectral_filter(s, lam, rel_tol)
    return Vt[modes].T @ (f[:, None] * U[:, modes].T)


def pseudoinverse(A: np.ndarray, rel_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse by SVD, zeroing sigma <= rel_tol * sigma_max.

    rel_tol defaults to 1e-10 * max(A.shape).
    """
    svd, tol = _thin_svd(np.asarray(A, dtype=float), rel_tol, "pseudoinverse")
    return _effective_inverse(svd, 0.0, tol)


@dataclass(frozen=True)
class FittedModel:
    """Result of one least-squares/ridge fit, with its SVD kept for reuse."""

    w_hat: np.ndarray
    lam: float
    feature_map: FeatureMap | None
    Z: np.ndarray = field(repr=False)
    rank_z: int
    sigma_z_min: float
    svd: tuple = field(repr=False)  # (U, s, Vt) of Z
    rel_tol: float

    def effective_inverse(self) -> np.ndarray:
        """The matrix G with what = G y: truncated Z^+ for lam = 0, the
        ridge-filtered inverse for lam > 0.  Downstream operators built from
        G satisfy their algebraic identities to round-off for either path."""
        return _effective_inverse(self.svd, self.lam, self.rel_tol)


def fit(
    Z: np.ndarray,
    y: np.ndarray,
    lam: float = 0.0,
    rel_tol: float | None = None,
    feature_map: FeatureMap | None = None,
) -> FittedModel:
    """Least-squares fit of Z w ~ y.

    lam = 0: minimum-norm solution what = Z^+ y (SVD truncation at
    rel_tol * sigma_max, default rel_tol = 1e-10 * max(M, n_p)).
    lam > 0: ridge solution through filter factors sigma/(sigma^2 + lam).
    Also records rank(Z) and the smallest retained singular value.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    if Z.ndim != 2:
        raise ShapeError(f"Z must be 2-D, got shape {Z.shape}")
    if Z.shape[0] != y.shape[0]:
        raise ShapeError(f"Z has {Z.shape[0]} rows but y has length {y.shape[0]}")
    if not np.all(np.isfinite(y)):
        raise NumericError("fit input has non-finite entries")
    (U, s, Vt), rel_tol = _thin_svd(Z, rel_tol, "fit")
    keep, modes, f = _spectral_filter(s, lam, rel_tol)
    rank = int(np.count_nonzero(keep))
    return FittedModel(
        w_hat=Vt[modes].T @ (f * (U[:, modes].T @ y)),
        lam=float(lam),
        feature_map=feature_map,
        Z=Z,
        rank_z=rank,
        sigma_z_min=float(s[keep].min()) if rank else 0.0,
        svd=(U, s, Vt),
        rel_tol=rel_tol,
    )


def predict(model: FittedModel, x: np.ndarray) -> float:
    """Student prediction yhat(x) = z(x).what for a single input vector."""
    if model.feature_map is None:
        raise ConfigurationError("model has no feature map attached; cannot featurize x")
    z = apply_features(model.feature_map, np.asarray(x, dtype=float))
    if z.ndim != 1:
        raise ShapeError("predict expects a single input vector")
    return float(z @ model.w_hat)


def training_error(model: FittedModel, data: Dataset) -> float:
    """Mean squared residual (1/M) |y - Z what|^2 on ``data``.

    When ``data`` is the model's own training set and lam = 0 this equals
    (1/M) |(I - P_l) y|^2 by the projector identity.
    """
    if model.feature_map is not None:
        Z = apply_features(model.feature_map, data.X)
    else:
        Z = model.Z
        if Z.shape[0] != data.y.shape[0]:
            raise ShapeError("dataset size does not match the model's features")
    r = data.y - Z @ model.w_hat
    return float(np.mean(r * r))
