"""Data generation, feature-map families, and minimum-norm/ridge fitting.

The teacher produces labels y(x) = y*(x) + eps with the linear
y*(x) = x.beta.  A student predicts yhat(x) = z(x).what, where the
features z(x) come from one of three families:

    identity   z(x) = x                      (n_p = n_f)
    linear     z(x) = W^T x                  W random n_f x n_p
    relu       z(x) = 2 max(0, W^T x)        elementwise

For relu the prefactor 2 makes W the exact effective linear component of
the feature map under Gaussian inputs (Stein's identity), which the geometric
diagnostics rely on.

Fitting minimizes |Z w - y|^2 + lam |w|^2 through the effective inverse
G = V diag(f) U^T of the factorization Z = U diag(s) V^T.  factorize holds
the package's only factorizations and singular-value rule: its
Factorization keeps the modes s > rel_tol * s_max (rank(Z) counts them),
with filter factors f = 1/s on those modes for lam = 0 (the minimum-norm
what = Z^+ y) or f = s/(s^2 + lam) on every mode for lam > 0.  A strictly
tall Z at lam > 0 takes the Gram route instead of the thin SVD, which every
other call uses: it solves (Z^T Z + lam I) w = Z^T y with np.linalg.solve
once np.linalg.cholesky accepts that matrix, and takes eigh of the smaller
Gram matrix Z^T Z only when the spectrum (rank, sigma_min, U_k) is read or
cholesky rejects the matrix.  A fit and its P_f never read the spectrum.
A FittedModel keeps the Factorization of Z; pseudoinverse, geometry and
the sweep read rank, kept modes and G from one, so identities between the
operators hold to round-off.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import (
    ACTIVATIONS,
    ExperimentConfig,
    STREAM_TEACHER,
    STREAM_WEIGHTS,
    default_rel_tol,
    stream_rng,
)
from .errors import ConfigurationError, NumericError, ShapeError

# ---------------------------------------------------------------- teachers


@dataclass(frozen=True)
class TeacherModel:
    """Ground-truth linear label generator y*(x) = x.beta."""

    beta: np.ndarray

    def y_star(self, X: np.ndarray) -> np.ndarray:
        """Noiseless labels for each row of X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.beta.shape[0]:
            raise ShapeError(
                f"X has {X.shape[1]} columns but beta has length {self.beta.shape[0]}"
            )
        return X @ self.beta


def sample_teacher(config: ExperimentConfig, stream_tag: tuple = (0, 0, STREAM_TEACHER)) -> TeacherModel:
    """Draw beta with i.i.d. N(0, sigma_beta^2) entries; pure in (config, tag)."""
    rng = stream_rng(config.seed, stream_tag)
    beta = rng.normal(0.0, config.sigma_beta, config.n_f)
    return TeacherModel(beta=beta)


# ---------------------------------------------------------------- datasets


@dataclass(frozen=True)
class Dataset:
    """A design matrix with its labels and the realized noise."""

    X: np.ndarray
    y: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        if self.X.shape[0] != self.y.shape[0]:
            raise ShapeError(f"X has {self.X.shape[0]} rows but y has {self.y.shape[0]}")
        if self.eps.shape[0] != self.y.shape[0]:
            raise ShapeError("eps length does not match y")


def sample_dataset(config: ExperimentConfig, teacher: TeacherModel, stream_tag: tuple) -> Dataset:
    """Draw a dataset of config.m points; training and test sets alike.

    X entries are i.i.d. N(0, sigma_x^2/n_f) with sigma_x = 1, noise is i.i.d.
    N(0, sigma_eps^2), and y = y*(X) + eps.  The same (config, teacher,
    stream_tag) always reproduces the same bytes: X is drawn first, then eps,
    from the single stream named by the tag.
    """
    rng = stream_rng(config.seed, stream_tag)
    X = rng.normal(0.0, config.sigma_x / np.sqrt(config.n_f), (config.m, config.n_f))
    eps = rng.normal(0.0, config.sigma_eps, config.m)
    y = teacher.y_star(X) + eps
    return Dataset(X=X, y=y, eps=eps)


# ---------------------------------------------------------------- features

# Stein's identity: for Gaussian x, E[x c max(0, w.x)] = (c/2) E[x x^T] w, so
# c = 2 makes W the exact linear component of the relu features, which P_f
# and every diagnostic built on it rely on.
RELU_PREFACTOR = 2.0


@dataclass(frozen=True)
class FeatureMap:
    """One of the three basis families, named by kind (one of ACTIVATIONS),
    with its effective linear component W."""

    kind: str
    W: np.ndarray  # n_f x n_p

    def __post_init__(self):
        if self.kind not in ACTIVATIONS:
            raise ConfigurationError(f"kind must be one of {ACTIVATIONS}, got {self.kind!r}")


def make_feature_map(
    config: ExperimentConfig, stream_tag: tuple = (0, 0, STREAM_WEIGHTS)
) -> FeatureMap:
    """Build the feature map named by config.activation.

    identity: W = I and z(x) = x.  linear/relu: W entries i.i.d.
    N(0, sigma_w^2/n_p).  relu uses z = 2 max(0, W^T x).
    """
    if config.activation == "identity":
        return FeatureMap(kind="identity", W=np.eye(config.n_f))
    rng = stream_rng(config.seed, stream_tag)
    W = rng.normal(0.0, config.sigma_w / np.sqrt(config.n_p), (config.n_f, config.n_p))
    return FeatureMap(kind=config.activation, W=W)


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
        Z = RELU_PREFACTOR * np.maximum(0.0, X2 @ fmap.W)
    return Z[0] if one_d else Z


# ---------------------------------------------------------------- fitting


class Factorization:
    """The effective inverse G = V diag(f) U^T of A for the ridge lam, with
    the mask keep of the modes s > cut * s_max (see factorize for the cut).

    The thin SVD route stores U, s and Vt as np.linalg.svd returns them, and
    G and G B are read from them through the filter factors f.

    The Gram route (lam > 0, A strictly tall) stores A, A^T A and
    K = A^T A + lam I, and U is None.  When np.linalg.cholesky accepts K,
    G B = np.linalg.solve(K, A^T B) and nothing reads the spectrum.  The
    spectrum -- s, Vt, keep, AV = A V = U diag(s), rank, sigma_min and
    U_k = AV_k / s_k -- is np.linalg.eigh of A^T A, taken the first time one
    of them is read.  When cholesky rejects K, which happens when lam is
    below the round-off of A^T A on a rank-deficient A, G B is the spectral
    product V diag(1/(s^2 + lam)) (AV)^T B instead, which divides by no
    small s.  Which of the two solves runs depends on (A, lam) alone.
    """

    def __init__(self, U: np.ndarray, s: np.ndarray, Vt: np.ndarray, lam: float, keep: np.ndarray):
        """The thin SVD A = U diag(s) Vt with its kept-mode mask."""
        self.U, self.lam = U, float(lam)
        self._shape = (U.shape[0], Vt.shape[1])
        self._spectrum = (s, Vt, keep)
        self._A = self._K = None

    @classmethod
    def _gram(cls, A: np.ndarray, lam: float, cut: float) -> Factorization:
        """The Gram route of a strictly tall A at lam > 0, keeping s > cut * s_max."""
        self = cls.__new__(cls)
        self.U, self.lam, self._shape, self._cut = None, float(lam), A.shape, cut
        self._A, self._AtA = A, A.T @ A
        K = self._AtA.copy()
        K.flat[:: A.shape[1] + 1] += lam
        try:
            np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            K = None  # the solves fall back to the spectrum
        self._K = K
        return self

    @cached_property
    def _spectrum(self) -> tuple:  # (s, Vt, keep); the SVD route sets it in __init__
        ev, V = np.linalg.eigh(self._AtA)  # ascending
        s = np.sqrt(np.maximum(ev[::-1], 0.0))
        keep = s > self._cut * (s[0] if s.size else 0.0)
        return s, np.ascontiguousarray(V[:, ::-1].T), keep

    @property
    def s(self) -> np.ndarray:
        return self._spectrum[0]

    @property
    def Vt(self) -> np.ndarray:
        return self._spectrum[1]

    @property
    def keep(self) -> np.ndarray:
        return self._spectrum[2]

    @cached_property
    def AV(self) -> np.ndarray | None:
        """A V on the Gram route; None on the SVD route, which stores U."""
        return None if self.U is not None else self._A @ self.Vt.T

    # The kept modes are copied with the boolean mask, not sliced, and G is
    # built from them for lam = 0 but from the unsliced factors for lam > 0:
    # the products' round-off, hence the last digits of every reported
    # number, depends on that layout.
    @cached_property
    def U_k(self) -> np.ndarray:
        if self.U is None:
            return self.AV[:, self.keep] / self.s_k
        return self.U[:, self.keep]

    @cached_property
    def s_k(self) -> np.ndarray:
        return self.s[self.keep]

    @cached_property
    def Vt_k(self) -> np.ndarray:
        return self.Vt[self.keep]

    @property
    def rank(self) -> int:
        return int(self.s_k.size)

    @property
    def sigma_min(self) -> float:
        return float(self.s_k.min()) if self.rank else 0.0

    @cached_property
    def _filtered(self) -> tuple:  # (L, f, Vt) with G = Vt^T diag(f) L^T
        if self.U is None:
            return self.AV, 1.0 / (self.s**2 + self.lam), self.Vt
        if self.lam > 0:
            return self.U, self.s / (self.s**2 + self.lam), self.Vt
        return self.U_k, 1.0 / self.s_k, self.Vt_k

    def effective_inverse(self) -> np.ndarray:
        """G = V diag(f) U^T, shape (columns of A) x (rows of A)."""
        if self._K is not None:
            return np.linalg.solve(self._K, self._A.T)
        L, f, Vt = self._filtered
        return Vt.T @ (f[:, None] * L.T)

    def solve(self, B: np.ndarray, left: np.ndarray | None = None) -> np.ndarray:
        """G B, or left G B when left is given, without forming G.

        B is a vector or a matrix with one row per row of A, and left a
        matrix with one column per column of A.  With K, G B is
        np.linalg.solve(K, A^T B).  Otherwise left G B is
        (left V) diag(f) (L^T B), with L = U, or AV on the Gram route, so
        that no intermediate has a row per column of A.
        """
        rows, cols = self._shape
        if B.shape[0] != rows or (left is not None and (left.ndim != 2 or left.shape[1] != cols)):
            shapes = f"B {B.shape}" if left is None else f"left {left.shape} and B {B.shape}"
            raise ShapeError(f"G of a {rows} x {cols} matrix cannot take {shapes}")
        if self._K is not None:
            GB = np.linalg.solve(self._K, self._A.T @ B)
            return GB if left is None else left @ GB
        L, f, Vt = self._filtered
        fLB = (f if B.ndim == 1 else f[:, None]) * (L.T @ B)
        return Vt.T @ fLB if left is None else (left @ Vt.T) @ fLB


def factorize(
    A: np.ndarray, lam: float = 0.0, rel_tol: float | None = None, *, caller: str = "factorize"
) -> Factorization:
    """Factorize a finite 2-D A for the finite ridge lam >= 0, keeping the
    modes s > rel_tol * s_max (0 < rel_tol < 1, default
    default_rel_tol(A.shape)); errors name ``caller``.

    Two routes, chosen by A's shape and lam alone:

    * lam > 0 and A strictly tall (rows > columns), the Gram route: here
      factorize forms K = A^T A + lam I and runs np.linalg.cholesky on it,
      as a test only.  If K passes, every solve is np.linalg.solve(K, A^T B);
      if not, every solve is the spectral product of np.linalg.eigh of A^T A.
      That eigh runs the first time the spectrum is read, or at the first
      solve when K failed.  It costs a fraction of the SVD of A.  Forming
      and diagonalizing A^T A moves its eigenvalues by up to about
      max(A.shape) eps s_max^2, so this route cannot resolve smaller s, and
      its cut is s > max(rel_tol, 10 sqrt(max(A.shape) eps)) * s_max, about
      2.4e-6 s_max at 256 rows.  For lam > 0 the cut feeds only rank,
      sigma_min and U_k; G and G B use every mode.
    * otherwise (wide or square A, or lam = 0) the thin SVD of
      np.linalg.svd, whose U, s and Vt are stored as it returns them.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ShapeError(f"{caller} input must be 2-D, got shape {A.shape}")
    if not 0 <= lam < np.inf:
        raise ConfigurationError(f"lam must be finite and >= 0, got {lam}")
    tol = default_rel_tol(A.shape) if rel_tol is None else float(rel_tol)
    if not 0 < tol < 1:
        raise ConfigurationError(f"{caller}: the relative cutoff must lie in (0, 1), got {rel_tol}")
    if not np.all(np.isfinite(A)):
        raise NumericError(f"{caller} input has non-finite entries")
    if lam > 0 and A.shape[0] > A.shape[1]:
        gram_tol = 10.0 * np.sqrt(max(A.shape) * np.finfo(float).eps)
        return Factorization._gram(A, lam, max(tol, gram_tol))
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return Factorization(U, s, Vt, float(lam), keep=s > tol * (s[0] if s.size else 0.0))


def pseudoinverse(A: np.ndarray, rel_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose inverse by SVD, zeroing sigma <= rel_tol * sigma_max.

    rel_tol defaults to 1e-10 * max(A.shape).
    """
    return factorize(A, rel_tol=rel_tol, caller="pseudoinverse").effective_inverse()


@dataclass(frozen=True)
class FittedModel:
    """Result of one least-squares/ridge fit, with its factorization kept for reuse."""

    w_hat: np.ndarray
    feature_map: FeatureMap | None
    factors: Factorization = field(repr=False)
    train_error: float  # mean((y - Z w_hat)^2) on the training set

    @property
    def rank_z(self) -> int:
        return self.factors.rank

    @property
    def sigma_z_min(self) -> float:
        return self.factors.sigma_min

    def effective_inverse(self) -> np.ndarray:
        """The matrix G with what = G y: truncated Z^+ for lam = 0, the
        ridge-filtered inverse for lam > 0.  Downstream operators built from
        G satisfy their algebraic identities to round-off for either path."""
        return self.factors.effective_inverse()


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
    lam > 0: ridge solution through filter factors sigma/(sigma^2 + lam),
    or on a strictly tall Z through the Gram route of factorize.
    Records the train error; rank(Z) and the smallest retained singular
    value are read from the factorization, which on the Gram route computes
    them the first time they are read.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    # y is checked before the factorization, the costly step
    if y.ndim != 1 or Z.shape[:1] != y.shape:
        raise ShapeError(f"fit needs one label per row of Z, got Z {Z.shape} and y {y.shape}")
    if not np.all(np.isfinite(y)):
        raise NumericError("fit input has non-finite entries")
    factors = factorize(Z, lam, rel_tol, caller="fit")
    w_hat = factors.solve(y)
    r = y - Z @ w_hat
    return FittedModel(
        w_hat=w_hat,
        feature_map=feature_map,
        factors=factors,
        train_error=float(np.mean(r * r)),
    )

