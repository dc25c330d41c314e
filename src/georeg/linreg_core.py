"""Data generation, feature-map families, and minimum-norm/ridge fitting.

The teacher is the coefficient vector beta of the labels y(x) = x.beta + eps.
A student predicts yhat(x) = z(x).what, where the features z(x) come from
one of three families:

    identity   z(x) = x                      (n_p = n_f)
    linear     z(x) = W^T x                  W random n_f x n_p
    relu       z(x) = 2 max(0, W^T x)        elementwise

For relu the prefactor 2 makes W the exact effective linear component of
the feature map under Gaussian inputs (Stein's identity), which the geometric
diagnostics rely on.

Fitting minimizes |Z w - y|^2 + lam |w|^2 through the effective inverse
G = V diag(f) U^T of the factorization Z = U diag(s) V^T.  factorize holds
the package's only factorizations and singular-value rule; it and its
Factorization state the routes (the thin SVD, and the Gram route of a
non-square Z at lam > 0), the guard between them and the cut.
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
    stream_rng,
)
from .errors import ConfigurationError, NumericError, ShapeError

# ---------------------------------------------------------------- teachers


def sample_teacher(config: ExperimentConfig, stream_tag: tuple = (0, 0, STREAM_TEACHER)) -> np.ndarray:
    """Draw the teacher beta, n_f i.i.d. N(0, sigma_beta^2) entries; pure in (config, tag)."""
    return stream_rng(config.seed, stream_tag).normal(0.0, config.sigma_beta, config.n_f)


def _check_beta(beta: np.ndarray, n_f: int) -> np.ndarray:
    """beta as a float array: a ShapeError unless of shape (n_f,), a NumericError unless finite."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (n_f,):
        raise ShapeError(f"beta must have shape ({n_f},), got {beta.shape}")
    if not np.all(np.isfinite(beta)):
        raise NumericError("beta has non-finite entries")
    return beta


# ---------------------------------------------------------------- datasets


@dataclass(frozen=True)
class Dataset:
    """A design matrix with its labels."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.X.shape[0] != self.y.shape[0]:
            raise ShapeError(f"X has {self.X.shape[0]} rows but y has {self.y.shape[0]}")


def sample_dataset(config: ExperimentConfig, beta: np.ndarray, stream_tag: tuple) -> Dataset:
    """Draw a dataset of config.m points; training and test sets alike.

    X entries are i.i.d. N(0, sigma_x^2/n_f) with sigma_x = 1, noise eps is
    i.i.d. N(0, sigma_eps^2), and y = X beta + eps.  The same (config, beta,
    stream_tag) always reproduces the same bytes: X is drawn first, then eps,
    from the single stream named by the tag.
    """
    beta = _check_beta(beta, config.n_f)
    rng = stream_rng(config.seed, stream_tag)
    X = rng.normal(0.0, config.sigma_x / np.sqrt(config.n_f), (config.m, config.n_f))
    return Dataset(X=X, y=X @ beta + rng.normal(0.0, config.sigma_eps, config.m))


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
    else:
        Z = X2 @ fmap.W
        if fmap.kind == "relu":
            # in place on the fresh product; 0.0 first keeps the bits of
            # np.maximum(0.0, Z) for signed zeros
            np.maximum(0.0, Z, out=Z)
            Z *= RELU_PREFACTOR
    return Z[0] if one_d else Z


# ---------------------------------------------------------------- fitting


# The guard of the Gram route: see factorize.
_GUARD_LAM = 1e3
_GUARD_RATIO = np.sqrt(np.finfo(float).eps)


def _guarded_gram(A: np.ndarray, lam: float) -> np.ndarray | None:
    """K, the Gram matrix of the smaller side of a non-square A plus lam I,
    or None when K fails the guard of factorize."""
    K = A.T @ A if A.shape[0] > A.shape[1] else A @ A.T
    K.flat[:: K.shape[0] + 1] += lam
    d = np.diagonal(K).copy()
    with np.errstate(over="ignore"):  # an overflowed norm leaves tau = 1e3 lam
        tau = min(_GUARD_LAM * lam, _GUARD_RATIO * np.linalg.norm(K))
    K.flat[:: K.shape[0] + 1] = d - tau
    try:
        np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        return None
    K.flat[:: K.shape[0] + 1] = d
    return K


class Factorization:
    """The effective inverse G = V diag(f) U^T of A for the ridge lam, with
    the mask keep of the modes that pass the package's one singular-value
    cut, s > 1e-10 * max(A.shape) * s_max.

    Factorization(A, lam) is the thin SVD route: G and G B are read
    from the U, s and Vt of np.linalg.svd(A, full_matrices=False) through
    the filter factors f = 1/s on the kept modes for lam = 0 and
    f = s/(s^2 + lam) on every mode for lam > 0.  It takes that SVD here,
    so a later write to A changes nothing.

    Factorization(A, lam, K), with the K that the guard of factorize
    accepted for a non-square A at lam > 0, is the Gram route, which solves
    with np.linalg.solve: G B = K^-1 A^T B with K = A^T A + lam I on a tall
    A, and G B = A^T K^-1 B with K = A A^T + lam I on a wide one.  Its
    solves read A, which is kept as given, not copied, and its spectrum is
    taken the first time it is read.

    Every route's spectrum is the thin SVD of A: on the tall Gram route its
    singular values s alone, so the kept U_k and Vt_k are None there, and on
    a wide one the full thin SVD, bitwise the SVD route's.
    """

    def __init__(self, A: np.ndarray, lam: float, K: np.ndarray | None = None):
        self._A, self.lam, self._K = A, float(lam), K
        if K is None:  # the SVD route takes its SVD now
            self._spectrum

    @cached_property
    def _spectrum(self) -> tuple:  # (U, s, Vt, keep)
        A = self._A
        if self._K is not None and A.shape[0] > A.shape[1]:
            U, s, Vt = None, np.linalg.svd(A, compute_uv=False), None
        else:
            U, s, Vt = np.linalg.svd(A, full_matrices=False)
        return U, s, Vt, s > 1e-10 * max(A.shape) * (s[0] if s.size else 0.0)

    @property
    def s(self) -> np.ndarray:
        return self._spectrum[1]

    # The kept modes are copied with the boolean mask, not sliced, and G is
    # built from them for lam = 0 but from the unsliced factors for lam > 0:
    # the products' round-off, hence the last digits of every reported
    # number, depends on that layout.
    @cached_property
    def U_k(self) -> np.ndarray | None:
        U, _, _, keep = self._spectrum
        return None if U is None else U[:, keep]

    @cached_property
    def s_k(self) -> np.ndarray:
        _, s, _, keep = self._spectrum
        return s[keep]

    @cached_property
    def Vt_k(self) -> np.ndarray | None:
        _, _, Vt, keep = self._spectrum
        return None if Vt is None else Vt[keep]

    @property
    def rank(self) -> int:
        return int(self.s_k.size)

    @property
    def sigma_min(self) -> float:
        return float(self.s_k.min()) if self.rank else 0.0

    @property
    def frob_complement(self) -> float:
        """|I - P_l|_F, P_l = U_k U_k^T, over the M rows of A: sqrt(M - rank) on
        the tall Gram route, else the root of M - 2 |U_k|_F^2 + |U_k^T U_k|_F^2."""
        m, U_k = self._A.shape[0], self.U_k
        if U_k is None:
            return float(np.sqrt(m - self.rank))
        sq = m - 2.0 * np.sum(U_k * U_k) + np.sum((U_k.T @ U_k) ** 2)
        return float(np.sqrt(max(sq, 0.0)))

    @cached_property
    def _filtered(self) -> tuple:  # (U, f, Vt) of the SVD route, with G = Vt^T diag(f) U^T
        if self.lam > 0:
            U, s, Vt, _ = self._spectrum
            return U, s / (s**2 + self.lam), Vt
        return self.U_k, 1.0 / self.s_k, self.Vt_k

    def effective_inverse(self) -> np.ndarray:
        """G, shape (columns of A) x (rows of A): G applied to the identity."""
        return self.solve(np.eye(self._A.shape[0]))

    def solve(self, B: np.ndarray, left: np.ndarray | None = None) -> np.ndarray:
        """G B, or left G B when left is given, without forming G.

        B is a vector or a matrix with one row per row of A, and left a
        matrix with one column per column of A; any other shape is a
        ShapeError.  On a wide Gram-route A, left G B is (left A^T) K^-1 B,
        and on the SVD route (left V) diag(f) (U^T B), so no intermediate
        has a row per column of A.
        """
        B = np.asarray(B, dtype=float)
        left = None if left is None else np.asarray(left, dtype=float)
        rows, cols = self._A.shape
        bad_left = left is not None and (left.ndim != 2 or left.shape[1] != cols)
        if B.ndim not in (1, 2) or B.shape[0] != rows or bad_left:
            shapes = f"B {B.shape}" if left is None else f"left {left.shape} and B {B.shape}"
            raise ShapeError(f"G of a {rows} x {cols} matrix cannot take {shapes}")
        A, K = self._A, self._K
        if K is not None and rows > cols:
            GB = np.linalg.solve(K, A.T @ B)
            return GB if left is None else left @ GB
        if K is not None:
            KB = np.linalg.solve(K, B)
            return A.T @ KB if left is None else (left @ A.T) @ KB
        U, f, Vt = self._filtered
        fUB = (f if B.ndim == 1 else f[:, None]) * (U.T @ B)
        return Vt.T @ fUB if left is None else (left @ Vt.T) @ fUB


def factorize(A: np.ndarray, lam: float = 0.0, *, caller: str = "factorize") -> Factorization:
    """Factorize a finite 2-D A for the finite ridge lam >= 0; errors name
    ``caller``.  Every route's spectrum is the thin SVD of A, kept by the
    one cut of Factorization.

    Two routes, chosen by A and lam alone (see Factorization for what each
    computes):

    * lam > 0 and A not square, the Gram route, on the smaller side of A:
      factorize forms K = A^T A + lam I for a tall A and K = A A^T + lam I
      for a wide one.  For lam > 0 the cut feeds only rank, sigma_min and
      the kept modes; G and G B use every mode.
    * otherwise the thin SVD of np.linalg.svd.  That is every square A,
      every lam = 0, and a Gram route that fails its guard.

    The guard sends a non-square lam > 0 fit to the thin SVD when

        lam_min(K) < tau = min(1e3 lam, sqrt(eps) |K|_F),

    decided exactly by whether np.linalg.cholesky(K - tau I) fails: A is
    then numerically rank-deficient at this lam and K ill-conditioned, and
    K^-1 would amplify the round-off of forming A^T A or A A^T in the null
    directions of A by up to 1/lam.

    A wide Gram-route fit whose spectrum is read runs the Gram solves and
    then the thin SVD, so only G and G B differ from the SVD route's, by
    round-off.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ShapeError(f"{caller} input must be 2-D, got shape {A.shape}")
    if not 0 <= lam < np.inf:
        raise ConfigurationError(f"lam must be finite and >= 0, got {lam}")
    if not np.all(np.isfinite(A)):
        raise NumericError(f"{caller} input has non-finite entries")
    rows, cols = A.shape
    K = _guarded_gram(A, lam) if lam > 0 and rows != cols else None
    return Factorization(A, lam, K)


def pseudoinverse(A: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse by SVD, zeroing the modes that the one cut of
    Factorization drops."""
    return factorize(A, caller="pseudoinverse").effective_inverse()


@dataclass(frozen=True)
class FittedModel:
    """One least-squares/ridge fit, and the one holder of each of its
    quantities: w_hat = G y, the factorization of Z with every product of G
    (rank, sigma_min, G B), the feature map, and the train error."""

    w_hat: np.ndarray
    feature_map: FeatureMap | None
    factors: Factorization = field(repr=False)
    train_error: float  # mean((y - Z w_hat)^2) on the training set

    def effective_inverse(self) -> np.ndarray:
        """The matrix G with what = G y: truncated Z^+ for lam = 0, the
        ridge-filtered inverse for lam > 0.  Downstream operators built from
        G satisfy their algebraic identities to round-off for either path."""
        return self.factors.effective_inverse()


def fit(
    Z: np.ndarray,
    y: np.ndarray,
    lam: float = 0.0,
    feature_map: FeatureMap | None = None,
) -> FittedModel:
    """Least-squares fit of Z w ~ y.

    lam = 0: minimum-norm solution what = Z^+ y; lam > 0: the ridge
    solution.  The route and the cut are those of factorize.  Z needs at
    least one row; a Z with no columns fits w_hat = [] with train error
    mean(y^2).
    Records the train error; rank(Z) and the smallest retained singular
    value are read from the factorization when first read.  A w_hat that
    is not finite, as when K or the filter overflows, is a NumericError.
    """
    return _fit(Z, y, lam, feature_map)[0]


def _fit(
    Z: np.ndarray,
    y: np.ndarray,
    lam: float,
    feature_map: FeatureMap | None,
    also: np.ndarray | None = None,
) -> tuple[FittedModel, np.ndarray | None]:
    """(fit(Z, y, lam, feature_map), G also).

    Without also, w_hat = G y is one vector solve and the second item is
    None.  With also, a vector with one entry per row of Z, w_hat and G also
    are the two columns of one solve of [y, also]: one LU of K on the Gram
    route instead of two, though w_hat is then not bitwise the vector
    solve's.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    # y is checked before the factorization, the costly step
    if y.ndim != 1 or Z.shape[:1] != y.shape or not y.size:
        raise ShapeError(f"fit needs one label per row of Z and at least one row, got Z {Z.shape} and y {y.shape}")
    if not np.all(np.isfinite(y)):
        raise NumericError("fit input has non-finite entries")
    factors = factorize(Z, lam, caller="fit")
    if also is None:
        w_hat, g_also = factors.solve(y), None
    else:
        w_hat, g_also = factors.solve(np.column_stack((y, also))).T.copy()
    if not np.all(np.isfinite(w_hat)):
        raise NumericError(f"fit's w_hat is not finite on the {'thin SVD' if factors._K is None else 'Gram'} route")
    r = y - Z @ w_hat
    model = FittedModel(w_hat=w_hat, feature_map=feature_map, factors=factors, train_error=float(np.mean(r * r)))
    return model, g_also
