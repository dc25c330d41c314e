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
what = Z^+ y) or f = s/(s^2 + lam) on every mode for lam > 0.  A non-square
Z at lam > 0 takes the Gram route on its smaller side instead of the thin
SVD, which every other call uses: it solves with K = Z^T Z + lam I (tall Z)
or K = Z Z^T + lam I (wide Z) through np.linalg.solve once
np.linalg.cholesky accepts K and its pivots pass a guard against a
numerically rank-deficient Z, and falls back to the thin SVD otherwise.
The spectrum (rank, sigma_min, U_k) is taken only when it is read: eigh of
Z^T Z for a tall Z, the thin SVD for a wide one.  A fit and its P_f never
read it.
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


class Factorization:
    """The effective inverse G = V diag(f) U^T of A for the ridge lam, with
    the mask keep of the modes s > cut * s_max (see factorize for the cut).

    The thin SVD route stores U, s and Vt as np.linalg.svd returns them, and
    G and G B are read from them through the filter factors f.

    The Gram route (lam > 0, A not square, K accepted by the guard of
    factorize) stores A and K, the Gram matrix of A's smaller side plus
    lam I, and solves with np.linalg.solve: G B = K^-1 A^T B with
    K = A^T A + lam I on a tall A, and G B = A^T K^-1 B with
    K = A A^T + lam I on a wide one.  The spectrum -- s, Vt, keep, rank,
    sigma_min and U_k -- is taken the first time one of them is read, and
    the solves never read it.  On a tall A it is np.linalg.eigh of A^T A,
    U is None and U_k = A V_k / s_k.  On a wide A it is the thin SVD of A
    with the SVD route's cut, so every spectral attribute is bitwise the
    SVD route's.
    """

    def __init__(self, U: np.ndarray, s: np.ndarray, Vt: np.ndarray, lam: float, keep: np.ndarray):
        """The thin SVD A = U diag(s) Vt with its kept-mode mask."""
        self.lam = float(lam)
        self._shape = (U.shape[0], Vt.shape[1])
        self._spectrum = (U, s, Vt, keep)
        self._A = self._K = None

    @classmethod
    def _gram(cls, A: np.ndarray, lam: float, cut: float) -> Factorization | None:
        """The Gram route of a non-square A at lam > 0, keeping s > cut * s_max;
        None when K fails the guard of factorize."""
        K = A.T @ A if A.shape[0] > A.shape[1] else A @ A.T
        # K is the Gram matrix with lam added in place; its diagonal is kept
        # so that _spectrum can restore the Gram matrix bit for bit
        gram_diagonal = np.diagonal(K).copy()
        K.flat[:: K.shape[0] + 1] += lam
        try:
            d2 = np.diagonal(np.linalg.cholesky(K)) ** 2
        except np.linalg.LinAlgError:
            return None
        if d2.size and d2.min() < _GUARD_LAM * lam and d2.min() < _GUARD_RATIO * d2.max():
            return None
        self = cls.__new__(cls)
        self.lam, self._shape, self._cut = float(lam), A.shape, cut
        self._A, self._gram_diagonal, self._K = A, gram_diagonal, K
        return self

    @cached_property
    def _spectrum(self) -> tuple:  # (U, s, Vt, keep); the SVD route sets it in __init__
        A = self._A
        if A.shape[0] < A.shape[1]:
            U, s, Vt = np.linalg.svd(A, full_matrices=False)
        else:
            gram = self._K.copy()
            np.fill_diagonal(gram, self._gram_diagonal)
            ev, V = np.linalg.eigh(gram)  # ascending
            U, s, Vt = None, np.sqrt(np.maximum(ev[::-1], 0.0)), np.ascontiguousarray(V[:, ::-1].T)
        return U, s, Vt, s > self._cut * (s[0] if s.size else 0.0)

    @property
    def U(self) -> np.ndarray | None:
        """The left singular vectors; None on the tall Gram route, which never forms them."""
        return self._spectrum[0]

    @property
    def s(self) -> np.ndarray:
        return self._spectrum[1]

    @property
    def Vt(self) -> np.ndarray:
        return self._spectrum[2]

    @property
    def keep(self) -> np.ndarray:
        return self._spectrum[3]

    # The kept modes are copied with the boolean mask, not sliced, and G is
    # built from them for lam = 0 but from the unsliced factors for lam > 0:
    # the products' round-off, hence the last digits of every reported
    # number, depends on that layout.
    @cached_property
    def U_k(self) -> np.ndarray:
        if self.U is None:
            return (self._A @ self.Vt.T)[:, self.keep] / self.s_k
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
    def _filtered(self) -> tuple:  # (U, f, Vt) of the SVD route, with G = Vt^T diag(f) U^T
        if self.lam > 0:
            return self.U, self.s / (self.s**2 + self.lam), self.Vt
        return self.U_k, 1.0 / self.s_k, self.Vt_k

    def effective_inverse(self) -> np.ndarray:
        """G = V diag(f) U^T, shape (columns of A) x (rows of A)."""
        if self._K is not None and self._shape[0] > self._shape[1]:
            return np.linalg.solve(self._K, self._A.T)
        if self._K is not None:
            return self._A.T @ np.linalg.solve(self._K, np.eye(self._shape[0]))
        U, f, Vt = self._filtered
        return Vt.T @ (f[:, None] * U.T)

    def solve(self, B: np.ndarray, left: np.ndarray | None = None) -> np.ndarray:
        """G B, or left G B when left is given, without forming G.

        B is a vector or a matrix with one row per row of A, and left a
        matrix with one column per column of A.  On the Gram route G B is
        np.linalg.solve(K, A^T B) for a tall A and A^T np.linalg.solve(K, B)
        for a wide one, and left G B is (left A^T) K^-1 B on a wide A.  On
        the SVD route left G B is (left V) diag(f) (U^T B).  No intermediate
        has a row per column of A.
        """
        rows, cols = self._shape
        if B.shape[0] != rows or (left is not None and (left.ndim != 2 or left.shape[1] != cols)):
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


def factorize(
    A: np.ndarray,
    lam: float = 0.0,
    rel_tol: float | None = None,
    *,
    caller: str = "factorize",
) -> Factorization:
    """Factorize a finite 2-D A for the finite ridge lam >= 0, keeping the
    modes s > rel_tol * s_max (0 < rel_tol < 1, default
    default_rel_tol(A.shape)); errors name ``caller``.

    Two routes, chosen by A and lam alone:

    * lam > 0 and A not square, the Gram route, on the smaller side of A:
      factorize forms K = A^T A + lam I for a tall A and K = A A^T + lam I
      for a wide one, and reads the pivots d = diag(L) of
      L = np.linalg.cholesky(K).  Every solve is then an np.linalg.solve
      on K (see Factorization), and no spectrum is computed until it is
      read.  On a tall A the spectrum is np.linalg.eigh of A^T A, which
      moves the eigenvalues by up to about max(A.shape) eps s_max^2, so it
      cannot resolve smaller s, and its cut is
      s > max(rel_tol, 10 sqrt(max(A.shape) eps)) * s_max, about
      2.4e-6 s_max at 256 rows.  On a wide A it is the thin SVD of A with
      the plain cut.  For lam > 0 the cut feeds only rank, sigma_min and
      U_k; G and G B use every mode.
    * otherwise the thin SVD of np.linalg.svd, whose U, s and Vt are stored
      as it returns them.  That is every square A, every lam = 0, and a
      Gram route that fails its guard.

    The guard sends a non-square lam > 0 fit to the thin SVD when cholesky
    rejects K, or when both

        min d^2 < 1e3 lam                and    (min d / max d)^2 < sqrt(eps),

    that is, when A is numerically rank-deficient at this lam and K is
    ill-conditioned.  K^-1 then amplifies the round-off of forming A^T A
    or A A^T in the null directions of A by up to 1/lam.  A large lam
    keeps K well conditioned, and such a fit keeps the Gram route.

    A wide Gram-route fit whose spectrum is read runs the Gram solves and
    then the thin SVD; forming K, its cholesky and the solves of a fit and
    its P_f add 15-22% to that SVD at 256 rows on one BLAS thread.  Its
    spectrum, U_k included, has the bits of the SVD route's, so only G and
    G B differ from that route, by round-off.
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
    rows, cols = A.shape
    if lam > 0 and rows != cols:
        cut = max(tol, 10.0 * np.sqrt(rows * np.finfo(float).eps)) if rows > cols else tol
        factors = Factorization._gram(A, lam, cut)
        if factors is not None:
            return factors
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
    or on a non-square Z through the Gram route of factorize.
    Records the train error; rank(Z) and the smallest retained singular
    value are read from the factorization, which on the Gram route computes
    them the first time they are read.
    """
    return _fit(Z, y, lam, rel_tol, feature_map)[0]


def _fit(
    Z: np.ndarray,
    y: np.ndarray,
    lam: float,
    rel_tol: float | None,
    feature_map: FeatureMap | None,
    also: np.ndarray | None = None,
) -> tuple[FittedModel, np.ndarray | None]:
    """(fit(Z, y, lam, rel_tol, feature_map), G also).

    Without also, w_hat = G y is one vector solve and the second item is
    None.  With also, a vector with one entry per row of Z, w_hat and G also
    are the two columns of one solve of [y, also]: one LU of K on the Gram
    route instead of two, though w_hat is then not bitwise the vector
    solve's.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    # y is checked before the factorization, the costly step
    if y.ndim != 1 or Z.shape[:1] != y.shape:
        raise ShapeError(f"fit needs one label per row of Z, got Z {Z.shape} and y {y.shape}")
    if not np.all(np.isfinite(y)):
        raise NumericError("fit input has non-finite entries")
    factors = factorize(Z, lam, rel_tol, caller="fit")
    if also is None:
        w_hat, g_also = factors.solve(y), None
    else:
        w_hat, g_also = factors.solve(np.column_stack((y, also))).T.copy()
    r = y - Z @ w_hat
    model = FittedModel(w_hat=w_hat, feature_map=feature_map, factors=factors, train_error=float(np.mean(r * r)))
    return model, g_also
