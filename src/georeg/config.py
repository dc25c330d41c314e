"""Experiment configuration and deterministic random-stream splitting.

One 64-bit seed expands into independent named streams through numpy's
SeedSequence spawn keys.  A stream is addressed by a tuple of small integers,
conventionally (grid_index, replica_index, stream_id); single-point
operations use grid_index 0.  Stream ids:

    0 teacher coefficients        3 paired training set
    1 random feature weights      4 test set
    2 training set                5 perturbation directions

Every sampling operation in the package is a pure function of
(seed, stream tuple), so results are independent of evaluation order and
worker count.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .errors import ConfigurationError

# stream ids ----------------------------------------------------------------
STREAM_TEACHER = 0
STREAM_WEIGHTS = 1
STREAM_TRAIN = 2
STREAM_TRAIN_PAIR = 3
STREAM_TEST = 4
STREAM_PERTURB = 5

StreamTag = Union[int, tuple]

ACTIVATIONS = ("identity", "linear", "relu")


def stream_rng(seed: int, stream_tag: StreamTag) -> np.random.Generator:
    """Return the generator for one named stream under ``seed``.

    ``stream_tag`` is an integer or a tuple of integers; distinct tags give
    statistically independent streams and identical tags reproduce the same
    draws bit-for-bit.
    """
    if isinstance(stream_tag, (int, np.integer)):
        key = (int(stream_tag),)
    else:
        key = tuple(int(t) for t in stream_tag)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """All parameters of one regression experiment.

    Scales follow the sampling conventions: X entries ~ N(0, sigma_x^2/n_f),
    noise ~ N(0, sigma_eps^2), teacher beta ~ N(0, sigma_beta^2), random
    weights W ~ N(0, sigma_w^2/n_p).  The label variance implied by a linear
    teacher is sigma_y^2 = sigma_x^2 sigma_beta^2 + sigma_eps^2 and the
    signal-to-noise ratio is sigma_x^2 sigma_beta^2 / sigma_eps^2.
    """

    m: int = 256
    n_f: int = 64
    n_p: int = 256
    m_test: int | None = None
    sigma_x: float = 1.0
    sigma_eps: float = 0.1 ** 0.5
    sigma_beta: float = 1.0
    sigma_w: float = 1.0
    lam: float = 1e-8
    activation: str = "relu"
    seed: int = 2

    def __post_init__(self):
        for name in ("m", "n_f", "n_p"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ConfigurationError(f"{name} must be a positive integer, got {v!r}")
        if self.m_test is not None and (not isinstance(self.m_test, (int, np.integer)) or self.m_test < 1):
            raise ConfigurationError(f"m_test must be a positive integer, got {self.m_test!r}")
        # written as "not lo < v < inf" so that NaN, which fails every
        # comparison, is rejected too
        for name in ("sigma_x", "sigma_beta"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigurationError(f"{name} must be finite and > 0")
        for name in ("sigma_eps", "sigma_w", "lam"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigurationError(f"{name} must be finite and >= 0")
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.activation == "identity" and self.n_p != self.n_f:
            raise ConfigurationError(
                f"identity activation requires n_p == n_f, got n_p={self.n_p}, n_f={self.n_f}"
            )
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed <= 2**64 - 1:
            raise ConfigurationError(f"seed must be an integer that fits in 64 unsigned bits, got {self.seed!r}")

    # -- derived quantities -------------------------------------------------

    @property
    def effective_m_test(self) -> int:
        return self.m if self.m_test is None else self.m_test

    @property
    def sigma_y_sq(self) -> float:
        """Theoretical label variance for a linear teacher."""
        return self.sigma_x**2 * self.sigma_beta**2 + self.sigma_eps**2

    @property
    def snr(self) -> float:
        if self.sigma_eps == 0:
            return float("inf")
        return self.sigma_x**2 * self.sigma_beta**2 / self.sigma_eps**2

    def with_updates(self, **kw) -> "ExperimentConfig":
        return replace(self, **kw)


def sigma_eps_for_snr(snr: float, sigma_x: float = 1.0, sigma_beta: float = 1.0) -> float:
    """Noise scale that realizes a target signal-to-noise ratio."""
    if not snr > 0:
        raise ConfigurationError(f"snr must be > 0, got {snr}")
    return (sigma_x**2 * sigma_beta**2 / snr) ** 0.5


def ratio_to_count(ratio: float, m: int) -> int:
    """Grid ratio -> integer dimension: floor(ratio*m), at least 1.

    The 1e-9 nudge keeps decimal-intent ratios (0.3 * 640 = 191.99999999999997
    in binary) from rounding down one short; it never changes an exact product.
    """
    if not 0 < ratio < np.inf:
        raise ConfigurationError(f"grid ratio must be finite and > 0, got {ratio}")
    return max(1, int(np.floor(ratio * m + 1e-9)))


def default_rel_tol(shape: tuple) -> float:
    """Default relative cutoff for singular-value truncation."""
    return 1e-10 * max(shape)
