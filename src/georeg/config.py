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

The input, teacher and weight scales are fixed at 1: ExperimentConfig reads
them as the class constants sigma_x, sigma_beta and sigma_w, and the noise
scale sigma_eps is the one scale a caller sets.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigurationError

# stream ids ----------------------------------------------------------------
STREAM_TEACHER = 0
STREAM_WEIGHTS = 1
STREAM_TRAIN = 2
STREAM_TRAIN_PAIR = 3
STREAM_TEST = 4
STREAM_PERTURB = 5

ACTIVATIONS = ("identity", "linear", "relu")


def stream_rng(seed: int, stream_tag: tuple) -> np.random.Generator:
    """Return the generator for one named stream under ``seed``.

    ``stream_tag`` is a tuple of integers; distinct tags give statistically
    independent streams and identical tags reproduce the same draws
    bit-for-bit.
    """
    key = tuple(int(t) for t in stream_tag)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def check_integer(name: str, v, lo: int = 1, hi: float = np.inf) -> None:
    """Raise ConfigurationError unless v is an integer in [lo, hi]; a bool is not one."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not lo <= v <= hi:
        bound = f">= {lo}" if hi == np.inf else f"in [{lo}, {hi}]"
        raise ConfigurationError(f"{name} must be an integer {bound}, got {v!r}")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """All parameters of one regression experiment.

    Scales follow the sampling conventions: X entries ~ N(0, sigma_x^2/n_f),
    noise ~ N(0, sigma_eps^2), teacher beta ~ N(0, sigma_beta^2), random
    weights W ~ N(0, sigma_w^2/n_p).  sigma_x, sigma_beta and sigma_w are
    class constants fixed at 1, so the label variance implied by a linear
    teacher is sigma_y^2 = 1 + sigma_eps^2 and the signal-to-noise ratio is
    1 / sigma_eps^2.  Training and test sets both have m rows.
    """

    sigma_x: ClassVar[float] = 1.0
    sigma_beta: ClassVar[float] = 1.0
    sigma_w: ClassVar[float] = 1.0

    m: int = 256
    n_f: int = 64
    n_p: int = 256
    sigma_eps: float = 0.1 ** 0.5
    lam: float = 1e-8
    activation: str = "relu"
    seed: int = 2

    def __post_init__(self):
        for name in ("m", "n_f", "n_p"):
            check_integer(name, getattr(self, name))
        # written as "not lo <= v < inf" so that NaN, which fails every
        # comparison, is rejected too
        for name in ("sigma_eps", "lam"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigurationError(f"{name} must be finite and >= 0")
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.activation == "identity" and self.n_p != self.n_f:
            raise ConfigurationError(
                f"identity activation requires n_p == n_f, got n_p={self.n_p}, n_f={self.n_f}"
            )
        check_integer("seed", self.seed, lo=0, hi=2**64 - 1)

    # -- derived quantities -------------------------------------------------

    @property
    def sigma_y_sq(self) -> float:
        """Theoretical label variance for a linear teacher."""
        return 1.0 + self.sigma_eps**2


def sigma_eps_for_snr(snr: float) -> float:
    """Noise scale that realizes a target signal-to-noise ratio 1 / sigma_eps^2."""
    if not snr > 0:
        raise ConfigurationError(f"snr must be > 0, got {snr}")
    return (1.0 / snr) ** 0.5


def ratio_to_count(ratio: float, m: int) -> int:
    """Grid ratio -> integer dimension: floor(ratio*m), at least 1.

    The 1e-9 nudge keeps decimal-intent ratios (0.3 * 640 = 191.99999999999997
    in binary) from rounding down one short; it never changes an exact product.
    """
    if not 0 < ratio < np.inf:
        raise ConfigurationError(f"grid ratio must be finite and > 0, got {ratio}")
    return max(1, int(np.floor(ratio * m + 1e-9)))
