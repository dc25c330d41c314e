"""Exception types shared across the package.

Configuration and shape problems are ValueErrors (caller passed something
inconsistent); numeric failures are RuntimeErrors (inputs were plausible but
the computation produced non-finite values or degenerated).
"""


class ConfigurationError(ValueError):
    """Invalid experiment configuration (dimensions, counts, parameter ranges)."""


class ShapeError(ValueError):
    """Array arguments have inconsistent shapes."""


class NumericError(RuntimeError):
    """A computation produced non-finite values."""


class DegenerateDirectionError(RuntimeError):
    """A perturbation direction lost one of its components.

    ``side`` records which projection degenerated: "parallel" when the vector
    has no component in the expressible subspace, "perpendicular" when it lies
    entirely inside it.
    """

    def __init__(self, side: str):
        self.side = side
        super().__init__(f"degenerate {side} component")


class ExperimentError(RuntimeError):
    """An experiment could not produce any usable output."""
