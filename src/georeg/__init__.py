"""georeg: feature-space geometry of over-parameterized least squares.

Fit minimum-norm/ridge linear models over identity, random-linear, or
random-nonlinear feature families and analyze them through two projection
operators: P_l on the training labels and P_f on the input features.  The
SVD of P_f carries per-mode angles that classify the operator (orthogonal,
oblique, or "noisy" oblique), explain the double-descent test-error peak as
a geometric variance divergence, and split input perturbations into
adversarial and invariant directions.
"""
from types import ModuleType as _ModuleType

from .config import (
    ACTIVATIONS,
    ExperimentConfig,
    STREAM_PERTURB,
    STREAM_TEACHER,
    STREAM_TEST,
    STREAM_TRAIN,
    STREAM_TRAIN_PAIR,
    STREAM_WEIGHTS,
    ratio_to_count,
    sigma_eps_for_snr,
    stream_rng,
)
from .decomposition import (
    PairedDraw,
    draw_paired_replica,
    summarize,
)
from .errors import (
    ConfigurationError,
    DegenerateDirectionError,
    ExperimentError,
    NumericError,
    ShapeError,
)
from .experiments import (
    ALL_METRICS,
    SweepResult,
    SweepRow,
    SweepSpec,
    run_bias_variance,
    run_sweep,
)
from .geometry import (
    FeatureOperatorAnalysis,
    LabelProjector,
    analysis_to_json_dict,
    analyze_operator,
    feature_operator_from_model,
    label_projector,
    prediction_decomposition,
)
from .linreg_core import (
    Dataset,
    FeatureMap,
    FittedModel,
    apply_features,
    fit,
    make_feature_map,
    pseudoinverse,
    sample_dataset,
    sample_teacher,
)
from .perturbation import decompose_perturbation, perturbation_experiment

__version__ = "0.1.0"

# the public API is every public name imported above
__all__ = sorted(
    name
    for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _ModuleType)
)
