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
    PRESETS,
    STREAM_PERTURB,
    STREAM_TEACHER,
    STREAM_TEST,
    STREAM_TRAIN,
    STREAM_TRAIN_PAIR,
    STREAM_WEIGHTS,
    default_rel_tol,
    ratio_to_count,
    sigma_eps_for_snr,
    stream_rng,
)
from .decomposition import (
    BiasVarianceEstimate,
    PairedDraw,
    bias_variance_mc,
    draw_paired_replica,
    error_reduction_check,
    geometric_test_error,
    paired_projections,
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
    NORMALIZED_METRICS,
    SweepResult,
    SweepRow,
    SweepSpec,
    metric_frobenius_complements,
    run_sweep,
)
from .geometry import (
    FeatureOperatorAnalysis,
    LabelProjector,
    Representation,
    analysis_to_json_dict,
    analyze_operator,
    angles_from_vectors,
    feature_operator,
    feature_operator_from_model,
    internal_representation,
    label_projector,
    prediction_decomposition,
)
from .linreg_core import (
    Dataset,
    FeatureMap,
    FittedModel,
    TeacherModel,
    apply_features,
    fit,
    make_feature_map,
    predict,
    pseudoinverse,
    sample_dataset,
    sample_teacher,
    training_error,
)
from .perturbation import (
    PerturbationRecord,
    decompose_perturbation,
    perturbation_experiment,
)

__version__ = "0.1.0"

# the public API is every public name imported above
__all__ = sorted(
    name
    for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _ModuleType)
)
