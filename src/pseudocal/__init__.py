"""Source-free post-hoc calibration under domain shift.

The core idea: synthesize a labeled pseudo-target set by mixing pairs
of unlabeled target samples that the model labels differently, then fit
an ordinary temperature on that surrogate set. The package also ships
the standard calibration metrics, the affine scaling baselines, ablation
variants, and a synthetic domain-shift harness that makes the method's
behavior observable at desk scale.
"""

from .documents import write_csv
from .errors import (
    DataAccessError,
    DegenerateTargetError,
    EmptyFilterError,
    InvalidInputError,
    InvalidSpecError,
    LabelsRequiredError,
    OptimizationError,
    PseudocalError,
    TrainingError,
)
from .metrics import (
    BinStats,
    PredictionBatch,
    bin_stats_to_csv,
    ece,
    mean_brier,
    mean_nll,
    reliability_bins,
)
from .numerics import log_softmax, softmax
from .pseudo_target import (
    MixupConfig,
    PseudoTargetSet,
    calibrate,
    correspondence_rate,
    infer,
    pseudo_set,
    synthesize,
    variant_filtered_pl,
    variant_pseudo_label,
    write_provenance_csv,
)
from .report import ExperimentResult, evaluate_all, lambda_sweep
from .scalers import (
    T_MAX,
    T_MIN,
    Calibrator,
    fit_matrix,
    fit_temperature,
    fit_vector,
    nll_decomposition,
)
from .synthetic import (
    EnsembleModel,
    ShiftSpec,
    SyntheticTask,
    TrainedClassifier,
    generate,
    train,
)

__version__ = "0.1.0"
