"""Joint photon-number statistics of pulsed twin-beam sources.

Forward model of a lossy multimode pair source, time-multiplexed click
detectors, maximum-likelihood inversion of click histograms, and the derived
source-quality parameters (equivalent mode number, overall efficiency, pair
contamination).
"""

from .analysis import (
    SourceCharacterization,
    characterize,
    contamination_map,
    source_contamination,
)
from .errors import (
    ClassicalRegimeError,
    DegenerateInputError,
    PairStatsError,
    SubPoissonianMarginalError,
    SupportError,
    TruncationError,
    ValidationError,
)
from .loop_detector import (
    CalibrationResult,
    ClickDistribution,
    DetectorResponse,
    PathWeights,
    apply_response,
    calibrate,
    response_matrix,
    simulate_clicks_batch,
    uniform_weights,
)
from .model import (
    EffectiveSource,
    JointDistribution,
    MultimodeSource,
    effective_params,
    generating_fn_value,
    joint_distribution,
    suggest_n_max,
)
from .pipeline import (
    ExperimentConfig,
    RunReport,
    bootstrap_characterize,
    run_full,
    simulate_calibration,
    simulate_experiment,
)
from .reconstruction import (
    ClickHistogram,
    ReconstructionResult,
    em_reconstruct,
    log_likelihood,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult",
    "ClassicalRegimeError",
    "ClickDistribution",
    "ClickHistogram",
    "DegenerateInputError",
    "DetectorResponse",
    "EffectiveSource",
    "ExperimentConfig",
    "JointDistribution",
    "MultimodeSource",
    "PairStatsError",
    "PathWeights",
    "ReconstructionResult",
    "RunReport",
    "SourceCharacterization",
    "SubPoissonianMarginalError",
    "SupportError",
    "TruncationError",
    "ValidationError",
    "apply_response",
    "bootstrap_characterize",
    "calibrate",
    "characterize",
    "contamination_map",
    "effective_params",
    "em_reconstruct",
    "generating_fn_value",
    "joint_distribution",
    "log_likelihood",
    "response_matrix",
    "run_full",
    "simulate_calibration",
    "simulate_clicks_batch",
    "simulate_experiment",
    "source_contamination",
    "suggest_n_max",
    "uniform_weights",
]
