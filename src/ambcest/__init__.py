"""Channel-estimation workbench for ambient backscatter links.

Simulates correlated Rayleigh channels observed through unit pilots, and estimates
them three ways: least squares, closed-form linear MMSE, and a trainable
residual-denoising CNN built on a small numpy tensor engine.
"""

from .analysis import (
    LinearMap,
    MapDistance,
    extract_effective_map,
    map_distance,
    mmse_weight_target,
)
from .channel import (
    LINK_COMPOSITE,
    LINK_DIRECT,
    LINKS,
    CorrelationSpec,
    SystemConfig,
    build_correlation_matrix,
    composite_correlation,
    derive_noise_and_alpha,
    link_correlation,
    simulate_batch,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import Dataset, generate_dataset, load_dataset, save_dataset
from .errors import (
    AmbcestError,
    ArtifactError,
    ConfigError,
    FormatError,
    MetricError,
    NumericError,
    ParameterError,
    ShapeError,
    StateError,
)
from .estimators import (
    MmseContext,
    NmseEstimate,
    brute_force_conditional_mean,
    column_correlation,
    ls_estimate,
    matrix_mmse_map,
    matrix_mmse_weights,
    mmse_estimate_matrix,
    mmse_estimate_vector,
    mmse_gain,
    nmse,
)
from .gradcheck import GradCheckReport, grad_check, grad_check_input
from .layers import BatchNorm2D, Conv2D, ReLU, mse_loss
from .model import DenoiserHyper, DenoisingBlock, ResidualDenoiser, build_model
from .optim import Adam, SGDMomentum, make_optimizer
from .sweep import (
    ExperimentPlan,
    NmseReport,
    ReportRow,
    complexity_report,
    run_sweep,
)
from .training import TrainHistory, TrainOptions, evaluate, train
