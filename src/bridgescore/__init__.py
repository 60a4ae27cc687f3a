"""Brownian-bridge sequence modeling, covariance fitting, and coherence scoring."""

__version__ = "0.1.0"

from .errors import (
    BridgeModelError,
    DegenerateInputError,
    DegenerateLabelsError,
    DegenerateVarianceError,
    DimensionMismatchError,
    EmptyBatchError,
    EmptySetError,
    InfeasibleWindowsError,
    InsufficientDataError,
    LengthMismatchError,
    NoNontrivialPermutationError,
    NotPositiveDefiniteError,
    NumericalError,
    SingularEstimateError,
    TrainingDivergedError,
    TripletInfeasibleError,
    ValidationError,
)
from .numerics import (
    SpdMatrix,
    average_ranks,
    chi_square_sf,
    cholesky,
    log_det_spd,
    spd_solve,
    spearman_rho,
)
from .bridge import (
    BridgeResiduals,
    LatentTrajectory,
    SpatialCovariance,
    bridge_mean,
    increments,
    log_likelihood,
    log_likelihood_corpus,
    mle_sigma,
    pooled_covariance,
    quadratic_form,
    residuals,
    sample_bridge,
    shrink_covariance,
)
from .score import ScoreReport, bbscore, bbscore_batch, heuristic_bbscore
from .encoder import (
    LinearEncoder,
    RawSequence,
    TrainerState,
    cl_gradient,
    cl_loss,
    encode,
    nll_batch_loss,
    nll_gradient,
    nll_objective,
    sample_triplets,
    train,
    update_sigma_hat,
)
from .evalsuite import (
    LabeledCorpus,
    ShuffleSpec,
    discrimination_accuracies,
    discrimination_accuracy,
    domain_swap_compare,
    global_shuffle,
    local_shuffle,
    make_shuffle_set,
    relative_accuracy,
    stable_seed,
    threshold_classify,
)
