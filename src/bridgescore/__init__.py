"""Brownian-bridge sequence modeling, covariance fitting, and coherence scoring.

The public names load with their module on first use, so that importing the
package imports no numpy: the CLI chooses numpy's BLAS threads before then.
"""

import importlib

__version__ = "0.1.0"

_HOME = {name: module for module, names in {
    "errors": "BridgeModelError DegenerateInputError DimensionMismatchError EmptySetError "
              "InsufficientDataError NotPositiveDefiniteError NumericalError "
              "SingularEstimateError ValidationError",
    "numerics": "SpdMatrix average_ranks chi_square_sf spearman_rho",
    "bridge": "LatentTrajectory heuristic_bbscore increments log_likelihood mle_sigma "
              "pooled_covariance quadratic_form sample_bridge score_statistics "
              "shrink_covariance stable_seed",
    "encoder": "LinearEncoder TrainerState cl_gradient cl_loss encode nll_batch_loss "
               "nll_gradient nll_objective sample_triplets train update_sigma_hat",
    "evalsuite": "ShuffleSpec discrimination_accuracies domain_swap_compare "
                 "make_shuffle_set relative_accuracy threshold_classify",
}.items() for name in names.split()}

__all__ = [*_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
