"""Sequence coherence scores.

score_statistics gives each document's bridge quadratic form and its degrees
of freedom (T-1) d. Under the generating covariance the statistic is a
chi-square variate on that dof, so bbscore = statistic / dof has expectation
1 for every length, and numerics.chi_square_sf(statistic, dof) is a
length-comparable p-value. Larger scores mean the sequence is less
plausible under the supplied covariance.

The heuristic predecessor score (isotropic covariance, temporally
independent interior points) is a reconstruction from its published
description and is labeled as such wherever it is reported.
"""

from __future__ import annotations

import numpy as np

from .bridge import LatentTrajectory, check_dim, increments, quadratic_form
from .errors import NumericalError
from .numerics import LOG_2PI, SpdMatrix


def score_statistics(trajs, spatial: SpdMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Statistics tr(Sigma^-1 (s-mu) Sigma_T^-1 (s-mu)^T) and their dof (T-1) d, in input order.

    One quadratic_form per document, so a statistic does not depend on its
    neighbours or the corpus order. Raises DimensionMismatchError naming the
    first trajectory whose d differs from the covariance's, and
    NumericalError naming the first whose statistic overflows float64.
    """
    trajs = list(trajs)
    for traj in trajs:
        check_dim(traj, spatial)
    with np.errstate(over="ignore", invalid="ignore"):  # checked once, on the statistics
        statistic = np.array([quadratic_form(spatial, increments(t.points)) for t in trajs])
    finite = np.isfinite(statistic)
    if not finite.all():
        bad = trajs[int(np.argmin(finite))]
        raise NumericalError(f"trajectory {bad.id!r}: its statistic overflows float64")
    return statistic, np.array([(t.T - 1) * t.d for t in trajs], dtype=int)


def heuristic_bbscore(traj: LatentTrajectory) -> float:
    """Predecessor score: log-density under independent isotropic marginals.

    Interior points are treated as independent with s_t ~ N(mu_t,
    sigma2 * t(T-t)/T * I_d), mu_t on the chord from s_0 to s_T, with the
    plug-in sigma2_hat = [sum_t ||s_t - mu_t||^2 * T / (t(T-t))] / [(T-1) d].
    Raises NumericalError, naming the trajectory, when sigma2_hat is zero
    (the trajectory lies on its chord, or its squared residuals underflow)
    or the score is not finite.
    """
    T, d, pts = traj.T, traj.d, traj.points
    t = np.arange(1, T, dtype=float)
    f = t / T
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked on the result
        r = pts[1:-1].T - (np.outer(pts[0], 1.0 - f) + np.outer(pts[-1], f))
        v = t * (T - t) / T
        weighted = float(np.sum(np.sum(r * r, axis=0) / v))
        s2 = weighted / ((T - 1) * d)
        if s2 <= 0.0 and r.any():
            raise NumericalError(f"trajectory {traj.id!r}: its residuals underflow float64")
        if s2 <= 0.0:
            raise NumericalError(f"trajectory {traj.id!r} lies on its chord; "
                                 "the variance MLE is zero")
        score = float(
            -0.5 * (T - 1) * d * LOG_2PI
            - 0.5 * d * float(np.sum(np.log(s2 * v)))
            - 0.5 * weighted / s2
        )
    if not np.isfinite(score):
        raise NumericalError(f"trajectory {traj.id!r}: its heuristic score is not finite")
    return score
