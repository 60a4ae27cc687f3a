"""Sequence coherence scores.

The main score is the residual trace statistic divided by its degrees of
freedom: under the generating covariance it is a chi-square variate over its
dof, so its expectation is 1 for every length and the chi-square survival
probability gives a length-comparable p-value. Larger scores mean the
sequence is less plausible under the supplied covariance.

The heuristic predecessor score (isotropic covariance, temporally
independent interior points) is a reconstruction from its published
description and is labeled as such wherever it is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bridge import LatentTrajectory, check_dim, increments, quadratic_form, residuals
from .errors import NumericalError, ValidationError
from .numerics import LOG_2PI, SpdMatrix, chi_square_sf


@dataclass(frozen=True)
class ScoreReport:
    """Per-document score record: statistic = bbscore * dof, p_value = SF(statistic, dof)."""

    trajectory_id: str
    bbscore: float
    statistic: float
    dof: int
    p_value: float


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


def bbscore_batch(trajs, spatial: SpdMatrix) -> list[ScoreReport]:
    """Score a corpus; output order matches input order.

    bbscore = tr(Sigma^-1 (s-mu) Sigma_T^-1 (s-mu)^T) / [(T-1) d], in increment
    form, with its chi-square p-value from one vectorised call.
    """
    trajs = list(trajs)
    statistic, dof = score_statistics(trajs, spatial)
    p_value = chi_square_sf(statistic, dof)
    return [
        ScoreReport(trajectory_id=t.id, bbscore=stat / k, statistic=stat, dof=k, p_value=p)
        for t, stat, k, p in zip(trajs, statistic.tolist(), dof.tolist(), p_value.tolist())
    ]


def bbscore(traj: LatentTrajectory, spatial: SpdMatrix) -> ScoreReport:
    """Score one trajectory against a spatial covariance: bbscore_batch of one.

    Zero for straight-line trajectories, exactly 1 against the trajectory's
    own single-sequence MLE, chi-square-calibrated under the truth.
    """
    return bbscore_batch([traj], spatial)[0]


def heuristic_bbscore(traj: LatentTrajectory, sigma2="mle") -> float:
    """Predecessor score: log-density under independent isotropic marginals.

    Interior points are treated as independent with s_t ~ N(mu_t,
    sigma2 * t(T-t)/T * I_d). Pass a positive sigma2 or "mle" to plug in
    sigma2_hat = [sum_t ||s_t - mu_t||^2 * T / (t(T-t))] / [(T-1) d].
    """
    T, d = traj.T, traj.d
    r = residuals(traj)
    t = np.arange(1, T, dtype=float)
    v = t * (T - t) / T
    sq = np.sum(r * r, axis=0)
    weighted = float(np.sum(sq / v))
    if sigma2 == "mle":
        s2 = weighted / ((T - 1) * d)
        if s2 <= 0.0:
            raise NumericalError(
                f"trajectory {traj.id!r} lies on its chord; the variance MLE is zero"
            )
    else:
        s2 = float(sigma2)
        if s2 <= 0.0:
            raise ValidationError(f"sigma2 must be positive, got {sigma2!r}")
    return float(
        -0.5 * (T - 1) * d * LOG_2PI
        - 0.5 * d * float(np.sum(np.log(s2 * v)))
        - 0.5 * weighted / s2
    )
