"""Brownian-bridge sequence model.

A document is an ordered sequence of T+1 latent vectors with both endpoints
treated as exactly observed. Interior points deviate from the endpoint chord
like d correlated standard bridges mixed by a spatial factor W, so
vec(s - mu) ~ N(0, Sigma_T kron Sigma) with Sigma = W W^T. Sigma is a
numerics.SpdMatrix: any factor with W W^T = Sigma gives the same law, so
sample_bridge mixes with its Cholesky factor, and every other function uses
Sigma only through that factor and its inverse.

The bridge is Markov, so Sigma_T^-1 = tridiag(-1, 2, -1), log|Sigma_T| =
-log T, and tr(Sigma^-1 R Sigma_T^-1 R^T) = sum_t dr_t^T Sigma^-1 dr_t over the
T increments dr_t = (s_{t+1} - s_t) - (s_T - s_0)/T. The likelihood, score
and pooled MLE all use that form, one O(T d^2) product per document with the
inverse Cholesky factor of Sigma; sample_bridge applies Sigma_T's closed-form
Cholesky factor as a cumulative sum. Neither forms a (T-1) x (T-1) matrix.
The trainer's linear encoder reduces the likelihood further (see encoder).

score_statistics gives each document's quadratic form, a chi-square variate
on (T-1) d degrees of freedom under the generating covariance, and that dof:
bbscore = statistic / dof has expectation 1 at every length, larger meaning
less plausible, and numerics.chi_square_sf(statistic, dof) is a
length-comparable p-value. heuristic_bbscore, the predecessor's score
(isotropic covariance, temporally independent interior points), is a
reconstruction from its published description, labeled so wherever reported.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InsufficientDataError,
    NotPositiveDefiniteError,
    NumericalError,
    SingularEstimateError,
    ValidationError,
)
from .numerics import LOG_2PI, SpdMatrix

_GRAM_DOCS = 32  # documents per pooled Gram update: a BLAS call of useful size


@dataclass(frozen=True)
class LatentTrajectory:
    """One document: T+1 ordered d-dimensional latent vectors s_0 .. s_T."""

    id: str
    domain: str
    points: np.ndarray  # (T+1, d)

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ValidationError(f"trajectory {self.id!r}: points must form a (T+1, d) matrix")
        if pts.shape[0] < 3:
            raise ValidationError(
                f"trajectory {self.id!r}: needs at least 3 points (T >= 2), got {pts.shape[0]}"
            )
        if not np.all(np.isfinite(pts)):
            raise ValidationError(f"trajectory {self.id!r}: non-finite coordinate")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def T(self) -> int:
        return self.points.shape[0] - 1

    @property
    def d(self) -> int:
        return self.points.shape[1]


def check_dim(traj: LatentTrajectory, spatial: SpdMatrix) -> None:
    """Raise DimensionMismatchError, naming traj, unless its d is the covariance's."""
    if traj.d != spatial.dim:
        raise DimensionMismatchError(
            f"trajectory {traj.id!r} has d={traj.d}, spatial covariance has dim {spatial.dim}"
        )


def increments(points, times=None) -> np.ndarray:
    """Chord-removed increments of (..., n+1, d) point sequences, shape (..., n, d).

    Row k is [(s_{k+1} - s_k) - (g_k / G)(s_n - s_0)] / sqrt(g_k) for the gaps
    g_k between observation times (0, 1, .., n unless given), G their sum.
    The rows' summed Sigma^-1 norms are the bridge quadratic form at those
    times, since the precision stays tridiagonal, gap-weighted. Leading axes
    stack sequences of one length. The steps are np.diff's, taken by one
    slice subtraction, and the chord is removed from them in place.
    """
    points = np.asarray(points, dtype=float)
    steps = points[..., 1:, :] - points[..., :-1, :]
    chord = (points[..., -1, :] - points[..., 0, :])[..., None, :]
    if times is None:
        steps -= chord / steps.shape[-2]
        return steps
    gaps = np.diff(np.asarray(times, dtype=float))
    steps -= (gaps / gaps.sum())[:, None] * chord
    return steps / np.sqrt(gaps)[:, None]


def quadratic_form(spatial: SpdMatrix, incr) -> float:
    """Sum of incr_k^T Sigma^-1 incr_k over one document's (n, d) increment rows.

    With incr = increments(points) it is tr(Sigma^-1 R Sigma_T^-1 R^T) =
    ||incr L^-T||_F^2 for Sigma = L L^T. Raises ValidationError unless incr is
    2-D, so that a stack of documents is never summed into one float.
    """
    incr = np.asarray(incr, dtype=float)
    if incr.ndim != 2:
        raise ValidationError(f"increments must be one document's (n, d) rows, got {incr.shape}")
    if incr.shape[1] != spatial.dim:
        raise DimensionMismatchError(f"increments of d={incr.shape[1]} vs sigma dim {spatial.dim}")
    z = spatial.whiten(incr)
    return float(np.vdot(z, z))


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


def stable_seed(base_seed: int, *parts) -> int:
    """A 64-bit seed derived from a base seed and string parts via SHA-256."""
    text = "|".join([str(int(base_seed)), *map(str, parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sample_bridge(d, T, spatial: SpdMatrix, s0, sT, seed, *,
                  id: str = "sample", domain: str = "sim") -> LatentTrajectory:
    """Draw one trajectory with endpoints exactly s0, sT.

    Z is a d x (T-1) matrix of iid standard normals and the interior
    deviation is W Z L^T, so vec(s - mu) ~ N(0, Sigma_T kron Sigma). L, the
    Cholesky factor of [Sigma_T]_{s,t} = min(s,t)(T - max(s,t))/T, is
    L[t, k] = (T - t) / sqrt((T - k)(T - k + 1)) for k <= t, so Z L^T is a
    scaled cumulative sum: O(T d) work. Deterministic given seed.
    """
    d, T = int(d), int(T)
    if T < 2:
        raise ValidationError(f"a bridge needs T >= 2, got {T}")
    s0, sT = np.asarray(s0, dtype=float), np.asarray(sT, dtype=float)
    if spatial.dim != d:
        raise DimensionMismatchError(f"spatial covariance dim {spatial.dim} != d {d}")
    if s0.shape != (d,) or sT.shape != (d,):
        raise DimensionMismatchError(
            f"endpoints must be vectors of dim {d}, got {s0.shape} and {sT.shape}"
        )
    Z = np.random.default_rng(seed).standard_normal((d, T - 1))
    t = np.arange(1, T, dtype=float)
    left = T - t  # T - k in the column scale, T - t in the row scale
    deviation = spatial.chol @ (left * np.cumsum(Z / np.sqrt(left * (left + 1)), axis=1))
    t /= T
    chord = np.outer(s0, 1.0 - t) + np.outer(sT, t)
    points = np.vstack([s0, (chord + deviation).T, sT])
    return LatentTrajectory(id=id, domain=domain, points=points)


def log_likelihood(traj: LatentTrajectory, spatial: SpdMatrix) -> float:
    """Exact log-likelihood of one trajectory under the bridge model.

    -d(T-1)/2 log 2pi + d/2 log T - (T-1)/2 log|Sigma|
    - 1/2 tr(Sigma^-1 (s-mu) Sigma_T^-1 (s-mu)^T), as log|Sigma_T| = -log T.
    """
    check_dim(traj, spatial)
    T, d = traj.T, traj.d
    quad = quadratic_form(spatial, increments(traj.points))
    return (
        -0.5 * d * (T - 1) * LOG_2PI
        + 0.5 * d * math.log(T)
        - 0.5 * (T - 1) * spatial.log_det()
        - 0.5 * quad
    )


def pooled_covariance(trajs) -> tuple[np.ndarray, int]:
    """Pooled residual covariance and its weight, without a definiteness check.

    Returns (M, weight) with M = (sum_i R_i Sigma_Ti^-1 R_i^T) / weight
    = (sum_i dR_i^T dR_i) / weight, weight = sum_i (T_i - 1), symmetrized. The
    Gram sum runs in id order, _GRAM_DOCS documents per BLAS call, their
    increments stacked in one buffer that every call reuses.
    shrink_covariance turns M into a validated covariance. Raises
    NumericalError, naming the document, when the sum overflows float64.
    """
    trajs = sorted(trajs, key=lambda t: t.id)
    if not trajs:
        raise InsufficientDataError("cannot estimate a covariance from an empty corpus")
    d = trajs[0].d
    for t in trajs:
        if t.d != d:
            raise DimensionMismatchError(
                f"trajectory {t.id!r} has d={t.d}, expected {d} like the rest of the corpus"
            )
    acc = np.zeros((d, d))
    weight = sum(t.T - 1 for t in trajs)
    groups = [trajs[lo:lo + _GRAM_DOCS] for lo in range(0, len(trajs), _GRAM_DOCS)]
    buf = np.empty((max(sum(t.T for t in group) for group in groups), d))
    with np.errstate(over="ignore", invalid="ignore"):  # checked once, on the result
        for group in groups:
            rows = 0
            for t in group:
                buf[rows:rows + t.T] = increments(t.points)
                rows += t.T
            incr = buf[:rows]
            acc += incr.T @ incr
        m = acc / weight
        m = 0.5 * (m + m.T)
        if np.isfinite(m).all():
            return m, weight
        # name the document at which the id-ordered sum, one at a time, first overflows
        acc[:] = 0.0
        for bad in trajs:
            incr = increments(bad.points)
            acc += incr.T @ incr
            if not np.isfinite(acc / weight + acc.T / weight).all():
                break
    raise NumericalError(f"trajectory {bad.id!r}: its increments overflow float64")


def shrink_covariance(m, weight: int, epsilon: float) -> tuple[SpdMatrix, float]:
    """A pooled covariance M blended toward its isotropic scale, and that scale.

    Returns ((1 - eps) M + eps sigma2 I, sigma2) with sigma2 = tr(M)/d; eps = 0
    leaves M as it is. fit, mle_sigma and the trainer all estimate through
    here. Raises InsufficientDataError when weight, M's sum(T_i - 1), is below
    d, as M's rank is then below d; then ValidationError for eps outside
    [0, 1] and SingularEstimateError when the result is not positive-definite.
    """
    d = m.shape[0]
    if weight < d:
        raise InsufficientDataError(f"pooled weight {weight} is below dimension {d}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in [0, 1], got {epsilon}")
    sigma2 = float(np.trace(m)) / d
    blended = (1.0 - epsilon) * m + epsilon * sigma2 * np.eye(d)
    try:
        return SpdMatrix(blended), sigma2
    except NotPositiveDefiniteError as exc:
        raise SingularEstimateError(
            f"covariance estimate of dim {d} is singular (epsilon={epsilon})"
        ) from exc


def mle_sigma(trajs) -> SpdMatrix:
    """Pooled maximum-likelihood estimate of the spatial covariance: shrink_covariance at eps = 0.

    Raises InsufficientDataError when the pooled weight sum(T_i - 1) is below
    d, and SingularEstimateError when the residuals do not span R^d (e.g.
    straight-line trajectories).
    """
    return shrink_covariance(*pooled_covariance(trajs), 0.0)[0]
