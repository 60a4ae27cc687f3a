"""Dense linear algebra and statistical primitives.

Everything here is a pure function on immutable inputs. SpdMatrix is the
package's covariance type: the spatial covariance Sigma of the bridge model,
a fitted model's matrix and each trainer domain's Sigma_hat are all one. It
factors at construction and forms its inverse factor, which every solve uses,
at first use; filling it is idempotent, so SpdMatrix values are freely
shareable across threads. Only chi_square_sf needs more than numpy, and
imports it at first call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, NotPositiveDefiniteError, ValidationError

LOG_2PI = math.log(2.0 * math.pi)

_SYMMETRY_RTOL = 1e-12


class SpdMatrix:
    """Symmetric positive-definite matrix with its Cholesky factor L.

    Construction validates finiteness, symmetry (relative tolerance 1e-12)
    and positive definiteness, and computes L for the log-determinant and
    for sampling. It raises NotPositiveDefiniteError when a pivot is <= 0:
    regularization is left to the caller, since silently jittering a
    covariance here would mask estimation bugs upstream. inv_chol = L^-1,
    which every solve uses, is formed at first use, so commands that never
    solve (simulate, fit) never pay for it.
    """

    __slots__ = ("entries", "chol", "_inv_chol")

    def __init__(self, entries):
        m = np.array(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("matrix has a non-finite entry")
        scale = np.abs(m).max() if m.size else 0.0
        if scale == 0.0:
            raise NotPositiveDefiniteError("zero matrix is not positive-definite")
        if np.abs(m - m.T).max() > _SYMMETRY_RTOL * scale:
            raise ValidationError("matrix is not symmetric within 1e-12 relative tolerance")
        try:
            self.chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"matrix of dim {m.shape[0]} is not positive-definite"
            ) from exc
        self.entries = m
        m.setflags(write=False)
        self.chol.setflags(write=False)
        self._inv_chol = None

    @property
    def inv_chol(self) -> np.ndarray:
        """L^-1, read-only, so that m^-1 = L^-T L^-1. Concurrent first uses compute it twice."""
        if self._inv_chol is None:
            inv = np.linalg.inv(self.chol)
            inv.setflags(write=False)
            self._inv_chol = inv
        return self._inv_chol

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"SpdMatrix(dim={self.dim})"


def _as_spd(m) -> SpdMatrix:
    return m if isinstance(m, SpdMatrix) else SpdMatrix(m)


def spd_solve(m, b) -> np.ndarray:
    """Solve m @ x = b as x = L^-T (L^-1 b), through m's inverse Cholesky factor."""
    spd = _as_spd(m)
    b = np.asarray(b, dtype=float)
    rows = b.shape[0] if b.ndim else None
    if rows != spd.dim:
        raise ValidationError(f"right-hand side has {rows} rows, matrix has dim {spd.dim}")
    return spd.inv_chol.T @ (spd.inv_chol @ b)


def log_det_spd(m) -> float:
    """log determinant of an SPD matrix, as 2 * sum(log diag(chol))."""
    spd = _as_spd(m)
    return 2.0 * float(np.sum(np.log(np.diag(spd.chol))))


# --- chi-square survival function and ranks --------------------------------


def chi_square_sf(x, k):
    """Survival probability P(X > x) for X ~ chi-square with k degrees of freedom.

    Q(k/2, x/2), the regularized upper incomplete gamma function. x and k
    broadcast; a float comes back for scalar inputs, an array otherwise.
    """
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    bad = x[~(np.isfinite(x) & (x >= 0.0))]
    if bad.size:
        raise ValidationError(f"chi-square statistic must be finite and >= 0, got {bad[0]}")
    bad = k[~((k >= 1.0) & (k == np.floor(k)))]
    if bad.size:
        raise ValidationError(f"degrees of freedom must be a positive integer, got {bad[0]}")
    from scipy.special import gammaincc  # deferred: only p-value paths pay for scipy.special

    p = gammaincc(0.5 * k, 0.5 * x)
    return float(p) if p.ndim == 0 else p


def average_ranks(values) -> np.ndarray:
    """1-based ranks of a one-dimensional sample; ties share their group's mean rank."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValidationError("ranked samples must be one-dimensional")
    _, group, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group]


def spearman_rho(a, b) -> float:
    """Spearman rank correlation: Pearson correlation of average ranks.

    Ties receive average ranks, which matters downstream because
    discretized scores tie frequently.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError(f"inputs have shapes {a.shape} and {b.shape}")
    if a.size < 2:
        raise DegenerateInputError("need at least two observations")
    ra = average_ranks(a)
    rb = average_ranks(b)
    da = ra - ra.mean()
    db = rb - rb.mean()
    denom = math.sqrt(float(da @ da) * float(db @ db))
    if denom == 0.0:
        raise DegenerateInputError("zero rank variance (all values tied)")
    return float(da @ db) / denom
