"""Shared helpers: random SPD matrices, trajectories, and dense oracles.

The dense oracles deliberately avoid the library's trace-form code paths:
they build the full (T-1)d x (T-1)d Kronecker covariance and evaluate the
multivariate normal log-density with numpy primitives.
"""

import math

import numpy as np
import pytest

import bridgescore.fileio as fileio
from bridgescore import LatentTrajectory, SpdMatrix


def random_spd(rng, d, spread=1.0):
    """A well-conditioned random SPD matrix."""
    a = rng.standard_normal((d, d)) * spread
    return a @ a.T / d + 0.5 * np.eye(d)


def random_spatial(rng, d, spread=1.0):
    return SpdMatrix(random_spd(rng, d, spread))


def random_trajectory(rng, d, T, traj_id="t", domain="test", scale=1.0):
    """Arbitrary (not bridge-distributed) finite trajectory."""
    return LatentTrajectory(id=traj_id, domain=domain,
                            points=scale * rng.standard_normal((T + 1, d)))


def temporal_matrix(T):
    """Temporal covariance built directly from the closed form (oracle side)."""
    m = np.empty((T - 1, T - 1))
    for s in range(1, T):
        for t in range(1, T):
            m[s - 1, t - 1] = min(s, t) * (T - max(s, t)) / T
    return m


def dense_log_density(traj, sigma_entries):
    """Gaussian log-density of vec(s - mu) under kron(Sigma_T, Sigma), dense."""
    T, d = traj.T, traj.d
    t = np.arange(1, T) / T
    mu = np.outer(traj.points[0], 1 - t) + np.outer(traj.points[-1], t)
    r = traj.points[1:-1].T - mu                        # (d, T-1)
    vec = r.flatten(order="F")                          # stacks columns
    cov = np.kron(temporal_matrix(T), sigma_entries)
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    quad = float(vec @ np.linalg.solve(cov, vec))
    k = d * (T - 1)
    return -0.5 * (k * math.log(2 * math.pi) + logdet + quad)


def dense_quad_form(traj, sigma_entries):
    """vec(s - mu)^T [kron(Sigma_T, Sigma)]^-1 vec(s - mu), dense."""
    T, d = traj.T, traj.d
    t = np.arange(1, T) / T
    mu = np.outer(traj.points[0], 1 - t) + np.outer(traj.points[-1], t)
    vec = (traj.points[1:-1].T - mu).flatten(order="F")
    cov = np.kron(temporal_matrix(T), sigma_entries)
    return float(vec @ np.linalg.solve(cov, vec))


def brute_force_det(m):
    """Determinant by cofactor expansion (oracle for SpdMatrix.log_det)."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += ((-1) ** j) * m[0, j] * brute_force_det(minor)
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def children(monkeypatch):
    """The reader's forked children, in fork order; .sent is whether one sent its span whole.

    A child's span is parsed in this process only when the child did not send it: _parse
    runs here then, and in the child's own process otherwise.
    """
    started = []

    class Counted(fileio._Child):
        sent = None

        def __init__(self, path, span):
            started.append(self)
            super().__init__(path, span)

        def _parse(self):
            self.sent = False
            return super()._parse()

        def result(self):
            self.sent = True
            return super().result()

    monkeypatch.setattr(fileio, "_Child", Counted)
    return started
