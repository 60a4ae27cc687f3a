import math

import numpy as np
import pytest
from scipy.stats import chi2, kstest

from bridgescore import (
    DimensionMismatchError,
    LatentTrajectory,
    NumericalError,
    SpdMatrix,
    chi_square_sf,
    heuristic_bbscore,
    increments,
    log_likelihood,
    mle_sigma,
    quadratic_form,
    sample_bridge,
    score_statistics,
)
from conftest import (
    dense_quad_form,
    random_spatial,
    random_spd,
    random_trajectory,
    temporal_matrix,
)
from test_bridge import chord_residuals


def simulate(spatial, d, T, n, seed0, prefix="s"):
    return [
        sample_bridge(d, T, spatial, np.zeros(d), np.zeros(d), seed=seed0 + i,
                      id=f"{prefix}{i}")
        for i in range(n)
    ]


def with_scaled_residuals(traj, c):
    pts = traj.points.copy()
    pts[1:-1] += ((c - 1.0) * chord_residuals(traj)).T
    return LatentTrajectory(traj.id, traj.domain, pts)


def scores(trajs, spatial):
    """bbscore, statistic, dof and p-value arrays, as the score command writes them."""
    statistic, dof = score_statistics(trajs, spatial)
    return statistic / dof, statistic, dof, chi_square_sf(statistic, dof)


class TestBBScore:
    def test_straight_line(self):
        # chord with binary-exact fractions so the residuals are exactly zero
        sT = np.array([4.0, -8.0])
        pts = np.array([t / 4 * sT for t in range(5)])
        bb, _, _, p = scores([LatentTrajectory("a", "x", pts)], SpdMatrix(np.eye(2)))
        assert bb.tolist() == [0.0]
        assert p.tolist() == [1.0]

    def test_own_mle_scores_one(self, rng):
        t = random_trajectory(rng, 3, 8)
        bb, _, _, _ = scores([t], mle_sigma([t]))
        assert bb[0] == pytest.approx(1.0, abs=1e-10)

    def test_hand_computed(self):
        t = LatentTrajectory("a", "x", [[0.0], [1.0], [0.0]])
        _, statistic, dof, p = scores([t], SpdMatrix(np.eye(1)))
        assert statistic[0] == pytest.approx(2.0, rel=1e-12)
        assert dof.tolist() == [1]
        # frozen from the quadrature oracle for SF(2, 1)
        assert p[0] == pytest.approx(0.15729920705028513, abs=1e-10)

    def test_report_invariants(self, rng):
        t = random_trajectory(rng, 2, 9)
        bb, statistic, dof, p = scores([t], random_spatial(rng, 2))
        assert dof.tolist() == [(t.T - 1) * t.d]
        assert statistic[0] == pytest.approx(bb[0] * dof[0], rel=1e-12)
        # the vectorised call gives the scalar call's p-value exactly
        assert p[0] == chi_square_sf(float(statistic[0]), int(dof[0]))
        assert bb[0] > 0.0

    def test_residual_scaling_is_quadratic(self, rng):
        t = random_trajectory(rng, 2, 6)
        spatial = random_spatial(rng, 2)
        base = scores([t], spatial)[0][0]
        for c in (1.5, 3.0, 10.0):
            scaled = scores([with_scaled_residuals(t, c)], spatial)[0][0]
            assert scaled == pytest.approx(c * c * base, rel=1e-9)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            score_statistics([random_trajectory(rng, 2, 5)], SpdMatrix(np.eye(3)))


class TestBBScoreBatch:
    def test_empty(self):
        bb, statistic, dof, p = scores([], SpdMatrix(np.eye(2)))
        assert bb.shape == statistic.shape == dof.shape == p.shape == (0,)

    def test_singleton_matches(self, rng):
        trajs = [random_trajectory(rng, 2, T, traj_id=f"s{T}") for T in (5, 3, 8)]
        spatial = random_spatial(rng, 2)
        alone = [scores([t], spatial) for t in trajs]
        together = scores(trajs, spatial)
        for i, one in enumerate(alone):
            assert [a[0] for a in one] == [b[i] for b in together]

    def test_order_preserved(self, rng):
        trajs = [random_trajectory(rng, 2, T, traj_id=f"z{T}") for T in (5, 2, 9, 3, 7)]
        spatial = random_spatial(rng, 2)
        statistic, dof = score_statistics(trajs, spatial)
        assert dof.tolist() == [(t.T - 1) * 2 for t in trajs]
        assert statistic.tolist() == [quadratic_form(spatial, increments(t.points))
                                      for t in trajs]

    def test_corpus_order_invariant(self, rng):
        trajs = [random_trajectory(rng, 3, T, traj_id=f"o{T}") for T in (2, 5, 9, 30)]
        spatial = random_spatial(rng, 3)

        def by_id(corpus):
            return {t.id: row for t, row in zip(corpus, zip(*scores(corpus, spatial)))}

        assert by_id(trajs) == by_id(trajs[::-1])

    @pytest.mark.parametrize("d", [64, 256])
    def test_statistics_are_lone_calls_in_either_order(self, rng, d):
        spatial = random_spatial(rng, d)
        trajs = [random_trajectory(rng, d, int(T), traj_id=f"w{i:02d}")
                 for i, T in enumerate(rng.integers(2, 60, size=70))]
        lone = [quadratic_form(spatial, increments(t.points)) for t in trajs]
        forward, _ = score_statistics(trajs, spatial)
        backward, _ = score_statistics(trajs[::-1], spatial)
        np.testing.assert_array_equal(forward, lone)
        np.testing.assert_array_equal(backward[::-1], lone)

    def test_near_singular_sigma(self, rng):
        d = 4
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = (q * np.geomspace(1.0, 1e-10, d)) @ q.T
        sigma = 0.5 * (a + a.T)
        spatial = SpdMatrix(sigma)
        trajs = [sample_bridge(d, T, spatial, rng.standard_normal(d), rng.standard_normal(d),
                               seed=T, id=f"c{T}") for T in (2, 7, 15)]
        statistic, dof = score_statistics(trajs, spatial)
        for t, stat, k in zip(trajs, statistic.tolist(), dof.tolist()):
            assert stat == pytest.approx(dense_quad_form(t, sigma), rel=1e-6)
            assert k == (t.T - 1) * d

    def test_failure_names_trajectory(self, rng):
        good = random_trajectory(rng, 2, 5, traj_id="fine")
        bad = random_trajectory(rng, 3, 5, traj_id="wrong-dim")
        with pytest.raises(DimensionMismatchError, match="wrong-dim"):
            score_statistics([good, bad], SpdMatrix(np.eye(2)))

    def test_mean_near_one_under_truth(self, rng):
        spatial = random_spatial(rng, 4)
        trajs = simulate(spatial, 4, 26, 100, seed0=100)
        assert 0.9 <= float(np.mean(scores(trajs, spatial)[0])) <= 1.1


class TestCalibration:
    def test_statistic_moments_and_pvalues(self):
        # dof = (T-1) d = 100; chi-square mean 100, variance 200
        rng = np.random.default_rng(41)
        spatial = random_spatial(rng, 4)
        trajs = simulate(spatial, 4, 26, 2000, seed0=50_000)
        _, stats, _, pvals = scores(trajs, spatial)
        assert abs(float(stats.mean()) - 100.0) <= 7.0
        assert abs(float(stats.var()) - 200.0) <= 40.0
        assert kstest(pvals, "uniform").pvalue > 0.01

    def test_million_dof_document(self):
        # a random walk from s_0 is a Brownian bridge given both endpoints
        T, d = 10001, 100
        rng = np.random.default_rng(43)
        spatial = random_spatial(rng, d)
        steps = rng.standard_normal((T, d)) @ spatial.chol.T
        points = np.vstack([np.zeros(d), np.cumsum(steps, axis=0)])
        _, (statistic,), (dof,), (p,) = scores([LatentTrajectory("long", "x", points)], spatial)
        assert dof == (T - 1) * d == 1_000_000
        incr = increments(points)
        direct = float(np.sum(incr * np.linalg.solve(spatial.entries, incr.T).T))
        assert statistic == pytest.approx(direct, rel=1e-10)
        assert p == pytest.approx(chi2.sf(statistic, dof), rel=1e-9)
        assert 1e-3 < p < 1 - 1e-3

    def test_length_comparability(self):
        rng = np.random.default_rng(42)
        spatial = random_spatial(rng, 4)
        means = {}
        for T in (10, 50, 200):
            trajs = simulate(spatial, 4, T, 600, seed0=1000 * T)
            means[T] = float(np.mean(scores(trajs, spatial)[0]))
        values = list(means.values())
        for a in values:
            for b in values:
                assert abs(a / b - 1.0) < 0.05


class TestHeuristic:
    def test_known_sigma(self):
        t = LatentTrajectory("a", "x", [[0.0], [1.0], [0.0]])
        # the variance MLE is exactly 2; scalar normal oracle: log N(1; 0, 2 * 0.5)
        assert heuristic_bbscore(t) == pytest.approx(-1.4189385332046727, abs=1e-12)

    def test_mle_scaling_identity(self, rng):
        t = random_trajectory(rng, 2, 7)
        base = heuristic_bbscore(t)
        for c in (0.5, 2.0, 7.0):
            scaled = heuristic_bbscore(with_scaled_residuals(t, c))
            assert scaled == pytest.approx(base - (t.T - 1) * t.d * math.log(c), rel=1e-9)

    def test_degenerate_line(self):
        pts = np.linspace([0.0], [5.0], num=6)
        with pytest.raises(NumericalError, match="'a' lies on its chord; the variance MLE is zero"):
            heuristic_bbscore(LatentTrajectory("a", "x", pts))

    @pytest.mark.parametrize("residual, problem", [
        pytest.param((1e160, 0.0), "its heuristic score is not finite", id="1e+160"),
        pytest.param((2.2e-162, 0.0), "its heuristic score is not finite", id="2.2e-162"),
        pytest.param((1e-163, 2e-163), "its residuals underflow float64", id="1e-163"),
    ])
    def test_out_of_range_names_trajectory(self, residual, problem):
        # a squared residual near 1e320 overflows float64; near 5e-324 the variance
        # times t(T-t)/T underflows to 0 and its log to -inf; below that every squared
        # residual rounds to 0, off the chord. No RuntimeWarning escapes
        pts = [[0.0, 0.0], list(residual), [0.0, 0.0]]
        with pytest.raises(NumericalError, match=f"^trajectory 'x': {problem}$"):
            heuristic_bbscore(LatentTrajectory("x", "x", pts))

    def test_independence_gap(self, rng):
        # With its variance MLE sigma2 in both, the heuristic differs from the
        # exact log-likelihood at Sigma = sigma2 I by
        #   d/2 [log|Sigma_T| - sum_t log v_t]
        #   + (1/(2 sigma2)) [trace_full - trace_independent].
        for T in (2, 3, 4, 5):
            for d in (1, 2, 3):
                spatial_traj = random_spatial(rng, d)
                t = sample_bridge(d, T, spatial_traj, np.zeros(d), np.zeros(d),
                                  seed=int(rng.integers(1 << 30)))
                r = chord_residuals(t)
                ts = np.arange(1, T, dtype=float)
                v = ts * (T - ts) / T
                sq = np.sum(r * r, axis=0)
                sigma2 = float(np.sum(sq / v) / ((T - 1) * d))
                heur = heuristic_bbscore(t)
                exact = log_likelihood(
                    t, SpdMatrix(sigma2 * np.eye(d))
                )
                tc = temporal_matrix(T)
                trace_full = float(np.trace(r @ np.linalg.solve(tc, r.T)))
                gap = (
                    0.5 * d * (np.linalg.slogdet(tc)[1] - float(np.sum(np.log(v))))
                    + (trace_full - float(np.sum(sq / v))) / (2.0 * sigma2)
                )
                assert heur - exact == pytest.approx(gap, rel=1e-9, abs=1e-9)
