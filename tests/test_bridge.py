import numpy as np
import pytest

import bridgescore.bridge as bridge
from bridgescore import (
    DimensionMismatchError,
    InsufficientDataError,
    LatentTrajectory,
    NumericalError,
    SingularEstimateError,
    SpdMatrix,
    ValidationError,
    increments,
    log_likelihood,
    mle_sigma,
    pooled_covariance,
    quadratic_form,
    sample_bridge,
    shrink_covariance,
)
from bridgescore.bridge import score_statistics
from conftest import (
    dense_log_density,
    dense_quad_form,
    random_spatial,
    random_spd,
    random_trajectory,
    temporal_matrix,
)


def chord_residuals(traj):
    """Interior points minus their means on the chord from s_0 to s_T, shape (d, T-1)."""
    t = np.arange(1, traj.T) / traj.T
    pts = traj.points
    return pts[1:-1].T - (np.outer(pts[0], 1 - t) + np.outer(pts[-1], t))


class TestLatentTrajectory:
    def test_rejects_short_sequences(self):
        with pytest.raises(ValidationError):
            LatentTrajectory("a", "x", [[0.0], [1.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            LatentTrajectory("a", "x", [[0.0], [np.nan], [0.0]])

    def test_shape_accessors(self, rng):
        t = random_trajectory(rng, 3, 7)
        assert t.T == 7 and t.d == 3


class TestTemporalCov:
    """The dense temporal covariance, through the temporal_matrix oracle."""

    def test_t2(self):
        np.testing.assert_allclose(temporal_matrix(2), [[0.5]])

    def test_t3(self):
        np.testing.assert_allclose(temporal_matrix(3), [[2 / 3, 1 / 3], [1 / 3, 2 / 3]])

    def test_t10_entry(self):
        assert temporal_matrix(10)[1, 6] == pytest.approx(2 * (10 - 7) / 10)

    def test_matches_elementwise_formula(self, rng):
        # the increment form is the oracle's precision applied to each coordinate row
        for T in (2, 3, 5, 11, 40):
            np.testing.assert_allclose(
                np.linalg.inv(temporal_matrix(T)),
                2 * np.eye(T - 1) - np.eye(T - 1, k=1) - np.eye(T - 1, k=-1),
                atol=1e-9,
            )
            assert np.linalg.slogdet(temporal_matrix(T))[1] == pytest.approx(-np.log(T))
            t = random_trajectory(rng, 1, T)
            r = chord_residuals(t)[0]
            dense = float(r @ np.linalg.solve(temporal_matrix(T), r))
            assert quadratic_form(SpdMatrix(np.eye(1)),
                                  increments(t.points)) == pytest.approx(dense, rel=1e-10)

    def test_rejects_small_t(self):
        with pytest.raises(ValidationError):
            sample_bridge(1, 1, SpdMatrix(np.eye(1)), [0.0], [0.0], seed=0)


class TestIncrementKernel:
    """The increment form against the dense temporal_matrix oracle."""

    def test_t2(self, rng):
        t = random_trajectory(rng, 2, 2)
        r = chord_residuals(t)[:, 0]
        np.testing.assert_allclose(increments(t.points), [r, -r], atol=1e-15)
        sigma = random_spd(rng, 2)
        value = quadratic_form(SpdMatrix(sigma), increments(t.points))
        assert value == pytest.approx(dense_quad_form(t, sigma), rel=1e-12)

    def test_pooled_mle_mixed_lengths(self, rng):
        trajs = [random_trajectory(rng, 3, T, traj_id=f"m{T}") for T in (2, 3, 7, 19, 40)]
        acc = np.zeros((3, 3))
        for t in trajs:
            r = chord_residuals(t)
            acc += r @ np.linalg.solve(temporal_matrix(t.T), r.T)
        weight = sum(t.T - 1 for t in trajs)
        m, w = pooled_covariance(trajs)
        assert w == weight
        np.testing.assert_allclose(m, acc / weight, rtol=1e-12, atol=0)

    def test_steps_less_the_chord_bit_for_bit(self, rng):
        # the steps by slice subtraction, the chord removed in place: np.diff's steps
        # less the chord over n, to the bit, for one document and for a stack
        for shape in ((3, 2), (7, 3), (4, 12, 5)):
            for offset in (0.0, 1e6):
                points = rng.standard_normal(shape) + offset
                steps = np.diff(points, axis=-2)
                chord = (points[..., -1, :] - points[..., 0, :])[..., None, :]
                want = steps - chord / steps.shape[-2]
                np.testing.assert_array_equal(increments(points).view(np.int64),
                                              want.view(np.int64))

    def test_triplet_gap_form(self, rng):
        T, d = 12, 2
        t = random_trajectory(rng, d, T)
        sigma = random_spd(rng, d)
        for triple in ((1, 2, 3), (2, 5, 9), (1, 6, 11)):
            times = [0, *triple, T]
            gap = increments(t.points[times], times)
            cols = np.array(triple) - 1
            r = chord_residuals(t)[:, cols]
            sub = temporal_matrix(T)[np.ix_(cols, cols)]
            dense = float(np.trace(np.linalg.solve(sigma, r) @ np.linalg.solve(sub, r.T)))
            value = quadratic_form(SpdMatrix(sigma), gap)
            assert value == pytest.approx(dense, rel=1e-12)

    def test_log_likelihood_long_documents(self, rng):
        for d in (1, 2):
            for T in (8, 25, 60):
                t = random_trajectory(rng, d, T)
                sigma = random_spd(rng, d)
                value = log_likelihood(t, SpdMatrix(sigma))
                assert value == pytest.approx(dense_log_density(t, sigma), rel=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            quadratic_form(SpdMatrix(np.eye(3)), np.ones((4, 2)))

    def test_rejects_a_stack(self, rng):
        # a (k, n, d) stack would be summed into one float
        incr = increments(rng.standard_normal((4, 6, 2)))
        with pytest.raises(ValidationError, match=r"one document's \(n, d\) rows"):
            quadratic_form(SpdMatrix(np.eye(2)), incr)
        with pytest.raises(ValidationError):
            quadratic_form(SpdMatrix(np.eye(2)), np.ones(2))

    def test_pooled_corpus_order_invariant(self, rng):
        trajs = [random_trajectory(rng, 4, T, traj_id=f"p{i}")
                 for i, T in enumerate((3, 9, 2, 33, 12))]
        m, w = pooled_covariance(trajs)
        m_rev, w_rev = pooled_covariance(trajs[::-1])
        np.testing.assert_array_equal(m, m_rev)
        assert w == w_rev

    def test_pooled_gram_bit_for_bit_with_concatenated_groups(self, rng):
        # the groups' increments stacked in one reused buffer: the same Gram sum, to the
        # bit, as one np.concatenate per group of _GRAM_DOCS id-ordered documents
        group = bridge._GRAM_DOCS
        trajs = [random_trajectory(rng, 5, int(T), traj_id=f"g{i:03d}")
                 for i, T in enumerate(rng.integers(2, 60, 2 * group + 7))]
        acc = np.zeros((5, 5))
        for lo in range(0, len(trajs), group):
            incr = np.concatenate([increments(t.points) for t in trajs[lo:lo + group]])
            acc += incr.T @ incr
        m = acc / sum(t.T - 1 for t in trajs)
        np.testing.assert_array_equal(pooled_covariance(trajs[::-1])[0], 0.5 * (m + m.T))

    def test_overflow_names_first_document(self, rng):
        # finite coordinates whose increments overflow: a NumericalError, not a RuntimeWarning
        huge = LatentTrajectory("p2", "x", [[1e308, 0.0], [-1e308, 1.0], [0.0, 0.0]])
        trajs = [random_trajectory(rng, 2, 4, traj_id=f"p{i}") for i in (1, 3)] + [huge]
        with pytest.raises(NumericalError, match="trajectory 'p2': its increments overflow"):
            pooled_covariance(trajs)
        spatial = SpdMatrix(np.eye(2))
        with pytest.raises(NumericalError, match="trajectory 'p2': its statistic overflows"):
            score_statistics(trajs, spatial)


class TestSampleBridge:
    def test_endpoints_exact(self, rng):
        s0 = rng.standard_normal(3)
        sT = rng.standard_normal(3)
        t = sample_bridge(3, 12, random_spatial(rng, 3), s0, sT, seed=5)
        assert np.array_equal(t.points[0], s0)
        assert np.array_equal(t.points[-1], sT)

    def test_deterministic_given_seed(self, rng):
        spatial = random_spatial(rng, 2)
        a = sample_bridge(2, 9, spatial, np.zeros(2), np.ones(2), seed=33)
        b = sample_bridge(2, 9, spatial, np.zeros(2), np.ones(2), seed=33)
        assert np.array_equal(a.points, b.points)

    def test_midpoint_variance(self):
        # Var of the standard bridge at T/2 is (T/2)(T - T/2)/T = T/4
        T, n = 16, 10_000
        spatial = SpdMatrix(np.eye(1))
        mid = np.array([
            sample_bridge(1, T, spatial, np.zeros(1), np.zeros(1), seed=s).points[T // 2, 0]
            for s in range(n)
        ])
        assert float(mid.var()) == pytest.approx(T / 4.0, rel=0.05)

    def test_cross_coordinate_correlation(self):
        spatial = SpdMatrix([[1.0, 0.9], [0.9, 1.0]])
        T, n = 50, 10_000
        t_idx = 20
        pts = np.array([
            sample_bridge(2, T, spatial, np.zeros(2), np.zeros(2), seed=s).points[t_idx]
            for s in range(n)
        ])
        corr = float(np.corrcoef(pts.T)[0, 1])
        assert corr == pytest.approx(0.9, abs=0.02)

    def test_draws_are_w_z_lt(self, rng):
        # the closed-form factor's cumulative sum against the dense temporal Cholesky factor
        d = 3
        spatial = random_spatial(rng, d)
        for T in (2, 3, 17, 60, 500):
            t = sample_bridge(d, T, spatial, np.zeros(d), np.zeros(d), seed=T)
            z = np.random.default_rng(T).standard_normal((d, T - 1))
            expected = spatial.chol @ z @ np.linalg.cholesky(temporal_matrix(T)).T
            error = np.linalg.norm(t.points[1:-1].T - expected) / np.linalg.norm(expected)
            assert error <= 1e-12, T

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            sample_bridge(3, 5, random_spatial(rng, 2), np.zeros(3), np.zeros(3), seed=0)
        with pytest.raises(DimensionMismatchError):
            sample_bridge(2, 5, random_spatial(rng, 2), np.zeros(3), np.zeros(2), seed=0)


class TestLogLikelihood:
    def test_flat_unit_case(self):
        t = LatentTrajectory("a", "x", [[0.0], [0.0], [0.0]])
        value = log_likelihood(t, SpdMatrix(np.eye(1)))
        assert value == pytest.approx(-0.5723649429247001, abs=1e-10)

    def test_unit_residual_case(self):
        t = LatentTrajectory("a", "x", [[0.0], [1.0], [0.0]])
        value = log_likelihood(t, SpdMatrix(np.eye(1)))
        assert value == pytest.approx(-1.5723649429247001, abs=1e-10)

    def test_matches_dense_density(self, rng):
        for d in (1, 2, 3):
            for T in (2, 3, 4, 5):
                for _ in range(10):
                    t = random_trajectory(rng, d, T)
                    sigma = random_spd(rng, d)
                    spatial = SpdMatrix(sigma)
                    dense = dense_log_density(t, sigma)
                    assert log_likelihood(t, spatial) == pytest.approx(dense, rel=1e-10)

    def test_trace_identity(self, rng):
        for d in (1, 2, 3):
            for T in (2, 3, 4, 5):
                t = random_trajectory(rng, d, T)
                sigma = random_spd(rng, d)
                trace = quadratic_form(SpdMatrix(sigma),
                                       increments(t.points))
                assert trace == pytest.approx(dense_quad_form(t, sigma), rel=1e-10)

    def test_scaling_metamorphic(self, rng):
        t = random_trajectory(rng, 3, 7)
        sigma = random_spd(rng, 3)
        base = log_likelihood(t, SpdMatrix(sigma))
        trace = dense_quad_form(t, sigma)
        for c in (0.5, 2.0, 11.0):
            scaled = log_likelihood(t, SpdMatrix(c * sigma))
            expected = base - (t.T - 1) * t.d / 2 * np.log(c) - 0.5 * (1 / c - 1) * trace
            assert scaled == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            log_likelihood(random_trajectory(rng, 2, 4), SpdMatrix(np.eye(3)))

    def test_affine_drift_invariance(self, rng):
        t = random_trajectory(rng, 2, 6)
        spatial = random_spatial(rng, 2)
        u = rng.standard_normal(2)
        v = rng.standard_normal(2)
        shifted = LatentTrajectory(
            "a", "x", t.points + u + np.outer(np.arange(t.T + 1), v)
        )
        np.testing.assert_allclose(chord_residuals(shifted), chord_residuals(t),
                                   atol=1e-10)
        assert log_likelihood(shifted, spatial) == pytest.approx(
            log_likelihood(t, spatial), abs=1e-10
        )


class TestMleSigma:
    def test_hand_computed_scalar(self):
        t = LatentTrajectory("a", "x", [[0.0], [1.0], [0.0]])
        est = mle_sigma([t])
        assert est.entries[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_straight_lines_singular(self):
        pts = np.linspace([0.0, 0.0], [2.0, 2.0], num=5)
        trajs = [LatentTrajectory(f"t{i}", "x", pts) for i in range(3)]
        with pytest.raises(SingularEstimateError):
            mle_sigma(trajs)

    def test_insufficient_weight(self, rng):
        with pytest.raises(InsufficientDataError, match=r"^pooled weight 1 is below dimension 3$"):
            mle_sigma([random_trajectory(rng, 3, 2)])
        with pytest.raises(InsufficientDataError):
            mle_sigma([])

    def test_recovery_from_samples(self, rng):
        d, T, n = 4, 50, 200
        sigma = random_spd(rng, d)
        spatial = SpdMatrix(sigma)
        trajs = [
            sample_bridge(d, T, spatial, np.zeros(d), np.zeros(d), seed=10_000 + i,
                          id=f"s{i}")
            for i in range(n)
        ]
        est = mle_sigma(trajs)
        rel = np.linalg.norm(est.entries - sigma) / np.linalg.norm(sigma)
        assert rel < 0.10

    def test_stationarity(self, rng):
        d, T, n = 3, 10, 40
        spatial = random_spatial(rng, d)
        trajs = [
            sample_bridge(d, T, spatial, np.zeros(d), np.zeros(d), seed=777 + i, id=f"s{i}")
            for i in range(n)
        ]
        est = mle_sigma(trajs)
        best = sum(log_likelihood(t, est) for t in trajs)
        for _ in range(10):
            e = rng.standard_normal((d, d))
            e = (e + e.T) / 2
            e /= np.linalg.norm(e)
            for delta in (1e-4, -1e-4):
                perturbed = SpdMatrix(est.entries + delta * e)
                assert sum(log_likelihood(t, perturbed) for t in trajs) <= best + 1e-8

    def test_affine_drift_invariance(self, rng):
        trajs = [random_trajectory(rng, 2, 6, traj_id=f"t{i}") for i in range(5)]
        u = rng.standard_normal(2)
        v = rng.standard_normal(2)
        shifted = [
            LatentTrajectory(t.id, t.domain, t.points + u + np.outer(np.arange(t.T + 1), v))
            for t in trajs
        ]
        np.testing.assert_allclose(
            mle_sigma(shifted).entries, mle_sigma(trajs).entries, atol=1e-10
        )

    def test_error_shrinks_with_n(self):
        d, T = 3, 12
        rng = np.random.default_rng(7)
        sigma = random_spd(rng, d)
        spatial = SpdMatrix(sigma)
        norms = {n: [] for n in (25, 100, 400)}
        seed = 0
        for _ in range(20):
            for n in norms:
                trajs = []
                for i in range(n):
                    trajs.append(
                        sample_bridge(d, T, spatial, np.zeros(d), np.zeros(d),
                                      seed=seed, id=f"s{seed}")
                    )
                    seed += 1
                est = mle_sigma(trajs)
                norms[n].append(
                    np.linalg.norm(est.entries - sigma) / np.linalg.norm(sigma)
                )
        medians = [float(np.median(norms[n])) for n in (25, 100, 400)]
        assert medians[0] > medians[1] > medians[2]

    def test_mixed_dimensions_rejected(self, rng):
        with pytest.raises(DimensionMismatchError):
            mle_sigma([random_trajectory(rng, 2, 5, traj_id="a"),
                       random_trajectory(rng, 3, 5, traj_id="b")])


class TestShrinkCovariance:
    def pooled(self, rng):
        trajs = [random_trajectory(rng, 3, 9, traj_id=f"t{i}") for i in range(4)]
        return pooled_covariance(trajs)

    @pytest.mark.parametrize("eps", [0.0, 1e-7, 0.3, 1.0])
    def test_blend_arithmetic(self, rng, eps):
        # the fit command writes these bits: keep the blend's order of operations
        m, weight = self.pooled(rng)
        spatial, sigma2 = shrink_covariance(m, weight, eps)
        assert sigma2 == float(np.trace(m)) / 3
        np.testing.assert_array_equal(spatial.entries,
                                      (1.0 - eps) * m + eps * sigma2 * np.eye(3))

    @pytest.mark.parametrize("eps", [-0.1, 1.5, 5.0, float("nan"), float("inf")])
    def test_epsilon_out_of_range(self, rng, eps):
        with pytest.raises(ValidationError, match="epsilon must lie in"):
            shrink_covariance(*self.pooled(rng), eps)

    def test_singular_result(self):
        with pytest.raises(SingularEstimateError, match="singular"):
            shrink_covariance(np.array([[1.0, 1.0], [1.0, 1.0]]), 2, 0.0)

    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.5, float("nan")])
    def test_weight_below_dimension_is_rejected_before_epsilon(self, eps):
        # the one weight rule of fit, mle_sigma and the trainer, checked before epsilon
        with pytest.raises(InsufficientDataError,
                           match=r"^pooled weight 2 is below dimension 3$"):
            shrink_covariance(np.eye(3), 2, eps)
        assert shrink_covariance(np.eye(3), 3, 0.0)[0].dim == 3
