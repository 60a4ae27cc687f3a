import math

import numpy as np
import pytest

from bridgescore import (
    DimensionMismatchError,
    InsufficientDataError,
    LatentTrajectory,
    LinearEncoder,
    NumericalError,
    SpdMatrix,
    TrainerState,
    ValidationError,
    cl_gradient,
    cl_loss,
    encode,
    increments,
    mle_sigma,
    nll_batch_loss,
    nll_gradient,
    nll_objective,
    pooled_covariance,
    quadratic_form,
    sample_bridge,
    sample_triplets,
    shrink_covariance,
    train,
    update_sigma_hat,
)
from conftest import dense_quad_form, random_spd, temporal_matrix
from test_bridge import chord_residuals


def raw_sequence(rng, d_in, T, seq_id="r", domain="dom", scale=1.0):
    return LatentTrajectory(id=seq_id, domain=domain,
                            points=scale * rng.standard_normal((T + 1, d_in)))


def fd_gradient(loss_fn, weights, h=1e-5):
    grad = np.zeros_like(weights)
    for i in range(weights.shape[0]):
        for j in range(weights.shape[1]):
            up = weights.copy()
            up[i, j] += h
            down = weights.copy()
            down[i, j] -= h
            grad[i, j] = (loss_fn(up) - loss_fn(down)) / (2.0 * h)
    return grad


def assert_gradients_close(analytic, numeric, tol=1e-5):
    scale = np.maximum(1.0, np.abs(numeric))
    assert np.all(np.abs(analytic - numeric) <= tol * scale)


class TestEncode:
    def test_identity(self, rng):
        seq = raw_sequence(rng, 3, 5)
        out = encode(LinearEncoder.identity(3), seq)
        np.testing.assert_array_equal(out.points, seq.points)
        assert out.id == seq.id and out.domain == seq.domain

    def test_zero_weights(self, rng):
        seq = raw_sequence(rng, 3, 5)
        out = encode(LinearEncoder(np.zeros((2, 3))), seq)
        assert np.all(out.points == 0.0) and out.d == 2

    def test_linearity(self, rng):
        seq = raw_sequence(rng, 4, 6)
        doubled = LatentTrajectory(id=seq.id, domain=seq.domain, points=2.0 * seq.points)
        enc = LinearEncoder(rng.standard_normal((3, 4)))
        np.testing.assert_allclose(encode(enc, doubled).points,
                                   2.0 * encode(enc, seq).points, rtol=1e-12)

    @pytest.mark.parametrize("call", [
        lambda enc, seq: encode(enc, seq),
        lambda enc, seq: nll_gradient(enc, [seq], SpdMatrix(np.eye(2))),
        lambda enc, seq: cl_loss(enc, [(seq, (0, 2, 5))]),
    ], ids=["encode", "nll_gradient", "cl_loss"])
    def test_dimension_mismatch(self, rng, call):
        seq = raw_sequence(rng, 3, 5, seq_id="wide")
        with pytest.raises(DimensionMismatchError, match="sequence 'wide' has d_in=3"):
            call(LinearEncoder.identity(2), seq)


def cl_loss_reference(weights, batch):
    """Independent re-implementation of the contrastive loss with plain loops."""
    total = 0.0
    for seq_a, (i, j, k) in batch:
        alpha = (j - i) / (k - i)
        var = (j - i) * (k - j) / (k - i)
        start = weights @ seq_a.points[i]
        end = weights @ seq_a.points[k]

        def log_score(mid_raw):
            u = weights @ mid_raw - (1.0 - alpha) * start - alpha * end
            return -float(u @ u) / (2.0 * var)

        positive = log_score(seq_a.points[j])
        denom = sum(math.exp(log_score(seq_m.points[jm]))
                    for seq_m, (_, jm, _) in batch)
        total += -(positive - math.log(denom))
    return total / len(batch)


class TestClLoss:
    def test_empty_batch(self):
        with pytest.raises(ValidationError, match="contrastive loss needs at least one triplet"):
            cl_loss(LinearEncoder.identity(2), [])

    def test_single_triplet_is_zero(self, rng):
        seq = raw_sequence(rng, 2, 6)
        assert cl_loss(LinearEncoder.identity(2), [(seq, (0, 3, 6))]) == pytest.approx(0.0)

    def test_two_identical_triplets(self, rng):
        seq = raw_sequence(rng, 2, 6)
        batch = [(seq, (0, 2, 6)), (seq, (0, 2, 6))]
        assert cl_loss(LinearEncoder.identity(2), batch) == pytest.approx(math.log(2.0))

    def test_matches_reference(self, rng):
        enc = LinearEncoder(0.5 * rng.standard_normal((3, 4)))
        batch = []
        for i in range(8):
            seq = raw_sequence(rng, 4, 8, seq_id=f"s{i}", scale=0.5)
            mid = int(rng.integers(1, 8))
            batch.append((seq, (0, mid, 8)))
        assert cl_loss(enc, batch) == pytest.approx(
            cl_loss_reference(enc.weights, batch), abs=1e-12
        )

    def test_invalid_triplet(self, rng):
        seq = raw_sequence(rng, 2, 5)
        with pytest.raises(ValidationError):
            cl_loss(LinearEncoder.identity(2), [(seq, (3, 3, 5))])
        with pytest.raises(ValidationError):
            cl_loss(LinearEncoder.identity(2), [(seq, (0, 2, 9))])


class TestClGradient:
    def test_single_triplet_zero(self, rng):
        seq = raw_sequence(rng, 3, 6)
        grad = cl_gradient(LinearEncoder.identity(3), [(seq, (0, 2, 6))])
        np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    def test_identical_pair_symmetric(self, rng):
        seq = raw_sequence(rng, 2, 6)
        batch = [(seq, (0, 3, 6)), (seq, (0, 3, 6))]
        half = cl_gradient(LinearEncoder.identity(2), batch[:1])
        np.testing.assert_allclose(half, 0.0, atol=1e-14)
        # both anchors contribute identically, so the batch gradient is
        # twice either anchor's share; just check finite-difference instead
        enc = LinearEncoder(rng.standard_normal((2, 2)))
        numeric = fd_gradient(lambda w: cl_loss(LinearEncoder(w), batch), enc.weights)
        assert_gradients_close(cl_gradient(enc, batch), numeric)

    def test_finite_differences_randomized(self, rng):
        for trial in range(6):
            d_in = int(rng.integers(1, 5))
            d_out = int(rng.integers(1, 5))
            T = int(rng.integers(4, 9))
            batch = []
            for i in range(int(rng.integers(2, 6))):
                seq = raw_sequence(rng, d_in, T, seq_id=f"s{trial}-{i}", scale=0.7)
                mid = int(rng.integers(1, T))
                batch.append((seq, (0, mid, T)))
            enc = LinearEncoder(0.6 * rng.standard_normal((d_out, d_in)))
            numeric = fd_gradient(lambda w: cl_loss(LinearEncoder(w), batch), enc.weights)
            assert_gradients_close(cl_gradient(enc, batch), numeric)


class TestNllLoss:
    def test_chord_output_is_zero(self, rng):
        # inputs on an exact chord encode to points on a chord: zero residuals
        sT = np.array([8.0, -4.0])
        inputs = np.array([t / 8 * sT for t in range(9)])
        seq = LatentTrajectory(id="c", domain="dom", points=inputs)
        enc = LinearEncoder(rng.standard_normal((2, 2)))
        assert nll_batch_loss(enc, [seq], SpdMatrix(np.eye(2))) == 0.0

    def test_hand_computed(self):
        seq = LatentTrajectory(id="h", domain="dom", points=[[0.0], [1.0], [0.0]])
        loss = nll_batch_loss(LinearEncoder.identity(1), [seq],
                              SpdMatrix(np.eye(1)))
        assert loss == pytest.approx(2.0, rel=1e-12)

    def test_triplet_t4_covers_interior(self, rng):
        seq = raw_sequence(rng, 2, 4)
        enc = LinearEncoder(rng.standard_normal((2, 2)))
        sigma = SpdMatrix(random_spd(rng, 2))
        full = nll_batch_loss(enc, [seq], sigma)
        triplet = nll_batch_loss(enc, [seq], sigma, triplets=[(1, 2, 3)])
        assert triplet == pytest.approx(full, rel=1e-12)

    def test_triplet_sampling_infeasible(self, rng):
        with pytest.raises(ValidationError, match="'r' has T=3 < 4; no interior triple exists"):
            sample_triplets([raw_sequence(rng, 2, 3)], rng)

    def test_triplet_sampling_uniform_over_triples(self):
        rng = np.random.default_rng(3)
        seq = LatentTrajectory(id="u", domain="dom", points=np.arange(6.0)[:, None])
        counts = {}
        for _ in range(4000):
            (trip,) = sample_triplets([seq], rng)
            counts[trip] = counts.get(trip, 0) + 1
        # T=5: interior indices 1..4 give C(4,3) = 4 triples
        assert set(counts) == {(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)}
        freqs = np.array(list(counts.values())) / 4000.0
        assert np.all(np.abs(freqs - 0.25) < 0.04)

    def test_triplet_average_is_fixed_quadratic_functional(self, rng):
        # Averaging over all interior triples applies a fixed PSD kernel K to
        # the residuals, with tr(K Sigma_T) = 3, so its expectation under the
        # bridge law is 3/(T-1) times the full loss's expectation.
        from itertools import combinations

        for T in (4, 5):
            seq = raw_sequence(rng, 2, T)
            enc = LinearEncoder(rng.standard_normal((2, 2)))
            sigma = SpdMatrix(random_spd(rng, 2))
            triples = list(combinations(range(1, T), 3))
            tc = temporal_matrix(T)
            kernel = np.zeros((T - 1, T - 1))
            for trip in triples:
                cols = np.array(trip) - 1
                sub_inv = np.linalg.inv(tc[np.ix_(cols, cols)])
                kernel[np.ix_(cols, cols)] += sub_inv
            kernel /= len(triples)
            avg = np.mean([
                nll_batch_loss(enc, [seq], sigma, triplets=[trip]) for trip in triples
            ])
            traj = encode(enc, seq)
            r = chord_residuals(traj)
            quad = float(np.trace(np.linalg.solve(sigma.entries, r) @ kernel @ r.T))
            assert avg == pytest.approx(quad, rel=1e-10)
            assert float(np.trace(kernel @ tc)) == pytest.approx(3.0, rel=1e-10)
            if T == 4:
                full = nll_batch_loss(enc, [seq], sigma)
                assert avg == pytest.approx(full, rel=1e-12)


class TestNllGradient:
    def test_zero_residual_zero_gradient(self, rng):
        sT = np.array([8.0, -4.0])
        inputs = np.array([t / 8 * sT for t in range(9)])
        seq = LatentTrajectory(id="c", domain="dom", points=inputs)
        enc = LinearEncoder(rng.standard_normal((2, 2)))
        grad = nll_gradient(enc, [seq], SpdMatrix(np.eye(2)))
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_finite_differences_randomized(self, rng):
        for trial in range(6):
            d_in = int(rng.integers(1, 5))
            d_out = int(rng.integers(1, 5))
            T = int(rng.integers(4, 9))
            batch = [raw_sequence(rng, d_in, T, seq_id=f"s{trial}-{i}")
                     for i in range(int(rng.integers(1, 5)))]
            enc = LinearEncoder(0.8 * rng.standard_normal((d_out, d_in)))
            sigma = SpdMatrix(random_spd(rng, d_out))
            numeric = fd_gradient(
                lambda w: nll_batch_loss(LinearEncoder(w), batch, sigma), enc.weights
            )
            assert_gradients_close(nll_gradient(enc, batch, sigma), numeric)

    def test_finite_differences_triplet_mode(self, rng):
        batch = [raw_sequence(rng, 3, 7, seq_id=f"s{i}") for i in range(3)]
        triplets = sample_triplets(batch, np.random.default_rng(11))
        enc = LinearEncoder(rng.standard_normal((2, 3)))
        sigma = SpdMatrix(random_spd(rng, 2))
        numeric = fd_gradient(
            lambda w: nll_batch_loss(LinearEncoder(w), batch, sigma, triplets=triplets),
            enc.weights,
        )
        assert_gradients_close(nll_gradient(enc, batch, sigma, triplets=triplets), numeric)

    def test_sigma_scaling_inverse(self, rng):
        batch = [raw_sequence(rng, 2, 6)]
        enc = LinearEncoder(rng.standard_normal((2, 2)))
        sigma = random_spd(rng, 2)
        g1 = nll_gradient(enc, batch, SpdMatrix(sigma))
        g3 = nll_gradient(enc, batch, SpdMatrix(3.0 * sigma))
        np.testing.assert_allclose(g3, g1 / 3.0, rtol=1e-12)


def bridge_corpus(rng, d, T, n, domain, mixing=None, seed0=0):
    sigma = random_spd(rng, d)
    spatial = SpdMatrix(sigma)
    seqs = []
    for i in range(n):
        traj = sample_bridge(d, T, spatial, np.zeros(d), np.zeros(d),
                             seed=seed0 + i, id=f"{domain}-{i:03d}", domain=domain)
        inputs = traj.points if mixing is None else traj.points @ mixing.T
        seqs.append(LatentTrajectory(id=traj.id, domain=domain, points=inputs))
    return seqs, sigma


class TestUpdateSigmaHat:
    def test_epsilon_zero_matches_mle(self, rng):
        seqs, _ = bridge_corpus(rng, 2, 8, 10, "a")
        state = TrainerState(encoder=LinearEncoder.identity(2), epsilon=0.0)
        updated = update_sigma_hat(state, "a", seqs)
        expected = mle_sigma([encode(state.encoder, s) for s in seqs])
        np.testing.assert_allclose(updated.entries, expected.entries,
                                   rtol=1e-12)

    def test_epsilon_one_is_isotropic(self, rng):
        seqs, _ = bridge_corpus(rng, 2, 8, 10, "a")
        state = TrainerState(encoder=LinearEncoder.identity(2), epsilon=1.0)
        updated = update_sigma_hat(state, "a", seqs)
        s2 = state.sigma_scalar["a"]
        np.testing.assert_allclose(updated.entries, s2 * np.eye(2), rtol=1e-12)

    def test_epsilon_half_is_midpoint(self, rng):
        seqs, _ = bridge_corpus(rng, 2, 8, 10, "a")
        lo = TrainerState(encoder=LinearEncoder.identity(2), epsilon=0.0)
        hi = TrainerState(encoder=LinearEncoder.identity(2), epsilon=1.0)
        mid = TrainerState(encoder=LinearEncoder.identity(2), epsilon=0.5)
        m_lo = update_sigma_hat(lo, "a", seqs).entries
        m_hi = update_sigma_hat(hi, "a", seqs).entries
        m_mid = update_sigma_hat(mid, "a", seqs).entries
        np.testing.assert_allclose(m_mid, 0.5 * (m_lo + m_hi), rtol=1e-12)

    def test_scalar_is_trace_over_d(self, rng):
        seqs, _ = bridge_corpus(rng, 3, 8, 10, "a")
        state = TrainerState(encoder=LinearEncoder.identity(3), epsilon=0.0)
        updated = update_sigma_hat(state, "a", seqs)
        assert state.sigma_scalar["a"] == pytest.approx(
            float(np.trace(updated.entries)) / 3.0, rel=1e-12
        )

    def test_pd_for_all_epsilons(self, rng):
        for eps in (1e-7, 1e-3, 0.1, 0.5, 1.0):
            seqs, _ = bridge_corpus(rng, 3, 6, 4, "a", seed0=int(rng.integers(1 << 20)))
            state = TrainerState(encoder=LinearEncoder(rng.standard_normal((3, 3))),
                                 epsilon=eps)
            updated = update_sigma_hat(state, "a", seqs)
            assert np.all(np.diag(updated.chol) > 0.0)

    def test_empty_corpus(self):
        state = TrainerState(encoder=LinearEncoder.identity(2))
        with pytest.raises(InsufficientDataError):
            update_sigma_hat(state, "a", [])

    def test_weight_below_d_out_names_the_domain(self, rng):
        seqs = [raw_sequence(rng, 4, 3, seq_id="s", domain="a")]  # pooled weight 2
        state = TrainerState(encoder=LinearEncoder.identity(4))
        with pytest.raises(InsufficientDataError,
                           match=r"^domain 'a': pooled weight 2 is below dimension 4$"):
            update_sigma_hat(state, "a", seqs)
        assert state.sigma_hat == {}
        state = TrainerState(encoder=LinearEncoder(np.eye(2, 4)))
        assert update_sigma_hat(state, "a", seqs).dim == 2

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_identity_encoder_is_fits_estimate_bit_for_bit(self, rng, eps):
        # 40 documents: pooled_covariance sums them in more than one GEMM block
        seqs = [raw_sequence(rng, 3, int(rng.integers(2, 12)), seq_id=f"s{k:02d}", domain="a")
                for k in range(40)]
        state = TrainerState(encoder=LinearEncoder.identity(3), epsilon=eps)
        updated = update_sigma_hat(state, "a", seqs[::-1])
        expected = shrink_covariance(*pooled_covariance(seqs), eps)[0]
        np.testing.assert_array_equal(updated.entries, expected.entries)


def identifiable_corpora(seed, d=3, T=20, n=60, domains=("news", "wiki")):
    """Raw sequences x = A s for bridge samples s, one shared mixing map A.

    An encoder near A^-1 maps the inputs back to bridge samples, so the
    per-domain covariance updates should recover the generating sigma up to
    Monte-Carlo noise (~0.07 relative at these sizes).
    """
    rng = np.random.default_rng(seed)
    sigma = random_spd(rng, d)
    spatial = SpdMatrix(sigma)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    mixing = q @ np.diag(rng.uniform(0.8, 1.25, size=d))
    corpora = {}
    counter = 0
    for dom in domains:
        seqs = []
        for i in range(n):
            traj = sample_bridge(d, T, spatial, np.zeros(d), np.zeros(d),
                                 seed=seed * 10_000 + counter, id=f"{dom}-{i:03d}",
                                 domain=dom)
            counter += 1
            seqs.append(LatentTrajectory(id=traj.id, domain=dom,
                                         points=traj.points @ mixing.T))
        corpora[dom] = seqs
    return corpora, sigma, np.linalg.inv(mixing)


class TestTrain:
    def test_zero_epochs_untouched(self, rng):
        corpora, _, theta_star = identifiable_corpora(5)
        state = TrainerState(encoder=LinearEncoder(theta_star), seed=1)
        out, trace = train(state, corpora, 0)
        assert out is state and trace == []
        assert state.sigma_hat == {}

    def test_deterministic_given_seed(self):
        corpora, _, theta_star = identifiable_corpora(6)
        runs = []
        for _ in range(2):
            state = TrainerState(encoder=LinearEncoder(theta_star), seed=9,
                                 step_size=1e-8, batch_size=8)
            out, trace = train(state, corpora, 3)
            runs.append((out.encoder.weights.copy(), dict(out.sigma_hat), tuple(trace)))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][2] == runs[1][2]
        for dom in runs[0][1]:
            assert np.array_equal(runs[0][1][dom].entries,
                                  runs[1][1][dom].entries)

    def test_single_step_descends(self, rng):
        corpora, _, theta_star = identifiable_corpora(7, domains=("solo",))
        seqs = corpora["solo"]
        perturbed = theta_star + 0.05 * rng.standard_normal(theta_star.shape)
        state = TrainerState(encoder=LinearEncoder(perturbed), seed=2,
                             step_size=1e-6, batch_size=len(seqs))
        update_sigma_hat(state, "solo", seqs)
        sigma = state.sigma_hat["solo"]
        before = nll_batch_loss(state.encoder, seqs, sigma)
        grad = nll_gradient(state.encoder, seqs, sigma)
        stepped = LinearEncoder(state.encoder.weights - state.step_size * grad)
        after = nll_batch_loss(stepped, seqs, sigma)
        assert after < before

    def test_objective_decreases_and_recovers(self, rng):
        corpora, sigma_true, theta_star = identifiable_corpora(8)
        pert = rng.standard_normal(theta_star.shape)
        init = theta_star + 0.02 * np.linalg.norm(theta_star) / np.linalg.norm(pert) * pert
        before = TrainerState(encoder=LinearEncoder(init), epsilon=1e-7)
        for dom, seqs in corpora.items():
            update_sigma_hat(before, dom, seqs)
        # step chosen so the scale-collapse drift of the trace objective stays
        # well under the Monte-Carlo noise floor over this horizon
        state = TrainerState(encoder=LinearEncoder(init), seed=3,
                             step_size=1e-8, batch_size=8, epsilon=1e-7)
        state, trace = train(state, corpora, 12)
        assert trace[-1] < trace[0]
        for when, covs in (("initial", before.sigma_hat), ("final", state.sigma_hat)):
            for dom, cov in covs.items():
                rel = np.linalg.norm(cov.entries - sigma_true) / np.linalg.norm(sigma_true)
                assert rel < 0.2, f"domain {dom} recovery error {rel} at the {when} weights"

    def test_divergence_guard(self):
        corpora, _, theta_star = identifiable_corpora(9, domains=("solo",))
        state = TrainerState(encoder=LinearEncoder(theta_star), seed=4,
                             step_size=50.0, batch_size=4)
        with pytest.raises(NumericalError,
                           match=r"^epoch 1: objective \S+ rose above its initial value \S+$"):
            train(state, corpora, 10)

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
    def test_step_size_must_be_positive_and_finite(self, step):
        with pytest.raises(ValidationError, match="step_size must be positive and finite"):
            TrainerState(encoder=LinearEncoder.identity(2), step_size=step)

    def test_overflowing_step_names_the_domain(self):
        # pytest turns a numpy RuntimeWarning into an error: the step is formed unwarned
        corpora, _, theta_star = identifiable_corpora(9, domains=("solo",))
        state = TrainerState(encoder=LinearEncoder(theta_star), seed=4,
                             step_size=1e308, batch_size=4)
        with pytest.raises(NumericalError, match="domain 'solo': a gradient step overflows"):
            train(state, corpora, 1)

    def test_empty_domain_rejected(self):
        state = TrainerState(encoder=LinearEncoder.identity(2))
        with pytest.raises(InsufficientDataError):
            train(state, {"a": []}, 1)

    def test_nll_objective_matches_formula(self, rng):
        corpora, _, theta_star = identifiable_corpora(10, domains=("solo",), n=5)
        state = TrainerState(encoder=LinearEncoder(theta_star), epsilon=0.0)
        update_sigma_hat(state, "solo", corpora["solo"])
        sig = state.sigma_hat["solo"]
        expected = 0.0
        for seq in corpora["solo"]:
            traj = encode(state.encoder, seq)
            ld = 2.0 * float(np.sum(np.log(np.diag(sig.chol))))
            expected += (traj.T - 1) * ld + dense_quad_form(traj, sig.entries)
        assert nll_objective(state, corpora) == pytest.approx(expected, rel=1e-12)

    def test_nll_objective_names_a_domain_with_no_covariance(self, rng):
        state = TrainerState(encoder=LinearEncoder.identity(2))
        with pytest.raises(ValidationError, match="domain 'a' has no covariance"):
            nll_objective(state, {"a": [raw_sequence(rng, 2, 5, domain="a")]})

    def test_triplet_mode_runs_deterministically(self):
        corpora, _, theta_star = identifiable_corpora(11, domains=("solo",), n=10)
        traces = []
        for _ in range(2):
            state = TrainerState(encoder=LinearEncoder(theta_star), seed=12,
                                 step_size=1e-6, batch_size=4, triplet_mode=True)
            _, trace = train(state, corpora, 2)
            traces.append(tuple(trace))
        assert traces[0] == traces[1]
        assert len(traces[0]) == 3


def two_domain_corpora(d=8, n=60):
    """Bridge samples of two domains under different covariances, T from 20 to 60."""
    rng = np.random.default_rng(21)
    corpora = {}
    for dom in ("a", "b"):
        spatial = SpdMatrix(random_spd(rng, d))
        corpora[dom] = [sample_bridge(d, int(rng.integers(20, 61)), spatial, np.zeros(d),
                                      np.zeros(d), rng, id=f"{dom}-{i:03d}", domain=dom)
                        for i in range(n)]
    return corpora


class TestScaleEquivariance:
    """At epsilon 0 the refreshed objective sees a square W only through log|det W|.

    Each Sigma_j is W M_j W^T, so log|Sigma_j| = 2 log|det W| + log|M_j| and
    tr(Sigma_j^-1 W M_j W^T) = d: the objective is
    sum_j n_j (log|M_j| + d) + 2 n log|det W| with n = sum_j n_j.
    """

    @staticmethod
    def refreshed(corpora, weights):
        state = TrainerState(encoder=LinearEncoder(weights), epsilon=0.0)
        for dom, seqs in corpora.items():
            update_sigma_hat(state, dom, seqs)
        return nll_objective(state, corpora)

    @staticmethod
    def shift(corpora, w1, w2):
        n = sum(pooled_covariance(seqs)[1] for seqs in corpora.values())
        return 2 * n * (np.linalg.slogdet(w2)[1] - np.linalg.slogdet(w1)[1])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_objective_moves_by_log_det(self, seed):
        corpora = two_domain_corpora()
        w1, w2 = np.random.default_rng(seed).standard_normal((2, 8, 8))
        moved = self.refreshed(corpora, w2) - self.refreshed(corpora, w1)
        assert moved == pytest.approx(self.shift(corpora, w1, w2), rel=1e-12)

    def test_train_trace_ends_above_the_refreshed_objective(self):
        corpora = two_domain_corpora()
        state = TrainerState(encoder=LinearEncoder.identity(8), epsilon=0.0, step_size=1e-6,
                             seed=3)
        w0 = state.encoder.weights
        state, trace = train(state, corpora, 8)
        w8 = state.encoder.weights
        start, end = self.refreshed(corpora, w0), self.refreshed(corpora, w8)
        assert trace[0] == pytest.approx(start, rel=1e-12)
        assert end - start == pytest.approx(self.shift(corpora, w0, w8), rel=1e-12)
        # The trace's last value misses the identity: domain 'a' refreshed its Sigma
        # before domain 'b''s steps moved W, and at epsilon 0 the refreshed Sigma is
        # the one that minimizes a domain's term, so the stale one leaves it higher.
        assert trace[-1] > end + 1e-6 * (trace[0] - end)


def dense_pooled_covariance(trajs):
    """sum_i R_i Sigma_Ti^-1 R_i^T / sum_i (T_i - 1) with the dense temporal matrix."""
    acc, weight = 0.0, 0
    for traj in trajs:
        r = chord_residuals(traj)
        acc = acc + r @ np.linalg.solve(temporal_matrix(traj.T), r.T)
        weight += traj.T - 1
    return acc / weight


def reference_train(state, corpora, epochs):
    """The trainer one sequence at a time: re-encode every epoch, one solve per document.

    Draws from the generator in the trainer's order: a permutation per domain
    and epoch, then the triplets of each batch.
    """
    rng = np.random.default_rng(state.seed)
    w = state.encoder.weights
    eps = state.epsilon
    seqs = {dom: sorted(corpora[dom], key=lambda s: s.id) for dom in sorted(corpora)}

    def refresh(dom):
        m, _ = pooled_covariance([LatentTrajectory(s.id, dom, s.points @ w.T) for s in seqs[dom]])
        sigma2 = np.trace(m) / len(m)
        return SpdMatrix((1 - eps) * m + eps * sigma2 * np.eye(len(m)))

    def objective():
        total = 0.0
        for dom, docs in seqs.items():
            logdet = np.linalg.slogdet(sigma[dom].entries)[1]
            for s in docs:
                total += (s.T - 1) * logdet + quadratic_form(sigma[dom], increments(s.points @ w.T))
        return total

    sigma = {dom: refresh(dom) for dom in seqs}
    trace = [objective()]
    for _ in range(epochs):
        for dom, docs in seqs.items():
            order = rng.permutation(len(docs))
            for lo in range(0, len(docs), state.batch_size):
                batch = [docs[i] for i in order[lo:lo + state.batch_size]]
                trips = sample_triplets(batch, rng) if state.triplet_mode else [None] * len(batch)
                grad = np.zeros_like(w)
                for s, trip in zip(batch, trips):
                    times = None if trip is None else [0, *trip, s.T]
                    dm = increments(s.points if trip is None else s.points[times], times)
                    grad += 2.0 * np.linalg.solve(sigma[dom].entries, w @ dm.T @ dm)
                w = w - state.step_size * grad
            sigma[dom] = refresh(dom)
        trace.append(objective())
    return trace, w


class TestGramTrainer:
    """The Gram-matrix trainer against per-sequence and dense computations, d_out < d_in."""

    @pytest.fixture
    def setup(self):
        corpora, _, theta_star = identifiable_corpora(13, d=4, T=10, n=12)
        rng = np.random.default_rng(14)
        weights = theta_star[:3] + 0.1 * rng.standard_normal((3, 4))
        return corpora, LinearEncoder(weights)

    def test_update_sigma_hat_matches_dense_pooled(self, setup):
        corpora, enc = setup
        state = TrainerState(encoder=enc, epsilon=0.0)
        updated = update_sigma_hat(state, "news", corpora["news"])
        expected = dense_pooled_covariance([encode(enc, s) for s in corpora["news"]])
        np.testing.assert_allclose(updated.entries, expected, rtol=1e-12, atol=0)

    def test_nll_objective_matches_dense_oracle(self, setup):
        corpora, enc = setup
        state = TrainerState(encoder=enc, epsilon=0.01)
        expected = 0.0
        for dom, seqs in corpora.items():
            sig = update_sigma_hat(state, dom, seqs).entries
            for seq in seqs:
                traj = encode(enc, seq)
                expected += (traj.T - 1) * np.linalg.slogdet(sig)[1] + dense_quad_form(traj, sig)
        assert nll_objective(state, corpora) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("triplet_mode", [False, True])
    def test_batch_loss_matches_per_sequence_kernel(self, setup, triplet_mode):
        corpora, enc = setup
        batch = corpora["wiki"][:5]
        sigma = SpdMatrix(random_spd(np.random.default_rng(15), 3))
        trips = sample_triplets(batch, 16) if triplet_mode else [None] * len(batch)
        expected = 0.0
        for seq, trip in zip(batch, trips):
            times = None if trip is None else [0, *trip, seq.T]
            points = encode(enc, seq).points
            expected += quadratic_form(sigma, increments(points if trip is None
                                                         else points[times], times))
        loss = nll_batch_loss(enc, batch, sigma, trips if triplet_mode else None)
        assert loss == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("triplet_mode", [False, True])
    def test_train_matches_per_sequence_reference(self, setup, triplet_mode):
        corpora, enc = setup
        state = TrainerState(encoder=enc, seed=17, step_size=1e-4, batch_size=5,
                             triplet_mode=triplet_mode)
        want_trace, want_w = reference_train(state, corpora, 3)
        state, trace = train(state, corpora, 3)
        np.testing.assert_allclose(trace, want_trace, rtol=1e-12, atol=0)
        assert trace[-1] < trace[0]
        err = np.linalg.norm(state.encoder.weights - want_w) / np.linalg.norm(want_w)
        assert err <= 1e-12

    def test_corpus_order_changes_no_bit(self, setup):
        corpora, enc = setup
        runs = []
        for step in (1, -1):
            state = TrainerState(encoder=enc, seed=17, step_size=1e-4, batch_size=5)
            state, trace = train(state, {dom: seqs[::step] for dom, seqs in corpora.items()}, 2)
            runs.append((trace, state.encoder.weights, state.sigma_hat["news"].entries))
        assert runs[0][0] == runs[1][0]
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        np.testing.assert_array_equal(runs[0][2], runs[1][2])
