"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance and runtime budget is pinned here; nothing is deferred to
later calibration.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import kstest

from bridgescore import (
    LatentTrajectory,
    LinearEncoder,
    ShuffleSpec,
    SpdMatrix,
    TrainerState,
    chi_square_sf,
    cl_gradient,
    cl_loss,
    discrimination_accuracies,
    domain_swap_compare,
    log_likelihood,
    make_shuffle_set,
    mle_sigma,
    nll_batch_loss,
    nll_gradient,
    sample_bridge,
    sample_triplets,
    score_statistics,
    update_sigma_hat,
)
from bridgescore.cli import main as cli_main
from conftest import dense_log_density, random_spd, random_trajectory
from test_encoder import assert_gradients_close, fd_gradient


@contextmanager
def criterion(num, name, budget_s):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"[acceptance] criterion {num} ({name}): PASS ({elapsed:.2f}s)")


def simulate(spatial, d, T, n, seed0, prefix="doc"):
    return [
        sample_bridge(d, T, spatial, np.zeros(d), np.zeros(d), seed=seed0 + i,
                      id=f"{prefix}-{i:04d}")
        for i in range(n)
    ]


def test_criterion_1_density_oracle_equivalence():
    with criterion(1, "density-oracle equivalence", 10.0):
        rng = np.random.default_rng(101)
        for d in (1, 2, 3):
            for T in (2, 3, 4, 5):
                for _ in range(100):
                    traj = random_trajectory(rng, d, T)
                    sigma = random_spd(rng, d)
                    got = log_likelihood(traj, SpdMatrix(sigma))
                    want = dense_log_density(traj, sigma)
                    assert abs(got - want) <= 1e-10 * abs(want)


def test_criterion_2_mle_stationarity_and_recovery():
    with criterion(2, "MLE stationarity and recovery", 60.0):
        rng = np.random.default_rng(202)
        d, T, n = 4, 50, 200
        sigma = random_spd(rng, d)
        spatial = SpdMatrix(sigma)

        trajs = simulate(spatial, d, T, n, seed0=20_000)
        est = mle_sigma(trajs)
        best = sum(log_likelihood(t, est) for t in trajs)
        for _ in range(8):
            e = rng.standard_normal((d, d))
            e = (e + e.T) / 2.0
            e /= np.linalg.norm(e)
            for delta in (1e-4, -1e-4):
                perturbed = SpdMatrix(est.entries + delta * e)
                assert sum(log_likelihood(t, perturbed) for t in trajs) <= best + 1e-8

        errors = []
        seed = 40_000
        for _ in range(20):
            replicate = simulate(spatial, d, T, n, seed0=seed)
            seed += n
            fit = mle_sigma(replicate)
            errors.append(
                float(np.linalg.norm(fit.entries - sigma) / np.linalg.norm(sigma))
            )
        assert float(np.median(errors)) < 0.10


def test_criterion_3_bbscore_calibration():
    with criterion(3, "BBScore chi-square calibration", 60.0):
        rng = np.random.default_rng(303)
        d, T, n = 4, 26, 2000  # dof = (T-1) d = 100
        spatial = SpdMatrix(random_spd(rng, d))
        stats, dof = score_statistics(simulate(spatial, d, T, n, seed0=60_000), spatial)
        assert abs(float(stats.mean()) - 100.0) <= 7.0
        assert abs(float(stats.var()) - 200.0) <= 40.0
        assert kstest(chi_square_sf(stats, dof), "uniform").pvalue > 0.01

        own = random_trajectory(rng, 3, 9)
        (stat,), (k,) = score_statistics([own], mle_sigma([own]))
        assert abs(stat / k - 1.0) <= 1e-10


def test_criterion_4_length_comparability():
    with criterion(4, "length comparability of the score", 60.0):
        rng = np.random.default_rng(404)
        d = 4
        spatial = SpdMatrix(random_spd(rng, d))
        means = []
        for T in (10, 50, 200):
            trajs = simulate(spatial, d, T, 600, seed0=100 * T)
            stats, dof = score_statistics(trajs, spatial)
            means.append(float(np.mean(stats / dof)))
        for a in means:
            for b in means:
                assert abs(a / b - 1.0) < 0.05


def test_criterion_5_gradient_correctness():
    with criterion(5, "analytic gradient correctness", 30.0):
        rng = np.random.default_rng(505)
        for trial in range(8):
            d_in = int(rng.integers(1, 5))
            d_out = int(rng.integers(1, 5))
            T = int(rng.integers(4, 9))
            enc = LinearEncoder(0.7 * rng.standard_normal((d_out, d_in)))
            sigma = SpdMatrix(random_spd(rng, d_out))

            batch = [
                LatentTrajectory(id=f"n{trial}-{i}", domain="d",
                                 points=rng.standard_normal((T + 1, d_in)))
                for i in range(int(rng.integers(1, 5)))
            ]
            numeric = fd_gradient(
                lambda w: nll_batch_loss(LinearEncoder(w), batch, sigma), enc.weights
            )
            assert_gradients_close(nll_gradient(enc, batch, sigma), numeric, tol=1e-5)

            triplets = sample_triplets(batch, np.random.default_rng(trial))
            numeric = fd_gradient(
                lambda w: nll_batch_loss(LinearEncoder(w), batch, sigma, triplets=triplets),
                enc.weights,
            )
            assert_gradients_close(
                nll_gradient(enc, batch, sigma, triplets=triplets), numeric, tol=1e-5
            )

            cl_batch = []
            for i in range(int(rng.integers(2, 6))):
                seq = LatentTrajectory(id=f"c{trial}-{i}", domain="d",
                                       points=0.7 * rng.standard_normal((T + 1, d_in)))
                cl_batch.append((seq, (0, int(rng.integers(1, T)), T)))
            numeric = fd_gradient(
                lambda w: cl_loss(LinearEncoder(w), cl_batch), enc.weights
            )
            assert_gradients_close(cl_gradient(enc, cl_batch), numeric, tol=1e-5)


def test_criterion_6_training_sanity(tmp_path):
    with criterion(6, "training sanity via cmd_train", 300.0):
        rng = np.random.default_rng(606)
        d, T, n = 3, 20, 60
        sigma = random_spd(rng, d)
        spatial = SpdMatrix(sigma)
        # well-conditioned invertible mixing so weight error does not blow up
        # into covariance error (condition number <= 1.6)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        mixing = q @ np.diag(rng.uniform(0.8, 1.25, size=d))
        theta_star = np.linalg.inv(mixing)

        rows = []
        raw_corpora = {}
        counter = 0
        for dom in ("news", "wiki"):
            for i in range(n):
                traj = sample_bridge(d, T, spatial, np.zeros(d), np.zeros(d),
                                     seed=80_000 + counter, id=f"{dom}-{i:03d}",
                                     domain=dom)
                counter += 1
                raw = traj.points @ mixing.T
                raw_corpora.setdefault(dom, []).append(
                    LatentTrajectory(id=traj.id, domain=dom, points=raw))
                rows.append(json.dumps({
                    "id": traj.id, "domain": dom,
                    "points": [[float(v) for v in p] for p in raw],
                }))
        corpus = tmp_path / "train.jsonl"
        corpus.write_text("\n".join(rows) + "\n")

        pert = rng.standard_normal(theta_star.shape)
        init = theta_star + 0.02 * np.linalg.norm(theta_star) / np.linalg.norm(pert) * pert
        weights = tmp_path / "init.json"
        weights.write_text(json.dumps([[float(v) for v in row] for row in init]))

        for eps in (1e-3, 1e-7):
            out = tmp_path / f"state-{eps}.json"
            rc = cli_main([
                "train", "--corpora", str(corpus), "--epochs", "50",
                "--step-size", "1e-8", "--batch-size", "8",
                "--epsilon", str(eps), "--init", str(weights),
                "--seed", "7", "--out", str(out),
            ])
            assert rc == 0
            state = json.loads(out.read_text())
            trace = state["nll_trace"]
            assert len(trace) == 51
            assert all(a > b for a, b in zip(trace, trace[1:])), \
                f"objective not strictly decreasing at epsilon={eps}"
            for dom, matrix in state["sigma_hat"].items():
                fitted = np.asarray(matrix)
                np.linalg.cholesky(fitted)  # PD after the final update
                rel = np.linalg.norm(fitted - sigma) / np.linalg.norm(sigma)
                assert rel < 0.2, f"epsilon={eps} domain={dom} recovery error {rel:.3f}"
                # the initial weights recover sigma within the bound too: a square
                # encoder's training only rescales it, so the bound shows no learning
                start = TrainerState(LinearEncoder(weights=init), epsilon=eps)
                rel0 = (np.linalg.norm(update_sigma_hat(start, dom, raw_corpora[dom]).entries
                                       - sigma) / np.linalg.norm(sigma))
                assert rel0 < 0.2, f"epsilon={eps} domain={dom} initial recovery error {rel0:.3f}"


def test_criterion_7_directional_discrimination():
    with criterion(7, "directional shuffle discrimination", 120.0):
        rng = np.random.default_rng(707)
        d, T, n = 4, 50, 100
        spatial = SpdMatrix(random_spd(rng, d))
        originals = simulate(spatial, d, T, n, seed0=90_000)
        for bs, floor in ((1, 0.90), (2, 0.75), (5, 0.75), (10, 0.75)):
            spec = ShuffleSpec(kind="global_block", block_size=bs, copies=20, seed=7)
            acc = discrimination_accuracies(originals, [spec], spatial)[0]
            assert acc > floor, f"block_size={bs}: accuracy {acc:.3f} <= {floor}"
        spec = ShuffleSpec(kind="local_window", num_windows=3, window_size=3,
                           copies=20, seed=7)
        acc = discrimination_accuracies(originals, [spec], spatial)[0]
        assert acc > 0.65, f"local windows: accuracy {acc:.3f} <= 0.65"


def test_criterion_8_sigma_swap_direction():
    with criterion(8, "covariance-swap comparison direction", 120.0):
        rng = np.random.default_rng(808)
        d, T, n = 4, 40, 60
        sig_a = random_spd(rng, d)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        rotated = q @ sig_a @ q.T
        sig_b = 0.5 * (rotated + rotated.T)
        spatial_a = SpdMatrix(sig_a)
        spatial_b = SpdMatrix(sig_b)

        corpus_a = simulate(spatial_a, d, T, n, seed0=1_000, prefix="a")
        corpus_b = simulate(spatial_b, d, T, n, seed0=2_000, prefix="b")
        fit_a = mle_sigma(simulate(spatial_a, d, T, 80, seed0=3_000, prefix="ha"))
        fit_b = mle_sigma(simulate(spatial_b, d, T, 80, seed0=4_000, prefix="hb"))

        results = domain_swap_compare(corpus_a, corpus_b, fit_a, fit_b)
        assert results["sigma_a"] > 0.60, f"under sigma_a: {results['sigma_a']:.3f}"
        assert results["sigma_b"] < 0.50, f"no flip under sigma_b: {results['sigma_b']:.3f}"


def test_criterion_9_shuffle_set_protocol():
    with criterion(9, "shuffle-set protocol", 60.0):
        rng = np.random.default_rng(909)
        traj = random_trajectory(rng, 3, 40)
        spec = ShuffleSpec(kind="global_block", block_size=2, copies=20, seed=13)
        first = make_shuffle_set(traj, spec)
        second = make_shuffle_set(traj, spec)
        assert len(first) <= 20
        keys = {c.points.tobytes() for c in first}
        assert len(keys) == len(first)
        assert traj.points.tobytes() not in keys
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.points.tobytes() == b.points.tobytes()

        # short sequence: the only non-identity two-block permutation
        short = LatentTrajectory("s", "x", [[0.0], [1.0], [2.0], [3.0]])
        spec = ShuffleSpec(kind="global_block", block_size=2, copies=20, seed=13)
        assert len(make_shuffle_set(short, spec)) == 1
