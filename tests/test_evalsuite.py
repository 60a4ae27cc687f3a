import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgescore import (
    DimensionMismatchError,
    EmptySetError,
    LatentTrajectory,
    ShuffleSpec,
    SpdMatrix,
    ValidationError,
    discrimination_accuracies,
    domain_swap_compare,
    increments,
    make_shuffle_set,
    mle_sigma,
    relative_accuracy,
    sample_bridge,
    score_statistics,
    stable_seed,
    threshold_classify,
)
import bridgescore.evalsuite as ev
from conftest import dense_quad_form, random_spd, random_trajectory


def point_multiset(traj):
    return Counter(tuple(p) for p in traj.points)


def bbscores(trajs, spatial):
    """Each document's bbscore, statistic / dof, in input order."""
    statistic, dof = score_statistics(trajs, spatial)
    return statistic / dof


def simulate(spatial, d, T, n, seed0, prefix="doc"):
    return [
        sample_bridge(d, T, spatial, np.zeros(d), np.zeros(d), seed=seed0 + i,
                      id=f"{prefix}-{i:03d}")
        for i in range(n)
    ]


class TestStableSeed:
    def test_deterministic_and_distinct(self):
        assert stable_seed(7, "doc-1") == stable_seed(7, "doc-1")
        assert stable_seed(7, "doc-1") != stable_seed(7, "doc-2")
        assert stable_seed(7, "doc-1") != stable_seed(8, "doc-1")


class TestGlobalShuffle:
    @staticmethod
    def spec(block_size, seed):
        return ShuffleSpec(kind="global_block", block_size=block_size, copies=1, seed=seed)

    def test_single_block_rejected(self, rng):
        t = random_trajectory(rng, 2, 3)  # 4 points
        with pytest.raises(ValidationError, match="4 points cannot form two blocks of 4"):
            make_shuffle_set(t, self.spec(4, seed=0))
        with pytest.raises(ValidationError, match="4 points cannot form two blocks of 3"):
            make_shuffle_set(t, self.spec(3, seed=0))  # 4 < 2 * 3

    def test_two_blocks_forced_swap(self):
        t = LatentTrajectory("a", "x", [[0.0], [1.0], [2.0], [3.0]])
        [out] = make_shuffle_set(t, self.spec(2, seed=11))
        np.testing.assert_array_equal(out.points, [[2.0], [3.0], [0.0], [1.0]])

    def test_multiset_preserved(self, rng):
        t = random_trajectory(rng, 2, 9)
        for seed in range(10):
            [out] = make_shuffle_set(t, self.spec(2, seed=seed))
            assert point_multiset(out) == point_multiset(t)
            assert out.T == t.T

    def test_block_one_never_identity(self, rng):
        t = random_trajectory(rng, 1, 4)
        for seed in range(25):
            [out] = make_shuffle_set(t, self.spec(1, seed=seed))
            assert not np.array_equal(out.points, t.points)


class TestLocalShuffle:
    @staticmethod
    def spec(w, window_size, seed):
        return ShuffleSpec(kind="local_window", num_windows=w, window_size=window_size,
                           copies=1, seed=seed)

    def test_locality(self, rng):
        t = random_trajectory(rng, 2, 3)  # 4 points, window of 3 at start 0 or 1
        for seed in range(10):
            [out] = make_shuffle_set(t, self.spec(1, 3, seed=seed))
            changed = [i for i in range(4) if not np.array_equal(out.points[i], t.points[i])]
            assert changed
            assert set(changed) <= {0, 1, 2} or set(changed) <= {1, 2, 3}
            assert point_multiset(out) == point_multiset(t)

    def test_tiling_windows(self, rng):
        t = random_trajectory(rng, 1, 5)  # 6 points, two windows of 3 tile exactly
        [out] = make_shuffle_set(t, self.spec(2, 3, seed=4))
        for lo in (0, 3):
            window_before = Counter(tuple(p) for p in t.points[lo:lo + 3])
            window_after = Counter(tuple(p) for p in out.points[lo:lo + 3])
            assert window_before == window_after
            assert not np.array_equal(out.points[lo:lo + 3], t.points[lo:lo + 3])

    def test_infeasible_windows(self, rng):
        t = random_trajectory(rng, 1, 4)  # 5 points
        with pytest.raises(ValidationError,
                           match="cannot place 2 disjoint windows of 3 in 5 points"):
            make_shuffle_set(t, self.spec(2, 3, seed=0))

    def test_multiset_and_change(self, rng):
        t = random_trajectory(rng, 3, 12)
        [out] = make_shuffle_set(t, self.spec(3, 3, seed=2))
        assert point_multiset(out) == point_multiset(t)
        assert not np.array_equal(out.points, t.points)


def plain_orders(n, spec, rng):
    """_shuffle_orders as a plain loop: one numpy call per copy, window and redraw."""
    def nonidentity(k):
        perm = rng.permutation(k)
        while (perm == np.arange(k)).all():
            perm = rng.permutation(k)
        return perm

    orders = []
    for _ in range(spec.copies):
        if spec.kind == "global_block":
            blocks = [np.arange(i, min(i + spec.block_size, n))
                      for i in range(0, n, spec.block_size)]
            orders.append(np.concatenate([blocks[j] for j in nonidentity(len(blocks))]))
            continue
        w, size = spec.num_windows, spec.window_size
        order = np.arange(n)
        starts = np.sort(rng.choice(n - w * size + w, size=w, replace=False))
        for s in starts + np.arange(w) * (size - 1):
            order[s:s + size] = order[s:s + size][nonidentity(size)]
        orders.append(order)
    return np.array(orders)


class TestShuffleOrders:
    # two blocks and windows of 2-4 points draw the identity often, so redraws are frequent
    SPECS = [(n, ShuffleSpec(kind="global_block", block_size=b, copies=20))
             for n, b in [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 2), (9, 1), (21, 1)]]
    SPECS += [(n, ShuffleSpec(kind="local_window", num_windows=w, window_size=size, copies=20))
              for n, w, size in [(2, 1, 2), (3, 1, 3), (4, 1, 4), (4, 2, 2), (6, 2, 3),
                                 (8, 2, 4), (9, 3, 3), (30, 3, 2)]]

    @pytest.mark.parametrize("n,spec", SPECS,
                             ids=[f"{s.kind}-n{n}-b{s.block_size}-w{s.num_windows}x{s.window_size}"
                                  for n, s in SPECS])
    def test_match_plain_loop(self, n, spec):
        for seed in range(25):
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            self.assert_same_draws(n, spec, want_rng, got_rng)

    @staticmethod
    def assert_same_draws(n, spec, want_rng, got_rng):
        want = plain_orders(n, spec, want_rng)
        np.testing.assert_array_equal(ev._shuffle_orders(n, spec, got_rng, "doc"), want)
        if spec.kind == "global_block":
            # the same draws: the stream is left where the plain loop leaves it (local
            # windows draw raws in batches, and leave it past raws never read)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(windows=st.integers(1, 6), size=st.integers(2, 7), spare=st.integers(0, 40),
           copies=st.integers(1, 8), seed=st.integers(0, 2**64 - 1))
    def test_windows_match_plain_loop(self, windows, size, spare, copies, seed):
        n = windows * size + spare
        spec = ShuffleSpec(kind="local_window", num_windows=windows, window_size=size,
                           copies=copies)
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        self.assert_same_draws(n, spec, want_rng, got_rng)

    @pytest.mark.parametrize("n,spec", SPECS,
                             ids=[f"{s.kind}-n{n}-b{s.block_size}-w{s.num_windows}x{s.window_size}"
                                  for n, s in SPECS])
    def test_buffered_half(self, n, spec):
        # a 31-bit draw takes the low half of a raw and keeps its high half
        for seed in range(10):
            want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want_rng.integers(2**31)
            got_rng.integers(2**31)
            assert got_rng.bit_generator.state["has_uint32"] == 1
            self.assert_same_draws(n, spec, want_rng, got_rng)

    # Floyd's sampling, and past 10000 slots and slots // 50 windows choice's
    # shuffle of the last picks; seeds 385 and 299 redraw one Lemire product
    @pytest.mark.parametrize("n,windows,copies,seed", [(10_200, 200, 5, 385), (10_500, 250, 2, 0),
                                                       (20_002, 10_001, 1, 299)])
    def test_windows_over_many_slots(self, n, windows, copies, seed):
        spec = ShuffleSpec(kind="local_window", num_windows=windows, window_size=2,
                           copies=copies)
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        self.assert_same_draws(n, spec, want_rng, got_rng)

    def test_windows_need_pcg64(self):
        spec = ShuffleSpec(kind="local_window", num_windows=1, window_size=3, copies=2)
        with pytest.raises(ValidationError, match="PCG64 stream, not MT19937"):
            ev._shuffle_orders(6, spec, np.random.Generator(np.random.MT19937(0)), "doc")


class TestMakeShuffleSet:
    def test_forced_single_copy(self):
        t = LatentTrajectory("a", "x", [[0.0], [1.0], [2.0], [3.0]])
        spec = ShuffleSpec(kind="global_block", block_size=2, copies=20, seed=3)
        copies = make_shuffle_set(t, spec)
        assert len(copies) == 1

    def test_long_sequence_yields_all_copies(self, rng):
        t = random_trajectory(rng, 2, 40)
        spec = ShuffleSpec(kind="global_block", block_size=1, copies=20, seed=3)
        copies = make_shuffle_set(t, spec)
        assert len(copies) == 20
        keys = {c.points.tobytes() for c in copies}
        assert len(keys) == 20

    def test_never_contains_original(self):
        t = LatentTrajectory("a", "x", np.ones((6, 2)))  # any permutation == original
        spec = ShuffleSpec(kind="global_block", block_size=1, copies=20, seed=3)
        assert make_shuffle_set(t, spec) == []

    @pytest.mark.parametrize("kind", ["global_block", "local_window"])
    def test_distinct_copies_compare_bytes(self, kind):
        # equal blocks and equal neighbours make copies equal to the original or
        # to each other under other orders; -0.0 and 0.0 differ in their bytes
        a, b, c, zero, negzero = [1.0, -2.0], [0.5, 3.0], [2.0, 2.0], [0.0, 1.0], [-0.0, 1.0]
        t = LatentTrajectory("rep", "x", [a, b, a, b, c, zero, c, negzero, a, a])
        for seed in range(20):
            spec = ShuffleSpec(kind=kind, block_size=2, num_windows=2, window_size=2,
                               copies=12, seed=seed)
            rng = np.random.default_rng(stable_seed(seed, "rep"))
            stacked = t.points[ev._shuffle_orders(10, spec, rng, "rep")]
            seen, want = {t.points.tobytes()}, []
            for i, points in enumerate(stacked):
                if points.tobytes() not in seen:
                    seen.add(points.tobytes())
                    want.append(i)
            copies = make_shuffle_set(t, spec)
            tag = "g2" if kind == "global_block" else "l2"
            # each copy's id ends in its copy number
            assert [int(c.id.removeprefix(f"rep#{tag}-")) for c in copies] == want
            assert [c.points.tobytes() for c in copies] == [p.tobytes() for p in stacked[want]]

    def test_deterministic_per_seed(self, rng):
        t = random_trajectory(rng, 2, 15)
        spec = ShuffleSpec(kind="local_window", num_windows=2, window_size=3,
                           copies=20, seed=9)
        first = make_shuffle_set(t, spec)
        second = make_shuffle_set(t, spec)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert np.array_equal(a.points, b.points)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            ShuffleSpec(kind="sideways")
        with pytest.raises(ValidationError):
            ShuffleSpec(kind="local_window", window_size=1)
        with pytest.raises(ValidationError):
            ShuffleSpec(kind="global_block", copies=0)


@pytest.fixture(scope="module")
def sim_setup():
    rng = np.random.default_rng(77)
    d, T = 3, 30
    spatial = SpdMatrix(random_spd(rng, d))
    originals = simulate(spatial, d, T, 20, seed0=400)
    return spatial, originals


def per_copy_accuracy(originals, spec, spatial, per_document, whiten=True):
    """Discrimination as one score per make_shuffle_set copy.

    whiten scores each copy from its own points, whitened relative to the
    original's first point as discrimination whitens them, so statistics equal
    in exact arithmetic tie as they do there; otherwise score_statistics scores
    each copy.
    """
    def incoherence(traj, origin):
        if whiten:
            incr = increments((traj.points - origin) @ spatial.inv_chol.T)
            statistic, dof = np.einsum("nd,nd->", incr, incr), (traj.T - 1) * traj.d
        else:
            (statistic,), (dof,) = score_statistics([traj], spatial)
        return statistic / dof

    credits, doc_means = [], []
    for traj in sorted(originals, key=lambda t: t.id):
        copies = make_shuffle_set(traj, spec)
        base = incoherence(traj, traj.points[0])
        doc = [1.0 if base < x else 0.5 if base == x else 0.0
               for x in (incoherence(c, traj.points[0]) for c in copies)]
        credits.extend(doc)
        if doc:
            doc_means.append(float(np.mean(doc)))
    return float(np.mean(doc_means)) if per_document else float(np.mean(credits))


def recorded_einsums(monkeypatch) -> list:
    """The list to which each einsum evalsuite calls, a block of statistics, appends its result."""
    seen = []

    class Spy:
        """numpy, save that each einsum's result is recorded."""

        def __getattr__(self, name):
            return getattr(np, name)

        def einsum(self, *args):
            seen.append(np.einsum(*args))
            return seen[-1]

    monkeypatch.setattr(ev, "np", Spy())
    return seen


class TestDiscrimination:
    @pytest.mark.parametrize("kind", ["global_block", "local_window"])
    @pytest.mark.parametrize("per_document", [False, True])
    def test_batched_matches_per_copy_path(self, kind, per_document):
        rng = np.random.default_rng(2024)
        for trial in range(3):
            d = int(rng.integers(1, 5))
            spatial = SpdMatrix(random_spd(rng, d))
            originals = [random_trajectory(rng, d, int(T), traj_id=f"r{trial}-{i}")
                         for i, T in enumerate(rng.integers(5, 25, size=6))]
            a, b = rng.standard_normal((2, d))
            originals.append(LatentTrajectory(f"r{trial}-rep", "x", [a, b, a, b, a, b, b]))
            spec = ShuffleSpec(kind=kind, block_size=2, num_windows=2, window_size=3,
                               copies=12, seed=trial)
            rep_copies = make_shuffle_set(originals[-1], spec)
            assert 0 < len(rep_copies) < spec.copies  # repeated points: dedupe fires
            batched = discrimination_accuracies(originals, [spec], spatial,
                                                per_document=per_document)[0]
            assert batched == per_copy_accuracy(originals, spec, spatial, per_document)
            # no repeated points, no copy tied with its original: bbscore orders them alike
            distinct = originals[:-1]
            batched = discrimination_accuracies(distinct, [spec], spatial,
                                                per_document=per_document)[0]
            assert batched == per_copy_accuracy(distinct, spec, spatial, per_document,
                                                whiten=False)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_statistics_match_the_dense_oracle(self, monkeypatch, rng, offset):
        # whitened relative to the first point, a large shared offset costs no precision
        d = 8
        sigma = random_spd(rng, d)
        shifted = [random_trajectory(rng, d, T, traj_id=f"o{T:02d}") for T in (3, 11, 20)]
        shifted = [LatentTrajectory(t.id, t.domain, t.points + offset) for t in shifted]
        # the same points without the offset, exactly: the subtraction rounds nothing
        docs = [LatentTrajectory(t.id, t.domain, t.points - offset) for t in shifted]
        spec = ShuffleSpec(kind="global_block", block_size=2, copies=5, seed=3)
        seen = recorded_einsums(monkeypatch)
        discrimination_accuracies(shifted, [spec], SpdMatrix(sigma))
        # in id order, one einsum scores each original and one its copies
        assert len(seen) == 2 * len(docs)
        dense = [dense_quad_form(c, sigma)
                 for doc in docs for c in [doc, *make_shuffle_set(doc, spec)]]
        np.testing.assert_allclose(np.concatenate(seen), dense, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["global_block", "local_window"])
    def test_statistics_equal_einsum_of_increments(self, monkeypatch, rng, kind):
        # bit for bit, though each spec's copies are scored as a block of their own; each
        # document, repeated points, T = 2 and a large offset among them, takes the specs
        # it has room for
        d = 3
        spatial = SpdMatrix(random_spd(rng, d))
        specs = [ShuffleSpec(kind=kind, block_size=b, num_windows=w, window_size=size,
                             copies=9, seed=seed)
                 for b, w, size, seed in ((2, 2, 3, 3), (1, 1, 2, 8), (1, 1, 3, 3))]
        a, b = rng.standard_normal((2, d))
        docs = [random_trajectory(rng, d, 14, traj_id="plain"),
                LatentTrajectory("rep", "x", [a, b, a, b, a, b, b]),
                random_trajectory(rng, d, 2, traj_id="short"),
                LatentTrajectory("offset", "x", random_trajectory(rng, d, 9).points + 1e6)]
        seen = recorded_einsums(monkeypatch)
        for doc in docs:
            fits = []
            for spec in specs:
                try:
                    ev._check_shuffle(doc.T + 1, spec, doc.id)
                except ValidationError:
                    continue
                fits.append(spec)
            seen.clear()
            ev._credits([doc], fits, spatial)
            white = spatial.whiten(doc.points - doc.points[0])
            classes = ev._classes(doc.points)
            kept = [ev._copy_orders(doc, spec, classes)[1] for spec in fits]
            incr = increments(white[np.concatenate([np.arange(doc.T + 1)[None], *kept])])
            want = np.einsum("knd,knd->k", incr, incr)
            assert len(want) > 1, doc.id
            np.testing.assert_array_equal(np.concatenate(seen).view(np.int64),
                                          want.view(np.int64))

    def test_dimension_mismatch_names_the_document(self, sim_setup):
        spatial, originals = sim_setup
        wide = LatentTrajectory("wide", "x", np.arange(24.0).reshape(6, 4))
        spec = ShuffleSpec(kind="global_block", block_size=1, copies=3, seed=0)
        with pytest.raises(DimensionMismatchError, match="trajectory 'wide' has d=4"):
            discrimination_accuracies([*originals, wide], [spec], spatial)

    def test_tie_rule_via_injection(self, monkeypatch, sim_setup):
        spatial, originals = sim_setup

        # a "copy" equal to the original ties with it
        monkeypatch.setattr(ev, "_copy_orders",
                            lambda traj, spec, classes: ([0], np.arange(traj.T + 1)[None]))
        spec = ShuffleSpec(kind="global_block", block_size=1, copies=5, seed=0)
        assert ev.discrimination_accuracies(originals, [spec], spatial)[0] == 0.5

    def test_true_sigma_detects_block_shuffles(self, sim_setup):
        spatial, originals = sim_setup
        spec = ShuffleSpec(kind="global_block", block_size=1, copies=10, seed=5)
        assert discrimination_accuracies(originals, [spec], spatial)[0] > 0.9

    def test_identity_sigma_still_beats_chance(self, sim_setup):
        _, originals = sim_setup
        spec = ShuffleSpec(kind="global_block", block_size=1, copies=10, seed=5)
        acc = discrimination_accuracies(originals, [spec], SpdMatrix(np.eye(3)))[0]
        assert acc > 0.5

    def test_local_windows_detectable(self, sim_setup):
        spatial, originals = sim_setup
        spec = ShuffleSpec(kind="local_window", num_windows=2, window_size=3,
                           copies=10, seed=5)
        assert discrimination_accuracies(originals, [spec], spatial)[0] > 0.65

    def test_corpus_order_invariant(self, sim_setup):
        spatial, originals = sim_setup
        spec = ShuffleSpec(kind="global_block", block_size=2, copies=5, seed=5)
        a = discrimination_accuracies(originals, [spec], spatial)[0]
        b = discrimination_accuracies(originals[::-1], [spec], spatial)[0]
        assert a == b

    def test_rescaling_with_refit_invariant(self, sim_setup):
        spatial, originals = sim_setup
        reference = simulate(spatial, 3, 30, 30, seed0=9000)
        fitted = mle_sigma(reference)
        spec = ShuffleSpec(kind="global_block", block_size=2, copies=5, seed=5)
        base = discrimination_accuracies(originals, [spec], fitted)[0]
        scaled = [LatentTrajectory(t.id, t.domain, 3.0 * t.points) for t in originals]
        refit = mle_sigma([LatentTrajectory(t.id, t.domain, 3.0 * t.points)
                           for t in reference])
        assert discrimination_accuracies(scaled, [spec], refit)[0] == base

    @pytest.mark.parametrize("kind", ["global_block", "local_window"])
    @pytest.mark.parametrize("per_document", [False, True])
    def test_specs_scored_together_match_one_call_each(self, sim_setup, kind, per_document):
        spatial, originals = sim_setup
        specs = [ShuffleSpec(kind=kind, block_size=b, num_windows=b, copies=6, seed=3)
                 for b in (1, 2, 3)]
        together = discrimination_accuracies(originals, specs, spatial, per_document=per_document)
        assert together == [discrimination_accuracies(originals, [spec], spatial,
                                                      per_document=per_document)[0]
                            for spec in specs]

    def test_per_document_flag(self, sim_setup):
        spatial, originals = sim_setup
        spec = ShuffleSpec(kind="global_block", block_size=2, copies=5, seed=5)
        pooled = discrimination_accuracies(originals, [spec], spatial)[0]
        per_doc = discrimination_accuracies(originals, [spec], spatial, per_document=True)[0]
        assert 0.0 <= per_doc <= 1.0 and 0.0 <= pooled <= 1.0

    def test_empty_corpus(self, sim_setup):
        spatial, _ = sim_setup
        spec = ShuffleSpec(kind="global_block", block_size=1, copies=5, seed=0)
        with pytest.raises(EmptySetError):
            discrimination_accuracies([], [spec], spatial)


class TestRelativeAccuracy:
    def test_reduces_to_pairwise_discrimination(self, sim_setup):
        spatial, originals = sim_setup
        set_a = originals[:6]
        set_b = []
        for t in set_a:
            spec = ShuffleSpec(kind="global_block", block_size=1, copies=3, seed=5)
            set_b.extend(make_shuffle_set(t, spec))
        acc = relative_accuracy(set_a, set_b, np.ones(len(set_a)), np.zeros(len(set_b)), spatial)
        wins = sum(1 for sa in bbscores(set_a, spatial) for sb in bbscores(set_b, spatial)
                   if sa < sb)
        assert acc == pytest.approx(wins / (len(set_a) * len(set_b)))

    def test_self_generated_truth_scores_one(self, sim_setup):
        spatial, originals = sim_setup
        set_a, set_b = originals[:5], originals[5:10]
        # the truth ranks more coherent documents, of lower bbscore, higher
        rank_a, rank_b = (-bbscores(s, spatial) for s in (set_a, set_b))
        assert relative_accuracy(set_a, set_b, rank_a, rank_b, spatial) == 1.0

    def test_complement_under_reversed_truth(self, sim_setup):
        spatial, originals = sim_setup
        set_a, set_b = originals[:5], originals[5:10]
        forward = relative_accuracy(set_a, set_b, [1] * 5, [0] * 5, spatial)
        backward = relative_accuracy(set_a, set_b, [0] * 5, [1] * 5, spatial)
        assert forward + backward == pytest.approx(1.0)

    def test_heavily_shuffled_set_loses(self, sim_setup):
        spatial, originals = sim_setup
        set_a = originals[:10]
        set_b = []
        for t in originals[10:20]:
            spec = ShuffleSpec(kind="global_block", block_size=1, copies=3, seed=21)
            set_b.extend(make_shuffle_set(t, spec))
        assert relative_accuracy(set_a, set_b, np.ones(len(set_a)), np.zeros(len(set_b)),
                                 spatial) > 0.85

    def test_empty_sets(self, sim_setup):
        spatial, originals = sim_setup
        with pytest.raises(EmptySetError):
            relative_accuracy([], originals, [], np.zeros(len(originals)), spatial)


def scored_corpus_by_class(spatial, d, T, counts, seed0, scales):
    """Simulated documents of ranks 0, 1, 2, the ranks separated by residual scale.

    Returns the documents and their integer ranks, in corpus order.
    """
    trajs, ranks = [], []
    for rank, (count, scale) in enumerate(zip(counts, scales)):
        for _ in range(count):
            base = sample_bridge(d, T, spatial, np.zeros(d), np.zeros(d),
                                 seed=seed0 + len(trajs), id=f"c-{len(trajs):04d}")
            trajs.append(LatentTrajectory(base.id, base.domain, base.points * scale))
            ranks.append(rank)
    return trajs, np.array(ranks)


class TestThresholdClassify:
    def test_separable_classes_perfect_rho(self, sim_setup):
        spatial, _ = sim_setup
        # scales 4 > 2 > 1 make rank-0 (least coherent) docs score far above rank 2
        trajs, ranks = scored_corpus_by_class(spatial, 3, 30, (15, 15, 15), 3000,
                                              scales=(4.0, 2.0, 1.0))
        predicted, rho = threshold_classify(trajs[::2], ranks[::2], trajs[1::2], ranks[1::2],
                                            spatial)
        assert rho == pytest.approx(1.0)
        assert predicted.dtype.kind == "i"
        np.testing.assert_array_equal(predicted, ranks[1::2])

    def test_independent_labels_near_zero_rho(self):
        rng = np.random.default_rng(8)
        spatial = SpdMatrix(random_spd(rng, 2))
        rhos = []
        for trial in range(3):
            trajs = simulate(spatial, 2, 20, 200, seed0=6000 + 500 * trial)
            ranks = rng.choice(3, size=200)
            _, rho = threshold_classify(trajs[:100], ranks[:100], trajs[100:], ranks[100:],
                                        spatial)
            rhos.append(abs(rho))
        assert float(np.median(rhos)) < 0.15

    def test_two_class_threshold_matches_sweep_oracle(self, sim_setup):
        spatial, _ = sim_setup
        # ranks 0 and 2: rank 1 is absent, as a label no record carries
        trajs, ranks = scored_corpus_by_class(spatial, 3, 30, (12, 0, 12), 4000,
                                              scales=(3.0, 1.0, 1.0))
        predicted, _ = threshold_classify(trajs, ranks, trajs, ranks, spatial)
        xs = bbscores(trajs, spatial)
        # exhaustive sweep over all candidate cuts
        best = -1
        for cut in np.concatenate([[xs.min() - 1], np.unique(xs), [xs.max() + 1]]):
            hits = int(np.sum((xs >= cut) & (ranks == 0)) + np.sum((xs < cut) & (ranks == 2)))
            best = max(best, hits)
        assert set(predicted.tolist()) <= {0, 2}
        assert int(np.sum(predicted == ranks)) == best

    def test_predictions_monotone_in_score(self, sim_setup):
        spatial, _ = sim_setup
        trajs, ranks = scored_corpus_by_class(spatial, 3, 30, (10, 10, 10), 5000,
                                              scales=(3.0, 1.7, 1.0))
        predicted, _ = threshold_classify(trajs, ranks, trajs, ranks, spatial)
        scored = sorted(zip(bbscores(trajs, spatial).tolist(), predicted.tolist()))
        ranks = [r for _, r in scored]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_score_at_a_threshold_is_less_coherent(self, monkeypatch):
        # scores stand in for the documents: the training threshold is exactly 2.5, and a
        # test score of 2.5 is on the side of x >= threshold
        monkeypatch.setattr(ev, "_corpus_incoherence",
                            lambda trajs, spatial, use_pvalue: np.asarray(trajs, dtype=float))
        predicted, _ = threshold_classify([3.0, 4.0, 1.0, 2.0], [0, 0, 1, 1],
                                          [2.5, 2.0, 3.0], [0, 1, 0], None, use_pvalue=False)
        np.testing.assert_array_equal(predicted, [0, 1, 0])

    def test_degenerate_labels(self, sim_setup):
        spatial, originals = sim_setup
        ranks = np.zeros(4, dtype=int)
        with pytest.raises(ValidationError, match=r"training corpus has one label; need >= 2"):
            threshold_classify(originals[:4], ranks, originals[:4], ranks, spatial)

    def test_ranks_must_match_the_corpora(self, sim_setup):
        spatial, originals = sim_setup
        docs, ranks = originals[:4], np.array([0, 1, 0, 1])
        for bad in ([ranks[:3], ranks], [ranks, ranks[:3]], [ranks[:, None], ranks]):
            with pytest.raises(ValidationError, match="one rank per document of each set"):
                threshold_classify(docs, bad[0], docs, bad[1], spatial)
        for bad in (ranks - 1, ranks + 0.5, ranks.astype(bool)):
            with pytest.raises(ValidationError, match="integer ranks >= 0"):
                threshold_classify(docs, ranks, docs, bad, spatial)


class TestCorpusOrder:
    @pytest.mark.parametrize("use_pvalue", [False, True])
    def test_permuting_documents_with_their_ranks(self, sim_setup, use_pvalue):
        spatial, _ = sim_setup
        trajs, ranks = scored_corpus_by_class(spatial, 3, 30, (8, 8, 8), 6000,
                                              scales=(3.0, 1.7, 1.0))
        train, train_ranks, test, test_ranks = trajs[::2], ranks[::2], trajs[1::2], ranks[1::2]
        predicted, rho = threshold_classify(train, train_ranks, test, test_ranks, spatial,
                                            use_pvalue=use_pvalue)
        acc = relative_accuracy(train, test, train_ranks, test_ranks, spatial,
                                use_pvalue=use_pvalue)
        rng = np.random.default_rng(12)
        for _ in range(3):
            p, q = rng.permutation(len(train)), rng.permutation(len(test))
            train_p, test_q = [train[i] for i in p], [test[i] for i in q]
            got, got_rho = threshold_classify(train_p, train_ranks[p], test_q, test_ranks[q],
                                              spatial, use_pvalue=use_pvalue)
            np.testing.assert_array_equal(got, predicted[q])
            # the correlation's sums run in the new order, so only rounding may differ
            assert got_rho == pytest.approx(rho, rel=1e-12)
            assert relative_accuracy(train_p, test_q, train_ranks[p], test_ranks[q], spatial,
                                     use_pvalue=use_pvalue) == acc


class TestDomainSwap:
    def test_model_of_another_dimension_names_a_document(self, sim_setup):
        spatial, originals = sim_setup
        with pytest.raises(DimensionMismatchError,
                           match="trajectory 'doc-000' has d=3, spatial covariance has dim 2"):
            domain_swap_compare(originals[:4], originals[4:8], spatial, SpdMatrix(np.eye(2)))

    def test_same_corpus_exactly_half(self, sim_setup):
        spatial, originals = sim_setup
        result = domain_swap_compare(originals, originals, spatial, spatial)
        assert result["sigma_a"] == 0.5
        assert result["sigma_b"] == 0.5

    def test_swap_flips_favored_corpus(self):
        rng = np.random.default_rng(10)
        d, T, n = 3, 40, 40
        sig_a = random_spd(rng, d)
        # equal-determinant rotation so the difference is shape, not scale
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        sig_b = q @ sig_a @ q.T
        spatial_a = SpdMatrix(sig_a)
        spatial_b = SpdMatrix(0.5 * (sig_b + sig_b.T))
        corpus_a = simulate(spatial_a, d, T, n, seed0=100, prefix="a")
        corpus_b = simulate(spatial_b, d, T, n, seed0=900, prefix="b")
        fit_a = mle_sigma(simulate(spatial_a, d, T, 60, seed0=5000, prefix="ha"))
        fit_b = mle_sigma(simulate(spatial_b, d, T, 60, seed0=7000, prefix="hb"))
        result = domain_swap_compare(corpus_a, corpus_b, fit_a, fit_b)
        assert result["sigma_a"] > 0.6
        assert result["sigma_b"] < 0.4

    def test_reference_model_included(self, sim_setup):
        spatial, originals = sim_setup
        result = domain_swap_compare(originals[:5], originals[5:10], spatial, spatial,
                                     sigma_ref=SpdMatrix(np.eye(3)))
        assert set(result) == {"sigma_a", "sigma_b", "sigma_ref"}

    def test_matched_pairing_requires_aligned_ids(self, sim_setup):
        spatial, originals = sim_setup
        with pytest.raises(ValidationError):
            domain_swap_compare(originals[:4], originals[4:8], spatial, spatial,
                                pairing="matched")
        renamed = [LatentTrajectory(t.id, "b", t.points + 1.0) for t in originals[:4]]
        result = domain_swap_compare(originals[:4], renamed, spatial, spatial,
                                     pairing="matched")
        assert 0.0 <= result["sigma_a"] <= 1.0


def tied_corpus(rng, pool, n, prefix):
    """n documents drawn from a small pool of point arrays, so many scores tie exactly."""
    picks = rng.integers(len(pool), size=n)
    return [LatentTrajectory(f"{prefix}-{i:05d}", "x", pool[k]) for i, k in enumerate(picks)]


def loop_relative(scores_a, scores_b, rank_a, rank_b):
    """relative_accuracy's count, one pair at a time."""
    concordant = counted = 0
    for sa, ra in zip(scores_a, rank_a):
        for sb, rb in zip(scores_b, rank_b):
            if ra != rb:
                counted += 1
                concordant += (ra > rb and sa < sb) or (ra < rb and sa > sb)
    return concordant / counted


def loop_credit(pairs):
    """domain_swap_compare's fraction, one pair at a time."""
    return sum(1.0 if sa < sb else 0.5 if sa == sb else 0.0 for sa, sb in pairs) / len(pairs)


def loop_boundary(values_low, values_high):
    """_best_boundary, one candidate at a time: the first with the most hits."""
    both = np.concatenate([values_low, values_high])
    candidates = np.unique(both)
    midpoints = (candidates[:-1] + candidates[1:]) / 2.0
    candidates = np.concatenate([[both.min() - 1.0], midpoints, [both.max() + 1.0]])
    best_t, best_hits = candidates[0], -1
    for t in candidates:
        hits = int(np.sum(values_low >= t)) + int(np.sum(values_high < t))
        if hits > best_hits:
            best_hits, best_t = hits, float(t)
    return best_t


class TestPairCountsMatchLoops:
    """The sorted counts equal plain double loops exactly, on inputs with heavy ties."""

    @pytest.fixture
    def tied_sets(self, sim_setup):
        spatial, originals = sim_setup
        rng = np.random.default_rng(31)
        pool = [t.points for t in originals[:6]]
        set_a, set_b = tied_corpus(rng, pool, 150, "a"), tied_corpus(rng, pool, 120, "b")
        return spatial, set_a, set_b, rng

    @pytest.mark.parametrize("use_pvalue", [False, True])
    @pytest.mark.parametrize("ranks", ["three-labels", "real", "b-constant"])
    def test_relative_accuracy(self, tied_sets, ranks, use_pvalue):
        spatial, set_a, set_b, rng = tied_sets
        if ranks == "three-labels":
            rank_a, rank_b = rng.integers(3, size=len(set_a)), rng.integers(3, size=len(set_b))
        elif ranks == "real":
            values = np.array([-0.5, 0.25, 0.3, 2.0])
            rank_a, rank_b = rng.choice(values, len(set_a)), rng.choice(values, len(set_b))
        else:
            rank_a, rank_b = rng.integers(3, size=len(set_a)), np.ones(len(set_b), dtype=int)
        scores_a, scores_b = (ev._corpus_incoherence(s, spatial, use_pvalue).tolist()
                              for s in (set_a, set_b))
        assert len(set(scores_a)) < 10  # heavy ties
        expected = loop_relative(scores_a, scores_b, rank_a.tolist(), rank_b.tolist())
        got = relative_accuracy(set_a, set_b, rank_a, rank_b, spatial, use_pvalue=use_pvalue)
        assert got == expected

    def test_domain_swap_cross(self, tied_sets):
        spatial, set_a, set_b, _ = tied_sets
        other = SpdMatrix(2.0 * spatial.entries)
        got = domain_swap_compare(set_a, set_b, spatial, other)
        for tag, model in (("sigma_a", spatial), ("sigma_b", other)):
            scores_a, scores_b = (ev._corpus_incoherence(s, model, False).tolist()
                                  for s in (set_a, set_b))
            assert got[tag] == loop_credit([(sa, sb) for sa in scores_a for sb in scores_b])

    def test_domain_swap_matched(self, tied_sets):
        spatial, set_a, _, rng = tied_sets
        pool = [t.points for t in set_a[:6]]
        set_b = [LatentTrajectory(t.id, "y", pool[k])
                 for t, k in zip(set_a, rng.integers(len(pool), size=len(set_a)))]
        set_b = set_b[::-1]  # pairing is by id, not by position
        got = domain_swap_compare(set_a, set_b, spatial, spatial, pairing="matched")
        scores_a = dict(zip([t.id for t in set_a],
                            ev._corpus_incoherence(set_a, spatial, False).tolist()))
        scores_b = dict(zip([t.id for t in set_b],
                            ev._corpus_incoherence(set_b, spatial, False).tolist()))
        expected = loop_credit([(scores_a[i], scores_b[i]) for i in sorted(scores_a)])
        assert got["sigma_a"] == got["sigma_b"] == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_best_boundary(self, seed):
        rng = np.random.default_rng(seed)
        low = rng.integers(0, 8, size=rng.integers(1, 60)) / 4.0
        high = rng.integers(0, 6, size=rng.integers(1, 60)) / 4.0
        assert ev._best_boundary(low, high) == loop_boundary(low, high)
        assert ev._best_boundary(high, low) == loop_boundary(high, low)

    def test_pairs_below(self):
        rng = np.random.default_rng(3)
        x, y = rng.integers(0, 5, size=40) / 2.0, rng.integers(0, 5, size=30) / 2.0
        assert ev._pairs_below(x, y) == sum(1 for a in x for b in y if a < b)
        assert ev._pairs_below(x[:0], y) == ev._pairs_below(x, y[:0]) == 0


def test_pair_counts_stay_small_at_2000_by_2000(sim_setup):
    """Neither relative_accuracy nor cross domain_swap_compare holds the 4M pairs in memory."""
    spatial, originals = sim_setup
    rng = np.random.default_rng(5)
    pool = [t.points for t in originals[:20]]
    set_a, set_b = tied_corpus(rng, pool, 2000, "a"), tied_corpus(rng, pool, 2000, "b")
    rank_a, rank_b = rng.integers(3, size=2000), rng.integers(3, size=2000)
    tracemalloc.start()
    try:
        relative_accuracy(set_a, set_b, rank_a, rank_b, spatial)
        domain_swap_compare(set_a, set_b, spatial, spatial)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
