"""Coherence evaluation harness: shuffles, discrimination, classification.

Shuffles permute latent vectors directly (one vector per sentence), so the
same machinery runs on simulated and ingested embedding trajectories alike.
All randomized operations are deterministic given their seed; per-document
randomness derives from a stable hash of the document id, so results never
depend on corpus order. Discrimination takes each document once for every
shuffle size of one call: its classes of byte-equal points are found and
its points whitened once, and it and its distinct copies are scored from
those by sums of squares, one block of copies per size, in this process.
A copy has its original's dof, so the two are compared by statistic.
Local windows are drawn by reading PCG64's 32-bit stream in Python, as
numpy's choice and permutation would draw them, at a fraction of the cost
of a numpy call per window.
Relative accuracy, domain comparison and classification thresholds count
pairs exactly by sorting and sorted search, never one pair at a time;
ordinal labels reach relative accuracy and classification as one integer
coherence rank per document, in corpus order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .bridge import LatentTrajectory, check_dim, increments, score_statistics, stable_seed
from .errors import (
    DegenerateInputError,
    EmptySetError,
    NumericalError,
    ValidationError,
)
from .numerics import SpdMatrix, chi_square_sf, spearman_rho


@dataclass(frozen=True)
class ShuffleSpec:
    """Parameters of a shuffle perturbation task.

    kind "global_block": permute consecutive blocks of block_size points.
    kind "local_window": permute points inside num_windows disjoint windows
    of window_size consecutive points each. seed is a base: each document's
    shuffles are drawn from stable_seed(seed, its id).
    """

    kind: str
    block_size: int = 1
    num_windows: int = 1
    window_size: int = 3
    copies: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("global_block", "local_window"):
            raise ValidationError(f"unknown shuffle kind {self.kind!r}")
        if self.kind == "global_block" and self.block_size < 1:
            raise ValidationError(f"block_size must be >= 1, got {self.block_size}")
        if self.kind == "local_window":
            if self.window_size < 2:
                raise ValidationError(f"window_size must be >= 2, got {self.window_size}")
            if self.num_windows < 1:
                raise ValidationError(f"num_windows must be >= 1, got {self.num_windows}")
        if self.copies < 1:
            raise ValidationError(f"copies must be >= 1, got {self.copies}")


def _check_shuffle(n: int, spec: ShuffleSpec, name: str) -> None:
    """Raise when spec cannot shuffle n points: under two blocks, or no room for the windows."""
    if spec.kind == "global_block":
        if n < 2 * spec.block_size:
            raise ValidationError(
                f"trajectory {name!r}: {n} points cannot form two blocks of {spec.block_size}"
            )
    elif n - spec.num_windows * (spec.window_size - 1) < spec.num_windows:
        raise ValidationError(
            f"trajectory {name!r}: cannot place {spec.num_windows} disjoint windows of "
            f"{spec.window_size} in {n} points"
        )


def _shuffle_orders(n: int, spec: ShuffleSpec, rng: np.random.Generator, name: str) -> np.ndarray:
    """spec.copies shuffled orders of the indices 0..n-1, shape (copies, n).

    Global blocks: a uniform non-identity permutation of the consecutive
    blocks of block_size indices (final short block kept), needing n >=
    2 * block_size. Local windows: num_windows disjoint windows of
    window_size consecutive indices, placed uniformly over all disjoint
    placements, each permuted by a uniform non-identity permutation. name
    labels the errors.

    Either kind draws what one numpy call per copy and window draws: per
    copy, global blocks draw rng.permutation(blocks), again while it is the
    identity; local windows draw sorted(rng.choice(slots, num_windows,
    replace=False)), then per window rng.permutation(window_size), again
    while it is the identity. Global blocks leave rng where those calls
    leave it; local windows leave it past raws drawn but never read
    (_window_orders), so its later draws are not numpy's.
    """
    _check_shuffle(n, spec, name)
    if spec.kind == "local_window":
        return _window_orders(n, spec, rng)
    # a permutation is drawn again while it is the identity: permuted rows
    # take the stream of one permutation call each, so a batch of the
    # copies still needed draws what a call per copy would
    size = spec.block_size
    identity = np.arange(-(-n // size))
    perms = np.empty((0, identity.size), dtype=identity.dtype)
    while len(perms) < spec.copies:
        drawn = rng.permuted(np.tile(identity, (spec.copies - len(perms), 1)), axis=1)
        perms = np.concatenate([perms, drawn[(drawn != identity).any(axis=1)]])
    # new block p holds block perms[:, p]'s indices; those past n-1 pad the final short block
    orders = perms[:, :, None] * size + np.arange(size)
    return orders[orders < n].reshape(spec.copies, n)


_LOW = 0xFFFFFFFF


def _window_orders(n: int, spec: ShuffleSpec, rng: np.random.Generator) -> np.ndarray:
    """_shuffle_orders of local windows, read from rng's 32-bit stream in Python.

    A numpy call costs far more than its few draws, so they are reproduced on
    PCG64's 32-bit halves (random_raw, low half first, as next_uint32 hands
    them out), for slots = n - num_windows * (window_size - 1) < 2**32:
    - choice(slots, w, replace=False): Floyd's sampling, one Lemire bounded
      draw on 0..j per j in slots-w..slots-1 (a j of 0 draws nothing), then
      the Lemire shuffle of the w picks; past 10000 slots and over slots // 50
      picks, the Lemire shuffle of the last w of 0..slots-1 instead;
    - permutation(size): shuffle's Fisher-Yates, one masked-rejection draw
      on 0..i per i in size-1..1.
    Raws are drawn in batches, so rng ends past raws never read, not where
    numpy's calls leave it.
    """
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise ValidationError(f"local windows draw from a PCG64 stream, not {type(bits).__name__}")
    state = bits.state
    w, size, copies = spec.num_windows, spec.window_size, spec.copies

    def refills():
        k = copies * w * size + 8  # for windows of 3, more than a call reads on average
        while True:  # each raw's low half, then its high half
            yield bits.random_raw(k).astype("<u8").view("<u4").tolist()

    # a half that numpy buffered is read first
    half = chain([state["uinteger"]] if state["has_uint32"] else [],
                 chain.from_iterable(refills())).__next__

    def bounded(b):
        # Lemire: a product whose low half is under 2**32 mod (b + 1) is drawn again
        r = b + 1
        low = (1 << 32) % r
        m = half() * r
        while m & _LOW < low:
            m = half() * r
        return m >> 32

    slots = n - w * size + w
    tail = slots > 10000 and w > slots // 50
    masks = [(i, (1 << i.bit_length()) - 1) for i in range(size - 1, 0, -1)]
    identity = list(range(size))
    starts, perms = [], []
    for _ in range(copies):
        if tail:
            swapped = {}
            for i in range(slots - 1, max(slots - w, 1) - 1, -1):
                j = bounded(i)
                swapped[i], swapped[j] = swapped.get(j, j), swapped.get(i, i)
            picks = [swapped.get(i, i) for i in range(slots - w, slots)]
        else:
            picks = set()
            for j in range(slots - w, slots):
                v = bounded(j) if j else 0
                picks.add(j if v in picks else v)
            for i in range(w - 1, 0, -1):
                bounded(i)  # shuffles the picks, which are sorted anyway
        for k, s in enumerate(sorted(picks)):
            # the windows before this one each took size - 1 more points
            starts.append(s + k * (size - 1))
            perm = identity
            while perm == identity:
                perm = identity[:]
                for i, mask in masks:
                    j = half() & mask
                    while j > i:
                        j = half() & mask
                    perm[i], perm[j] = perm[j], perm[i]
            perms.append(perm)
    starts = np.array(starts)
    orders = np.tile(np.arange(n), copies)
    at = (starts + np.repeat(np.arange(0, copies * n, n), w))[:, None] + np.arange(size)
    orders[at] = starts[:, None] + np.array(perms)
    return orders.reshape(copies, n)


def _classes(points) -> np.ndarray:
    """Each point's class of byte-equal points, as an index into the distinct points."""
    points = np.ascontiguousarray(points)
    return np.unique(points.view(np.dtype((np.void, points[0].nbytes)))[:, 0],
                     return_inverse=True)[1]


def _copy_orders(traj, spec: ShuffleSpec, classes) -> tuple[list[int], np.ndarray]:
    """The numbers and orders of traj's distinct shuffled copies under spec, seeded by traj.id.

    A copy equal to the original or to an earlier copy is left out. Two copies
    are equal exactly when they pick byte-equal points at every position, so
    they are compared as orders over classes, _classes(traj.points).
    """
    rng = np.random.default_rng(stable_seed(spec.seed, traj.id))
    orders = _shuffle_orders(traj.T + 1, spec, rng, traj.id)
    seen, kept = {classes.tobytes()}, []
    for i, key in enumerate(classes[orders]):
        key = key.tobytes()
        if key not in seen:
            seen.add(key)
            kept.append(i)
    return kept, orders[kept]


def make_shuffle_set(traj: LatentTrajectory, spec: ShuffleSpec) -> list[LatentTrajectory]:
    """Up to spec.copies distinct shuffled copies; never contains the original.

    A copy equal, point for point, to the original or to an earlier copy is
    dropped, so short sequences can yield fewer copies than requested. Each
    kept copy's id ends in its copy number. Copies are drawn as discrimination
    draws them (_copy_orders).
    """
    kept, orders = _copy_orders(traj, spec, _classes(traj.points))
    tag = f"g{spec.block_size}" if spec.kind == "global_block" else f"l{spec.num_windows}"
    return [LatentTrajectory(id=f"{traj.id}#{tag}-{i}", domain=traj.domain, points=points)
            for i, points in zip(kept, traj.points[orders])]


def _corpus_incoherence(trajs, spatial: SpdMatrix, use_pvalue: bool) -> np.ndarray:
    # Orient so that larger always means less coherent.
    statistic, dof = score_statistics(trajs, spatial)
    return -chi_square_sf(statistic, dof) if use_pvalue else statistic / dof


def discrimination_accuracies(originals, specs, spatial: SpdMatrix,
                              per_document: bool = False) -> list[float]:
    """Original-vs-shuffled discrimination accuracy under each of specs, in order.

    Every (original, shuffled copy) pair scores 1 when the original comes out
    strictly more coherent (lower bbscore), 0.5 on ties, else 0. A copy has
    its original's dof, so the pair is decided by their statistics: dividing
    both by the dof, or ranking by p-value, keeps their order and could only
    add ties where the quotients or p-values round together.
    Pooled over all pairs by default; per_document averages per-document
    accuracies instead. Shuffle seeds are derived per document from each
    spec's seed and the document id. Each document and its distinct copies
    under every spec are scored together, in id order. Each original's d and
    every spec are checked first.
    """
    originals = sorted(originals, key=lambda t: t.id)
    if not originals:
        raise EmptySetError("discrimination needs a nonempty corpus")
    for traj in originals:
        check_dim(traj, spatial)
    for spec in specs:
        for traj in originals:
            _check_shuffle(traj.T + 1, spec, traj.id)
    accuracies = []
    for spec_credits in _credits(originals, specs, spatial):
        if not spec_credits:
            raise EmptySetError("no shuffled copies were produced")
        if per_document:
            accuracies.append(float(np.mean([float(np.mean(c)) for c in spec_credits])))
        else:
            accuracies.append(float(np.mean(np.concatenate(spec_credits))))
    return accuracies


def _credits(originals, specs, spatial: SpdMatrix) -> list:
    """Per spec, the credit array of each original with a distinct shuffled copy, in order.

    Each original is taken once: its classes of byte-equal points found, each
    spec's orders drawn and deduplicated, and its points whitened once, Y =
    (points - points[0]) L^-T for Sigma = L L^T. Increments are linear and
    ignore a shift, so the sums of squares of increments(Y[orders]) score it
    and every copy: one increments call for it, and one for each spec's
    copies, whose temporaries stay small enough for the cache. A copy's
    statistic is compared with its original's as it is, since the two share
    one dof; statistics equal in exact arithmetic tie as rounding has them.
    Raises NumericalError naming the first original whose statistic, or a
    copy's, overflows float64.
    """
    out = [[] for _ in specs]
    with np.errstate(over="ignore", invalid="ignore"):  # checked per original, on its statistics
        for traj in originals:
            classes = _classes(traj.points)
            kept = [_copy_orders(traj, spec, classes)[1] for spec in specs]
            counts = [len(k) for k in kept]
            if not any(counts):
                continue
            # shifted first: whitening raw points that share a large offset loses precision
            white = spatial.whiten(traj.points - traj.points[0])
            stacks = chain([white[None]],
                           (white.take(orders, axis=0) for orders in kept if len(orders)))
            statistic = np.concatenate([np.einsum("knd,knd->k", incr, incr)
                                        for incr in map(increments, stacks)])
            if not np.isfinite(statistic).all():
                raise NumericalError(
                    f"trajectory {traj.id!r}: its statistic or a shuffled copy's overflows float64"
                )
            credit = np.where(statistic[0] < statistic[1:], 1.0,
                              np.where(statistic[0] == statistic[1:], 0.5, 0.0))
            for spec_credits, part in zip(out, np.split(credit, np.cumsum(counts)[:-1])):
                if part.size:
                    spec_credits.append(part)
    return out


def _pairs_below(x, y) -> int:
    """The number of pairs (i, j) with x[i] < y[j], counted exactly by sorting y."""
    return int(x.size * y.size - np.searchsorted(np.sort(y), x, side="right").sum())


def relative_accuracy(set_a, set_b, rank_a, rank_b, spatial: SpdMatrix,
                      use_pvalue: bool = False) -> float:
    """Fraction of cross pairs whose score ordering matches the ground truth.

    rank_a and rank_b hold one coherence rank per document of set_a and
    set_b, in set order; a higher rank means more coherent, and pairs of
    equal rank drop out of the denominator. Lower score means more
    coherent; pairs with tied scores never count as concordant. The pairs
    are counted by sorting, once per distinct rank of set_b.
    """
    if not len(set_a) or not len(set_b):
        raise EmptySetError("relative accuracy needs two nonempty sets")
    rank_a, rank_b = np.asarray(rank_a), np.asarray(rank_b)
    if rank_a.shape != (len(set_a),) or rank_b.shape != (len(set_b),):
        raise ValidationError("relative accuracy needs one rank per document of each set")
    scores_a = _corpus_incoherence(set_a, spatial, use_pvalue)
    scores_b = _corpus_incoherence(set_b, spatial, use_pvalue)
    concordant = counted = 0
    for r in np.unique(rank_b):
        sb = scores_b[rank_b == r]
        above, below = rank_a > r, rank_a < r
        counted += np.count_nonzero(rank_a != r) * sb.size
        concordant += _pairs_below(scores_a[above], sb) + _pairs_below(sb, scores_a[below])
    if counted == 0:
        raise DegenerateInputError("ground truth orders no cross pair")
    return concordant / counted


def _best_boundary(values_low, values_high) -> float:
    """The first threshold of most hits for 'x >= threshold means less coherent'."""
    both = np.concatenate([values_low, values_high])
    candidates = np.unique(both)
    midpoints = (candidates[:-1] + candidates[1:]) / 2.0
    candidates = np.concatenate([[both.min() - 1.0], midpoints, [both.max() + 1.0]])
    hits = (values_low.size - np.searchsorted(np.sort(values_low), candidates)
            + np.searchsorted(np.sort(values_high), candidates))
    return float(candidates[np.argmax(hits)])


def threshold_classify(train, train_ranks, test, test_ranks, spatial: SpdMatrix,
                       use_pvalue: bool | None = None):
    """Threshold discretization of scores into ordinal classes.

    train_ranks and test_ranks hold one integer coherence rank >= 0 per
    document of train and test, in corpus order; a higher rank means more
    coherent. For each rank c below the top training rank, the threshold
    between ranks <= c and > c maximizes training split accuracy on the
    score axis (p-value axis when lengths vary, or when use_pvalue is set).
    Returns (the predicted ranks of test, an int array; the Spearman rank
    correlation between predicted and true ranks). When either side of the
    correlation is constant (uninformative labels can collapse all
    predictions into one class) the correlation is reported as 0.0.
    """
    train_ranks, test_ranks = np.asarray(train_ranks), np.asarray(test_ranks)
    if train_ranks.shape != (len(train),) or test_ranks.shape != (len(test),):
        raise ValidationError("threshold classification needs one rank per document of each set")
    for ranks in (train_ranks, test_ranks):
        if not np.issubdtype(ranks.dtype, np.integer) or (ranks < 0).any():
            raise ValidationError("threshold classification needs integer ranks >= 0")
    if np.unique(train_ranks).size < 2:
        raise ValidationError("training corpus has one label; need >= 2")
    if use_pvalue is None:
        use_pvalue = len({traj.T for traj in chain(train, test)}) > 1
    train_x = _corpus_incoherence(train, spatial, use_pvalue)
    boundaries = []
    for c in range(int(train_ranks.max())):
        low = train_x[train_ranks <= c]      # less coherent side: higher scores
        high = train_x[train_ranks > c]
        boundaries.append(_best_boundary(low, high) if low.size else np.inf)
    # Predictions must be monotone in score even if per-pair optima cross.
    boundaries = np.sort(np.asarray(boundaries))[::-1]
    test_x = _corpus_incoherence(test, spatial, use_pvalue)
    predicted = np.sum(test_x[:, None] < boundaries, axis=1)
    try:
        rho = spearman_rho(predicted, test_ranks)
    except DegenerateInputError:
        rho = 0.0
    return predicted, rho


def domain_swap_compare(corpus_a, corpus_b, sigma_a: SpdMatrix,
                        sigma_b: SpdMatrix, sigma_ref: SpdMatrix | None = None,
                        pairing: str = "cross") -> dict:
    """Score two corpora under swapped domain models.

    For each supplied covariance, returns the fraction of (a, b) pairs in
    which a has the lower bbscore, statistic / dof, ties counting 0.5, i.e.
    how often corpus A looks more coherent under that model. pairing
    "cross" counts the full cross product by sorting, the ties being the
    pairs neither way below; "matched" pairs records with equal ids.
    """
    if pairing not in ("cross", "matched"):
        raise ValidationError(f"pairing must be 'cross' or 'matched', got {pairing!r}")
    corpus_a = sorted(corpus_a, key=lambda t: t.id)
    corpus_b = sorted(corpus_b, key=lambda t: t.id)
    if not corpus_a or not corpus_b:
        raise EmptySetError("domain comparison needs two nonempty corpora")
    models = {"sigma_a": sigma_a, "sigma_b": sigma_b}
    if sigma_ref is not None:
        models["sigma_ref"] = sigma_ref
    if pairing == "matched" and [t.id for t in corpus_a] != [t.id for t in corpus_b]:
        raise ValidationError("matched pairing requires identical id sets in both corpora")
    results = {}
    for tag, model in models.items():
        scores_a, scores_b = (_corpus_incoherence(c, model, False) for c in (corpus_a, corpus_b))
        if pairing == "matched":
            total = scores_a.size
            below = np.count_nonzero(scores_a < scores_b)
            above = np.count_nonzero(scores_a > scores_b)
        else:
            total = scores_a.size * scores_b.size
            below, above = _pairs_below(scores_a, scores_b), _pairs_below(scores_b, scores_a)
        results[tag] = (below + 0.5 * (total - below - above)) / total
    return results
