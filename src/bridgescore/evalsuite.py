"""Coherence evaluation harness: shuffles, discrimination, classification.

Shuffles permute latent vectors directly (one vector per sentence), so the
same machinery runs on simulated and ingested embedding trajectories alike.
All randomized operations are deterministic given their seed; per-document
randomness derives from a stable hash of the document id, so results never
depend on corpus order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .bridge import LatentTrajectory, SpatialCovariance, increments, quadratic_form
from .errors import (
    DegenerateInputError,
    DegenerateLabelsError,
    DimensionMismatchError,
    EmptySetError,
    InfeasibleWindowsError,
    NoNontrivialPermutationError,
    ValidationError,
)
from .numerics import chi_square_sf, spearman_rho
from .score import score_statistics


def stable_seed(base_seed: int, *parts) -> int:
    """A 64-bit seed derived from a base seed and string parts via SHA-256."""
    text = "|".join([str(int(base_seed)), *map(str, parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class ShuffleSpec:
    """Parameters of a shuffle perturbation task.

    kind "global_block": permute consecutive blocks of block_size points.
    kind "local_window": permute points inside num_windows disjoint windows
    of window_size consecutive points each.
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


def _nonidentity_permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    identity = np.arange(n)
    while True:
        perm = rng.permutation(n)
        if (perm != identity).any():
            return perm


def _shuffle_orders(n: int, spec: ShuffleSpec, rng: np.random.Generator, name: str) -> np.ndarray:
    """spec.copies shuffled orders of the indices 0..n-1, shape (copies, n).

    Global blocks: a uniform non-identity permutation of the consecutive
    blocks of block_size indices (final short block kept), needing n >=
    2 * block_size. Local windows: num_windows disjoint windows of
    window_size consecutive indices, placed uniformly over all disjoint
    placements, each permuted by a uniform non-identity permutation. name
    labels the errors.
    """
    if spec.kind == "global_block":
        if n < 2 * spec.block_size:
            raise NoNontrivialPermutationError(
                f"trajectory {name!r}: {n} points cannot form two blocks of {spec.block_size}"
            )
        block = np.arange(n) // spec.block_size
        perms = np.array([_nonidentity_permutation(rng, block[-1] + 1) for _ in range(spec.copies)])
        # a stable sort of the indices by their block's new position keeps blocks intact
        return np.argsort(np.argsort(perms, axis=1)[:, block], axis=1, kind="stable")
    w, size = spec.num_windows, spec.window_size
    slots = n - w * size + w
    if slots < w:
        raise InfeasibleWindowsError(
            f"trajectory {name!r}: cannot place {w} disjoint windows of {size} in {n} points"
        )
    orders = np.tile(np.arange(n), (spec.copies, 1))
    offsets = np.arange(w) * (size - 1)
    for order in orders:
        for s in np.sort(rng.choice(slots, size=w, replace=False)) + offsets:
            order[s:s + size] = order[s:s + size][_nonidentity_permutation(rng, size)]
    return orders


def global_shuffle(traj: LatentTrajectory, block_size: int, seed, *,
                   new_id: str | None = None) -> LatentTrajectory:
    """Permute consecutive blocks of block_size points (final short block kept).

    The block permutation is uniform over non-identity permutations.
    Requires T+1 >= 2 * block_size.
    """
    spec = ShuffleSpec(kind="global_block", block_size=block_size, copies=1)
    order = _shuffle_orders(traj.T + 1, spec, np.random.default_rng(seed), traj.id)[0]
    return LatentTrajectory(
        id=new_id or f"{traj.id}#global-b{block_size}",
        domain=traj.domain,
        points=traj.points[order],
    )


def local_shuffle(traj: LatentTrajectory, w: int, window_size: int, seed, *,
                  new_id: str | None = None) -> LatentTrajectory:
    """Shuffle points inside w disjoint windows of window_size consecutive points.

    Window placements are uniform over all disjoint placements; each selected
    window receives a uniform non-identity internal permutation. Points
    outside the windows are untouched.
    """
    spec = ShuffleSpec(kind="local_window", num_windows=w, window_size=window_size, copies=1)
    order = _shuffle_orders(traj.T + 1, spec, np.random.default_rng(seed), traj.id)[0]
    return LatentTrajectory(
        id=new_id or f"{traj.id}#local-w{w}",
        domain=traj.domain,
        points=traj.points[order],
    )


def _distinct_copies(traj: LatentTrajectory, spec: ShuffleSpec) -> tuple[list[int], np.ndarray]:
    """The copy numbers and stacked (k, T+1, d) points of the distinct shuffled copies.

    A copy equal, point for point, to the original or to an earlier copy is
    dropped. The copies index the validated original, so they need no checks.
    """
    orders = _shuffle_orders(traj.T + 1, spec, np.random.default_rng(spec.seed), traj.id)
    stacked = traj.points[orders]
    seen = {traj.points.tobytes()}
    kept = []
    for i, points in enumerate(stacked):
        key = points.tobytes()
        if key not in seen:
            seen.add(key)
            kept.append(i)
    return kept, stacked[kept]


def make_shuffle_set(traj: LatentTrajectory, spec: ShuffleSpec) -> list[LatentTrajectory]:
    """Up to spec.copies distinct shuffled copies; never contains the original.

    Duplicates (exact point-sequence equality) are discarded, so short
    sequences can yield fewer copies than requested. Deterministic per seed.
    """
    kept, stacked = _distinct_copies(traj, spec)
    tag = f"g{spec.block_size}" if spec.kind == "global_block" else f"l{spec.num_windows}"
    return [LatentTrajectory(id=f"{traj.id}#{tag}-{i}", domain=traj.domain, points=points)
            for i, points in zip(kept, stacked)]


def _incoherence(statistic, dof, use_pvalue: bool) -> np.ndarray:
    # Orient so that larger always means less coherent.
    return -chi_square_sf(statistic, dof) if use_pvalue else statistic / dof


def _corpus_incoherence(trajs, spatial: SpatialCovariance, use_pvalue: bool) -> np.ndarray:
    return _incoherence(*score_statistics(trajs, spatial), use_pvalue)


def discrimination_accuracy(originals, spec: ShuffleSpec, spatial: SpatialCovariance,
                            use_pvalue: bool = False, per_document: bool = False) -> float:
    """Original-vs-shuffled discrimination accuracy.

    Every (original, shuffled copy) pair scores 1 when the original comes out
    strictly more coherent (lower bbscore, or higher p-value with
    use_pvalue), 0.5 on ties, else 0. Pooled over all pairs by default;
    per_document averages per-document accuracies instead. Shuffle seeds are
    derived per document from spec.seed and the document id. Each document
    and its distinct copies are scored in one kernel call.
    """
    originals = sorted(originals, key=lambda t: t.id)
    if not originals:
        raise EmptySetError("discrimination needs a nonempty corpus")
    credits = []
    for traj in originals:
        _, copies = _distinct_copies(traj, replace(spec, seed=stable_seed(spec.seed, traj.id)))
        if not len(copies):
            continue
        stacked = np.concatenate([traj.points[None], copies])
        statistic = quadratic_form(spatial, increments(stacked))
        x = _incoherence(statistic, (traj.T - 1) * traj.d, use_pvalue)
        credits.append(np.where(x[0] < x[1:], 1.0, np.where(x[0] == x[1:], 0.5, 0.0)))
    if not credits:
        raise EmptySetError("no shuffled copies were produced")
    if per_document:
        return float(np.mean([float(np.mean(c)) for c in credits]))
    return float(np.mean(np.concatenate(credits)))


def label_relation(labels, order, labels_b=None):
    """Pairwise coherence relation from ordinal labels.

    labels maps trajectory id to label; order lists labels from least to
    most coherent. The returned relation(a, b) is +1 when a is more
    coherent, -1 when less, 0 on equal labels. b's label comes from
    labels_b when given, so two sets may share ids.
    """
    labels_b = labels if labels_b is None else labels_b
    rank = {lab: i for i, lab in enumerate(order)}
    missing = [lab for lab in {*labels.values(), *labels_b.values()} if lab not in rank]
    if missing:
        raise ValidationError(f"labels {missing} not in declared order {list(order)}")

    def relation(a: LatentTrajectory, b: LatentTrajectory) -> int:
        ra, rb = rank[labels[a.id]], rank[labels_b[b.id]]
        return (ra > rb) - (ra < rb)

    return relation


def relative_accuracy(set_a, set_b, coherence_order, spatial: SpatialCovariance,
                      use_pvalue: bool = False) -> float:
    """Fraction of cross pairs whose score ordering matches the ground truth.

    coherence_order(a, b) returns +1 / -1 / 0 for a more / less / equally
    coherent than b; 0 pairs drop out of the denominator. Lower score means
    more coherent; pairs with tied scores never count as concordant.
    """
    set_a = sorted(set_a, key=lambda t: t.id)
    set_b = sorted(set_b, key=lambda t: t.id)
    if not set_a or not set_b:
        raise EmptySetError("relative accuracy needs two nonempty sets")
    scores_a = _corpus_incoherence(set_a, spatial, use_pvalue).tolist()
    scores_b = _corpus_incoherence(set_b, spatial, use_pvalue).tolist()
    concordant = 0
    counted = 0
    for a, sa in zip(set_a, scores_a):
        for b, sb in zip(set_b, scores_b):
            truth = coherence_order(a, b)
            if truth == 0:
                continue
            counted += 1
            if (truth > 0 and sa < sb) or (truth < 0 and sa > sb):
                concordant += 1
    if counted == 0:
        raise DegenerateInputError("ground truth orders no cross pair")
    return concordant / counted


@dataclass(frozen=True)
class LabeledCorpus:
    """Trajectories with ordinal coherence labels from a declared ordered set."""

    items: tuple
    label_order: tuple

    def __post_init__(self):
        items = tuple(self.items)
        order = tuple(self.label_order)
        if len(set(order)) != len(order):
            raise ValidationError("label_order contains duplicates")
        known = set(order)
        for traj, label in items:
            if label not in known:
                raise ValidationError(
                    f"trajectory {traj.id!r} has label {label!r} outside {list(order)}"
                )
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "label_order", order)


def _best_boundary(values_low, values_high) -> float:
    """Threshold maximizing accuracy for 'x >= threshold means less coherent'."""
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


def threshold_classify(train: LabeledCorpus, test: LabeledCorpus,
                       spatial: SpatialCovariance, use_pvalue: bool | None = None):
    """Threshold discretization of scores into ordinal classes.

    Thresholds between each adjacent label pair maximize training split
    accuracy on the score axis (p-value axis when lengths vary, or when
    use_pvalue is set). Returns (predicted labels for test items, Spearman
    rank correlation between predicted and true labels). When either side of
    the correlation is constant (uninformative labels can collapse all
    predictions into one class) the correlation is reported as 0.0.
    """
    if train.label_order != test.label_order:
        raise ValidationError("train and test corpora declare different label orders")
    order = train.label_order
    present = {label for _, label in train.items}
    if len(present) < 2:
        raise DegenerateLabelsError(f"training corpus has labels {sorted(present)}; need >= 2")
    if use_pvalue is None:
        lengths = {traj.T for traj, _ in train.items} | {traj.T for traj, _ in test.items}
        use_pvalue = len(lengths) > 1
    rank = {lab: i for i, lab in enumerate(order)}
    train_x = _corpus_incoherence([t for t, _ in train.items], spatial, use_pvalue)
    train_y = np.array([rank[label] for _, label in train.items])
    boundaries = []
    for c in range(len(order) - 1):
        low = train_x[train_y <= c]      # less coherent side: higher scores
        high = train_x[train_y > c]
        if low.size == 0 or high.size == 0:
            boundaries.append(np.inf if low.size == 0 else -np.inf)
            continue
        boundaries.append(_best_boundary(low, high))
    # Predictions must be monotone in score even if per-pair optima cross.
    boundaries = np.sort(np.asarray(boundaries))[::-1]
    test_x = _corpus_incoherence([t for t, _ in test.items], spatial, use_pvalue)
    predicted = [order[int(np.sum(x < boundaries))] for x in test_x]
    true_idx = [rank[label] for _, label in test.items]
    pred_idx = [rank[label] for label in predicted]
    try:
        rho = spearman_rho(pred_idx, true_idx)
    except DegenerateInputError:
        rho = 0.0
    return predicted, rho


def domain_swap_compare(corpus_a, corpus_b, sigma_a: SpatialCovariance,
                        sigma_b: SpatialCovariance, sigma_ref: SpatialCovariance | None = None,
                        pairing: str = "cross") -> dict:
    """Score two corpora under swapped domain models.

    For each supplied covariance, returns the fraction of (a, b) pairs with
    bbscore(a) < bbscore(b), ties counting 0.5, i.e. how often corpus A looks
    more coherent under that model. pairing "cross" uses the full cross
    product; "matched" pairs records with equal ids.
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
    for tag, model in models.items():
        if model.dim != corpus_a[0].d:
            raise DimensionMismatchError(
                f"{tag} has dim {model.dim}, corpora have d={corpus_a[0].d}"
            )
    if pairing == "matched":
        ids_a = {t.id for t in corpus_a}
        ids_b = {t.id for t in corpus_b}
        if ids_a != ids_b:
            raise ValidationError("matched pairing requires identical id sets in both corpora")
    results = {}
    for tag, model in models.items():
        scores_a, scores_b = (
            dict(zip([t.id for t in corpus], _corpus_incoherence(corpus, model, False).tolist()))
            for corpus in (corpus_a, corpus_b)
        )
        if pairing == "matched":
            pairs = [(scores_a[i], scores_b[i]) for i in sorted(scores_a)]
        else:
            pairs = [(sa, sb) for sa in scores_a.values() for sb in scores_b.values()]
        credit = sum(1.0 if sa < sb else 0.5 if sa == sb else 0.0 for sa, sb in pairs)
        results[tag] = credit / len(pairs)
    return results
