"""Independent reference results for the benchmark's output checks.

Nothing here imports bridgescore: the checks must hold even when the code
under test is wrong. Every formula comes from the bridge model itself, in
the increment form rather than through the (T-1) x (T-1) bridge covariance
K[s, t] = s (T - t) / T that the package solves against. The bridge is
Markov, so K^-1 is tridiag(-1, 2, -1), and for residuals a, b that are zero
at both endpoints a K^-1 b^T = sum_t (a_{t+1} - a_t)(b_{t+1} - b_t)^T.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def read_corpus(path) -> list[dict]:
    """All document rows of a JSONL corpus, points as float arrays, header skipped."""
    docs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if row.get("kind") == "trajectories":
                continue
            row["points"] = np.asarray(row["points"], dtype=float)
            docs.append(row)
    return docs


def increments(points: np.ndarray) -> np.ndarray:
    """Residual increments (s_{t+1} - s_t) - (s_T - s_0) / T, shape (T, d)."""
    T = points.shape[0] - 1
    return np.diff(points, axis=0) - (points[-1] - points[0]) / T


def gram(points: np.ndarray) -> np.ndarray:
    """R K^-1 R^T for one document: the sum of its increment outer products."""
    inc = increments(points)
    return inc.T @ inc


def pooled_sigma(docs, epsilon: float) -> tuple[np.ndarray, int]:
    """The fitted model: pooled MLE blended toward sigma2 * I, and its weight."""
    acc = sum(gram(doc["points"]) for doc in docs)
    weight = sum(doc["points"].shape[0] - 2 for doc in docs)
    m = acc / weight
    m = 0.5 * (m + m.T)
    return _blend(m, epsilon), weight


def _blend(m: np.ndarray, epsilon: float) -> np.ndarray:
    d = m.shape[0]
    return (1.0 - epsilon) * m + epsilon * (np.trace(m) / d) * np.eye(d)


# --- discrimination ------------------------------------------------------------


def stable_seed(base_seed: int, *parts) -> int:
    text = "|".join([str(int(base_seed)), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def _nonidentity_permutation(rng, n: int) -> np.ndarray:
    while True:
        perm = rng.permutation(n)
        if np.any(perm != np.arange(n)):
            return perm


def _global_copy(points, block_size, rng):
    blocks = [points[i:i + block_size] for i in range(0, points.shape[0], block_size)]
    perm = _nonidentity_permutation(rng, len(blocks))
    return np.concatenate([blocks[i] for i in perm])


def _local_copy(points, windows, window_size, rng):
    slots = points.shape[0] - windows * window_size + windows
    picks = np.sort(rng.choice(slots, size=windows, replace=False))
    out = points.copy()
    for s in picks + np.arange(windows) * (window_size - 1):
        out[s:s + window_size] = out[s:s + window_size][_nonidentity_permutation(rng, window_size)]
    return out


def _shuffled_copies(points, kind, size, window_size, copies, seed):
    """Distinct shuffled copies, drawing from one generator in the documented order."""
    rng = np.random.default_rng(seed)
    seen = {points.tobytes()}
    out = []
    for _ in range(copies):
        if kind == "global":
            copy = _global_copy(points, size, rng)
        else:
            copy = _local_copy(points, size, window_size, rng)
        if copy.tobytes() not in seen:
            seen.add(copy.tobytes())
            out.append(copy)
    return out


def discrimination_table(docs, sigma, kind, sizes, window_size, copies, seed) -> list[str]:
    """The table `discriminate` prints: one header line, then one line per size.

    A pair credits 1 when the original scores strictly lower (more coherent)
    than its shuffled copy, 0.5 on a tie; credits pool over all pairs.
    """
    sigma_inv = np.linalg.inv(sigma)

    def score(points):
        inc = increments(points)
        return float(np.sum((inc @ sigma_inv) * inc)) / ((points.shape[0] - 2) * points.shape[1])

    lines = [f"{'block_size' if kind == 'global' else 'windows':>10}  {'accuracy':>8}"]
    docs = sorted(docs, key=lambda doc: doc["id"])
    for size in sizes:
        credits = []
        for doc in docs:
            base = score(doc["points"])
            for copy in _shuffled_copies(doc["points"], kind, size, window_size, copies,
                                         stable_seed(seed, doc["id"])):
                other = score(copy)
                credits.append(1.0 if base < other else 0.5 if base == other else 0.0)
        lines.append(f"{size:>10}  {float(np.mean(credits)):>8.4f}")
    return lines


# --- encoder training ------------------------------------------------------------


def nll_trace(docs, epochs: int, step_size: float, batch_size: int, epsilon: float,
              seed: int) -> list[float]:
    """Full-data objective before training and after each epoch of `train`.

    Per domain and epoch: fixed-step gradient steps on batches drawn by one
    seeded permutation, with that domain's covariance held fixed, then a
    covariance refresh. With a linear encoder W every quantity is a function
    of the per-document raw-space grams G_i, so W G W^T replaces re-encoding.
    """
    domains: dict[str, list[dict]] = {}
    for doc in docs:
        domains.setdefault(doc["domain"], []).append(doc)
    grams = {dom: [gram(doc["points"]) for doc in sorted(ds, key=lambda doc: doc["id"])]
             for dom, ds in domains.items()}
    weights = {dom: sum(doc["points"].shape[0] - 2 for doc in ds) for dom, ds in domains.items()}
    totals = {dom: sum(gs) for dom, gs in grams.items()}
    w = np.eye(docs[0]["points"].shape[1])

    def refresh(dom):
        m = w @ totals[dom] @ w.T / weights[dom]
        return _blend(0.5 * (m + m.T), epsilon)

    def objective():
        total = 0.0
        for dom in sorted(grams):
            _, logdet = np.linalg.slogdet(sigmas[dom])
            total += weights[dom] * logdet
            total += float(np.trace(np.linalg.solve(sigmas[dom], w @ totals[dom] @ w.T)))
        return total

    sigmas = {dom: refresh(dom) for dom in sorted(grams)}
    trace = [objective()]
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for dom in sorted(grams):
            gs = grams[dom]
            order = rng.permutation(len(gs))
            for lo in range(0, len(gs), batch_size):
                batch = sum(gs[i] for i in order[lo:lo + batch_size])
                w = w - step_size * 2.0 * np.linalg.solve(sigmas[dom], w @ batch)
            sigmas[dom] = refresh(dom)
        trace.append(objective())
    return trace
