"""Trainable encoder with the contrastive and negative-log-likelihood objectives.

The encoder is a plain linear map applied pointwise, which keeps every
gradient analytic and finite-difference checkable while preserving the module
boundary (raw sequences in, latent trajectories out). Ingested neural
embeddings bypass this module entirely.

Both losses are quadratic in the weights once the covariances are held
fixed. Because the chord mean is built from the encoded endpoints, each
latent bridge increment is the encoding of a raw-space increment
(x_{t+1} - x_t) - (x_T - x_0)/T, and gradients follow in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bridge import (
    LatentTrajectory,
    SpatialCovariance,
    increments,
    pooled_covariance,
    quadratic_form,
)
from .errors import (
    DimensionMismatchError,
    EmptyBatchError,
    InsufficientDataError,
    NotPositiveDefiniteError,
    SingularEstimateError,
    TrainingDivergedError,
    TripletInfeasibleError,
    ValidationError,
)
from .numerics import SpdMatrix, log_det_spd, spd_solve


@dataclass(frozen=True)
class RawSequence:
    """An unencoded document: T+1 ordered vectors in the raw input space."""

    id: str
    domain: str
    inputs: np.ndarray  # (T+1, d_in)

    def __post_init__(self):
        x = np.array(self.inputs, dtype=float)
        if x.ndim != 2 or x.shape[1] < 1:
            raise ValidationError(f"sequence {self.id!r}: inputs must form a (T+1, d_in) matrix")
        if x.shape[0] < 3:
            raise ValidationError(
                f"sequence {self.id!r}: needs at least 3 points (T >= 2), got {x.shape[0]}"
            )
        if not np.all(np.isfinite(x)):
            raise ValidationError(f"sequence {self.id!r}: non-finite coordinate")
        x.setflags(write=False)
        object.__setattr__(self, "inputs", x)

    @property
    def T(self) -> int:
        return self.inputs.shape[0] - 1

    @property
    def d_in(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class LinearEncoder:
    """Linear map theta: R^{d_in} -> R^{d_out}, applied to each point."""

    weights: np.ndarray  # (d_out, d_in)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ValidationError(f"weights must be a (d_out, d_in) matrix, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights contain non-finite entries")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def d_in(self) -> int:
        return self.weights.shape[1]

    @property
    def d_out(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def identity(cls, d: int) -> "LinearEncoder":
        return cls(weights=np.eye(d))


def encode(encoder: LinearEncoder, raw: RawSequence) -> LatentTrajectory:
    """Apply the encoder pointwise; id, domain, and length carry over."""
    if raw.d_in != encoder.d_in:
        raise DimensionMismatchError(
            f"sequence {raw.id!r} has d_in={raw.d_in}, encoder expects {encoder.d_in}"
        )
    return LatentTrajectory(id=raw.id, domain=raw.domain, points=raw.inputs @ encoder.weights.T)


# --- contrastive objective ---------------------------------------------------


def _check_triplet(seq: RawSequence, triplet) -> tuple[int, int, int]:
    i, j, k = (int(v) for v in triplet)
    if not (0 <= i < j < k <= seq.T):
        raise ValidationError(
            f"sequence {seq.id!r}: triplet {triplet} is not strictly increasing within 0..{seq.T}"
        )
    return i, j, k


def _cl_terms(encoder: LinearEncoder, batch):
    """Raw contrasts, encoded contrasts, and log-score matrix for a CL batch.

    Entry (a, m) swaps batch member m's middle point into anchor a's bridge;
    the anchor keeps its own endpoints and time positions, so its variance
    factor (j-i)(k-j)/(k-i) applies along the whole row.
    """
    n = len(batch)
    mids = np.empty((n, encoder.d_in))
    anchors = np.empty((n, encoder.d_in))
    inv_var = np.empty(n)
    for a, (seq, triplet) in enumerate(batch):
        if seq.d_in != encoder.d_in:
            raise DimensionMismatchError(
                f"sequence {seq.id!r} has d_in={seq.d_in}, encoder expects {encoder.d_in}"
            )
        i, j, k = _check_triplet(seq, triplet)
        alpha = (j - i) / (k - i)
        mids[a] = seq.inputs[j]
        anchors[a] = (1.0 - alpha) * seq.inputs[i] + alpha * seq.inputs[k]
        inv_var[a] = (k - i) / ((j - i) * (k - j))
    contrasts = mids[None, :, :] - anchors[:, None, :]        # (anchor, mid, d_in)
    encoded = contrasts @ encoder.weights.T                   # (anchor, mid, d_out)
    logits = -0.5 * inv_var[:, None] * np.sum(encoded * encoded, axis=2)
    return contrasts, encoded, logits, inv_var


def cl_loss(encoder: LinearEncoder, batch) -> float:
    """Contrastive loss with in-batch negatives.

    batch is a list of (RawSequence, (start, mid, end)) index triplets. Each
    anchor's positive is its own middle point; the denominator substitutes
    every batch member's middle into the anchor's bridge. A single-element
    batch therefore scores 0.
    """
    if not batch:
        raise EmptyBatchError("contrastive loss needs at least one triplet")
    _, _, logits, _ = _cl_terms(encoder, batch)
    row_max = logits.max(axis=1, keepdims=True)
    lse = row_max[:, 0] + np.log(np.sum(np.exp(logits - row_max), axis=1))
    return float(np.mean(lse - np.diag(logits)))


def cl_gradient(encoder: LinearEncoder, batch) -> np.ndarray:
    """Analytic d(cl_loss)/d(weights), shape (d_out, d_in)."""
    if not batch:
        raise EmptyBatchError("contrastive loss needs at least one triplet")
    contrasts, encoded, logits, inv_var = _cl_terms(encoder, batch)
    row_max = logits.max(axis=1, keepdims=True)
    expd = np.exp(logits - row_max)
    probs = expd / expd.sum(axis=1, keepdims=True)
    weights = (probs - np.eye(len(batch))) * (-inv_var[:, None])
    return np.einsum("am,amo,ami->oi", weights, encoded, contrasts) / len(batch)


# --- negative log-likelihood objective ---------------------------------------


def sample_triplets(batch, rng) -> list[tuple[int, int, int]]:
    """One uniform strictly increasing interior index triple per sequence.

    Requires T >= 4 so at least one triple 1 <= t1 < t2 < t3 <= T-1 exists.
    """
    rng = np.random.default_rng(rng)
    out = []
    for seq in batch:
        if seq.T < 4:
            raise TripletInfeasibleError(
                f"sequence {seq.id!r} has T={seq.T} < 4; no interior triple exists"
            )
        picks = rng.choice(np.arange(1, seq.T), size=3, replace=False)
        out.append(tuple(int(v) for v in np.sort(picks)))
    return out


def _raw_increments(encoder: LinearEncoder, batch, triplets) -> list[np.ndarray]:
    """Raw-input increments dM_i of each sequence, shape (n_i, d_in).

    The encoder is linear, so the latent increments are dM_i W^T. A triplet
    observes its sequence at times (0, t1, t2, t3, T) only, gap-weighted.
    """
    if triplets is not None and len(triplets) != len(batch):
        raise ValidationError(
            f"got {len(triplets)} triplets for a batch of {len(batch)} sequences"
        )
    pieces = []
    for seq, triplet in zip(batch, triplets or [None] * len(batch)):
        if seq.d_in != encoder.d_in:
            raise DimensionMismatchError(
                f"sequence {seq.id!r} has d_in={seq.d_in}, encoder expects {encoder.d_in}"
            )
        if triplet is None:
            pieces.append(increments(seq.inputs))
            continue
        times = [0, *(int(v) for v in triplet), seq.T]
        if len(times) != 5 or not 0 < times[1] < times[2] < times[3] < seq.T:
            raise ValidationError(
                f"sequence {seq.id!r}: interior triple {triplet} invalid for T={seq.T}"
            )
        pieces.append(increments(seq.inputs[times], times))
    return pieces


def nll_batch_loss(encoder: LinearEncoder, batch, sigma_hat: SpatialCovariance,
                   triplets=None) -> float:
    """Within-batch trace loss sum_i tr(Sigma_hat^-1 R_i Sigma_Ti^-1 R_i^T).

    With triplets (one interior index triple per sequence, e.g. from
    sample_triplets) each sequence keeps its gap-weighted increments over
    (0, t1, t2, t3, T) only. Sampling lives outside this function so that
    loss and gradient evaluations can share identical draws.
    """
    w = encoder.weights
    return float(sum(quadratic_form(sigma_hat, m @ w.T)
                     for m in _raw_increments(encoder, batch, triplets)))


def nll_gradient(encoder: LinearEncoder, batch, sigma_hat: SpatialCovariance,
                 triplets=None) -> np.ndarray:
    """Analytic d(nll_batch_loss)/d(weights): 2 Sigma_hat^-1 W sum_i dM_i^T dM_i."""
    gram = np.zeros((encoder.d_in, encoder.d_in))
    for m in _raw_increments(encoder, batch, triplets):
        gram += m.T @ m
    return 2.0 * spd_solve(sigma_hat.sigma, encoder.weights @ gram)


# --- training loop ------------------------------------------------------------


@dataclass
class TrainerState:
    """Mutable state threaded through the multi-domain training loop.

    epsilon blends each per-domain covariance update toward sigma2_hat * I,
    which keeps every estimate positive-definite; shrinkage=False reproduces
    the raw-MLE update instead.
    """

    encoder: LinearEncoder
    epsilon: float = 1e-7
    step_size: float = 1e-3
    batch_size: int = 8
    triplet_mode: bool = False
    shrinkage: bool = True
    seed: int = 0
    sigma_hat: dict[str, SpatialCovariance] = field(default_factory=dict)
    sigma_scalar: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValidationError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.step_size <= 0.0:
            raise ValidationError(f"step_size must be positive, got {self.step_size}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")


def update_sigma_hat(state: TrainerState, domain: str, corpus) -> SpatialCovariance:
    """Refresh the domain covariance from the current encoder outputs.

    Computes the pooled MLE of the encoded corpus, blends it with
    epsilon * sigma2_hat * I (sigma2_hat = tr(MLE)/d), and stores both the
    covariance and sigma2_hat on the state. With epsilon = 0 or
    shrinkage=False this is exactly the pooled MLE.
    """
    if not corpus:
        raise InsufficientDataError(f"domain {domain!r} has no sequences")
    encoded = [encode(state.encoder, seq) for seq in corpus]
    m, _ = pooled_covariance(encoded)
    d = m.shape[0]
    sigma2 = float(np.trace(m)) / d
    eps = state.epsilon if state.shrinkage else 0.0
    blended = (1.0 - eps) * m + eps * sigma2 * np.eye(d)
    try:
        spd = SpdMatrix(blended)
    except NotPositiveDefiniteError as exc:
        raise SingularEstimateError(
            f"domain {domain!r}: covariance update is singular (epsilon={eps})"
        ) from exc
    updated = SpatialCovariance(sigma=spd)
    state.sigma_hat[domain] = updated
    state.sigma_scalar[domain] = sigma2
    return updated


def nll_objective(state: TrainerState, corpora) -> float:
    """Full-data training objective across all domains.

    sum_j [ sum_i (T_i - 1) log|Sigma_hat_j|
            + sum_i tr(Sigma_hat_j^-1 R_i Sigma_Ti^-1 R_i^T) ].
    """
    total = 0.0
    w = state.encoder.weights
    for domain in sorted(corpora):
        sig = state.sigma_hat[domain]
        ld = log_det_spd(sig.sigma)
        seqs = sorted(corpora[domain], key=lambda s: s.id)
        for seq, m in zip(seqs, _raw_increments(state.encoder, seqs, None)):
            total += (seq.T - 1) * ld + quadratic_form(sig, m @ w.T)
    return float(total)


def train(state: TrainerState, corpora, epochs: int) -> tuple[TrainerState, list[float]]:
    """Multi-domain training: batched gradient steps, then a covariance update.

    Per epoch and per domain, iterate batches taking fixed-step gradient
    steps on the within-batch trace loss while Sigma_hat_j stays fixed, then
    refresh Sigma_hat_j and move to the next domain. The returned trace holds
    the full-data objective before training and after each epoch. Fully
    deterministic given state.seed; epochs=0 returns the state untouched.
    """
    if epochs < 0:
        raise ValidationError(f"epochs must be >= 0, got {epochs}")
    for domain in sorted(corpora):
        if not corpora[domain]:
            raise InsufficientDataError(f"domain {domain!r} has no sequences")
    if epochs == 0:
        return state, []
    rng = np.random.default_rng(state.seed)
    domains = sorted(corpora)
    for domain in domains:
        if domain not in state.sigma_hat:
            update_sigma_hat(state, domain, corpora[domain])
    initial = nll_objective(state, corpora)
    guard = 10.0 * max(abs(initial), 1.0)
    trace = [initial]
    for _ in range(epochs):
        for domain in domains:
            seqs = sorted(corpora[domain], key=lambda s: s.id)
            order = rng.permutation(len(seqs))
            sigma = state.sigma_hat[domain]
            for lo in range(0, len(seqs), state.batch_size):
                batch = [seqs[i] for i in order[lo:lo + state.batch_size]]
                triplets = sample_triplets(batch, rng) if state.triplet_mode else None
                grad = nll_gradient(state.encoder, batch, sigma, triplets)
                state.encoder = LinearEncoder(state.encoder.weights - state.step_size * grad)
            update_sigma_hat(state, domain, corpora[domain])
        current = nll_objective(state, corpora)
        trace.append(current)
        if current > guard:
            raise TrainingDivergedError(
                f"objective {current:.6g} exceeded 10x its initial magnitude {initial:.6g}"
            )
    return state, trace
