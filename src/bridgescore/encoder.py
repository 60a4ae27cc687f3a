"""Trainable encoder with the contrastive and negative-log-likelihood objectives.

The encoder is a plain linear map applied pointwise, which keeps every
gradient analytic and finite-difference checkable while preserving the module
boundary: a LatentTrajectory of raw input vectors in, its encoding out.
Ingested neural embeddings bypass this module entirely.

Both losses are quadratic in the weights once the covariances are held
fixed. Because the chord mean is built from the encoded endpoints, each
latent bridge increment is the encoding of a raw-space increment
dM = (x_{t+1} - x_t) - (x_T - x_0)/T, and gradients follow in closed form.
The NLL terms depend on the data only through increment covariances. The
trainer takes each domain's (M, n) from bridge.pooled_covariance, the
estimator behind fit, on the raw sequences: M = sum_i dM_i^T dM_i / n, the
pooled covariance of the encoded corpus is W M W^T, and its summed quadratic
form is n <Sigma^-1 W M, W>_F. Each Sigma_hat is W M W^T through
bridge.shrink_covariance, as in fit, so a domain whose n is below d_out is
rejected as fit rejects such a corpus. A batch's gradient uses the Gram
matrix of its own increments, which train takes once per sequence and call
and keeps beside the corpus. The trainer never re-encodes the corpus, and it
runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bridge import LatentTrajectory, increments, pooled_covariance, shrink_covariance
from .errors import (
    DimensionMismatchError,
    InsufficientDataError,
    NumericalError,
    SingularEstimateError,
    ValidationError,
)
from .numerics import SpdMatrix


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

    @classmethod
    def identity(cls, d: int) -> "LinearEncoder":
        return cls(weights=np.eye(d))


def _check_dim(encoder: LinearEncoder, traj: LatentTrajectory) -> None:
    if traj.d != encoder.d_in:
        raise DimensionMismatchError(
            f"sequence {traj.id!r} has d_in={traj.d}, encoder expects {encoder.d_in}"
        )


def encode(encoder: LinearEncoder, traj: LatentTrajectory) -> LatentTrajectory:
    """Apply the encoder pointwise; id, domain, and length carry over."""
    _check_dim(encoder, traj)
    return LatentTrajectory(id=traj.id, domain=traj.domain, points=traj.points @ encoder.weights.T)


# --- contrastive objective ---------------------------------------------------


def _check_triplet(seq: LatentTrajectory, triplet) -> tuple[int, int, int]:
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
        _check_dim(encoder, seq)
        i, j, k = _check_triplet(seq, triplet)
        alpha = (j - i) / (k - i)
        mids[a] = seq.points[j]
        anchors[a] = (1.0 - alpha) * seq.points[i] + alpha * seq.points[k]
        inv_var[a] = (k - i) / ((j - i) * (k - j))
    contrasts = mids[None, :, :] - anchors[:, None, :]        # (anchor, mid, d_in)
    encoded = contrasts @ encoder.weights.T                   # (anchor, mid, d_out)
    logits = -0.5 * inv_var[:, None] * np.sum(encoded * encoded, axis=2)
    return contrasts, encoded, logits, inv_var


def cl_loss(encoder: LinearEncoder, batch) -> float:
    """Contrastive loss with in-batch negatives.

    batch is a list of (LatentTrajectory, (start, mid, end)) index
    triplets. Each anchor's positive is its own middle point; the
    denominator substitutes every batch member's middle into the anchor's
    bridge. A single-element batch therefore scores 0.
    """
    if not batch:
        raise ValidationError("contrastive loss needs at least one triplet")
    _, _, logits, _ = _cl_terms(encoder, batch)
    row_max = logits.max(axis=1, keepdims=True)
    lse = row_max[:, 0] + np.log(np.sum(np.exp(logits - row_max), axis=1))
    return float(np.mean(lse - np.diag(logits)))


def cl_gradient(encoder: LinearEncoder, batch) -> np.ndarray:
    """Analytic d(cl_loss)/d(weights), shape (d_out, d_in)."""
    if not batch:
        raise ValidationError("contrastive loss needs at least one triplet")
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
            raise ValidationError(
                f"sequence {seq.id!r} has T={seq.T} < 4; no interior triple exists"
            )
        picks = rng.choice(np.arange(1, seq.T), size=3, replace=False)
        out.append(tuple(int(v) for v in np.sort(picks)))
    return out


def _increment_gram(encoder: LinearEncoder, batch, triplets=None) -> np.ndarray:
    """G = sum_i dM_i^T dM_i over the raw-input increments dM_i, stacked in batch order.

    The encoder is linear, so the latent increments are dM_i W^T. A triplet
    observes its sequence at times (0, t1, t2, t3, T) only, gap-weighted.
    """
    if triplets is not None and len(triplets) != len(batch):
        raise ValidationError(
            f"got {len(triplets)} triplets for a batch of {len(batch)} sequences"
        )
    rows = [np.empty((0, encoder.d_in))]  # an empty batch's G is zero
    for seq, triplet in zip(batch, triplets or [None] * len(batch)):
        _check_dim(encoder, seq)
        if triplet is None:
            m = increments(seq.points)
        else:
            times = [0, *(int(v) for v in triplet), seq.T]
            if len(times) != 5 or not 0 < times[1] < times[2] < times[3] < seq.T:
                raise ValidationError(
                    f"sequence {seq.id!r}: interior triple {triplet} invalid for T={seq.T}"
                )
            m = increments(seq.points[times], times)
        rows.append(m)
    return _gram(rows)


def _gram(rows) -> np.ndarray:
    """sum_i m_i^T m_i over a list of increment arrays m_i, stacked in order: one GEMM."""
    stacked = np.concatenate(rows)
    return stacked.T @ stacked


def nll_batch_loss(encoder: LinearEncoder, batch, sigma_hat: SpdMatrix,
                   triplets=None) -> float:
    """Within-batch trace loss sum_i tr(Sigma_hat^-1 R_i Sigma_Ti^-1 R_i^T).

    With triplets (one interior index triple per sequence, e.g. from
    sample_triplets) each sequence keeps its gap-weighted increments over
    (0, t1, t2, t3, T) only. Sampling lives outside this function so that
    loss and gradient evaluations can share identical draws.
    """
    w = encoder.weights
    gram = _increment_gram(encoder, batch, triplets)
    return float(np.vdot(sigma_hat.solve(w @ gram), w))


def nll_gradient(encoder: LinearEncoder, batch, sigma_hat: SpdMatrix,
                 triplets=None) -> np.ndarray:
    """Analytic d(nll_batch_loss)/d(weights): 2 Sigma_hat^-1 W sum_i dM_i^T dM_i."""
    gram = _increment_gram(encoder, batch, triplets)
    return 2.0 * sigma_hat.solve(encoder.weights @ gram)


# --- training loop ------------------------------------------------------------


@dataclass
class TrainerState:
    """Mutable state threaded through the multi-domain training loop.

    epsilon blends each per-domain covariance update toward sigma2_hat * I,
    which keeps every estimate positive-definite; epsilon = 0 is the raw-MLE
    update.
    """

    encoder: LinearEncoder
    epsilon: float = 1e-7
    step_size: float = 1e-3
    batch_size: int = 8
    triplet_mode: bool = False
    seed: int = 0
    sigma_hat: dict[str, SpdMatrix] = field(default_factory=dict)
    sigma_scalar: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValidationError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if not 0.0 < self.step_size < float("inf"):
            raise ValidationError(f"step_size must be positive and finite, got {self.step_size}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")


def _pooled(encoder: LinearEncoder, domain: str, corpus) -> tuple[np.ndarray, int]:
    """pooled_covariance's (M, n) of a domain's raw sequences, each first checked against d_in."""
    if not corpus:
        raise InsufficientDataError(f"domain {domain!r} has no sequences")
    for seq in corpus:
        _check_dim(encoder, seq)
    return pooled_covariance(corpus)


def _refresh_sigma(state: TrainerState, domain: str, m, n: int) -> SpdMatrix:
    """update_sigma_hat from a domain's pooled raw covariance M and its weight n.

    Raises NumericalError naming the domain when W M W^T, or its trace,
    overflows float64, and shrink_covariance's errors with the domain's name.
    """
    w = state.encoder.weights
    with np.errstate(over="ignore", invalid="ignore"):  # checked once, on W M W^T and its trace
        encoded = w @ m @ w.T
        finite = np.isfinite(encoded).all() and np.isfinite(np.trace(encoded))
    if not finite:
        raise NumericalError(f"domain {domain!r}: its encoded covariance overflows float64")
    try:
        updated, sigma2 = shrink_covariance(0.5 * (encoded + encoded.T), n, state.epsilon)
    except (InsufficientDataError, SingularEstimateError) as exc:
        raise type(exc)(f"domain {domain!r}: {exc}") from exc
    state.sigma_hat[domain] = updated
    state.sigma_scalar[domain] = sigma2
    return updated


def _objective(state: TrainerState, pooled) -> float:
    """nll_objective from each domain's (M, n)."""
    w = state.encoder.weights
    total = 0.0
    for domain in sorted(pooled):
        m, n = pooled[domain]
        sig = state.sigma_hat[domain]
        total += n * (sig.log_det() + float(np.vdot(sig.solve(w @ m), w)))
    return total


def update_sigma_hat(state: TrainerState, domain: str, corpus) -> SpdMatrix:
    """Refresh the domain covariance from the current encoder outputs.

    Computes the pooled MLE of the encoded corpus, W M W^T, blends it with
    epsilon * sigma2_hat * I (sigma2_hat = tr(MLE)/d) through
    shrink_covariance, and stores both the covariance and sigma2_hat on the
    state. With epsilon = 0 this is exactly the pooled MLE. Raises
    InsufficientDataError, naming the domain, when the corpus's pooled weight
    is below d_out.
    """
    return _refresh_sigma(state, domain, *_pooled(state.encoder, domain, corpus))


def nll_objective(state: TrainerState, corpora) -> float:
    """Full-data training objective across all domains.

    sum_j [ sum_i (T_i - 1) log|Sigma_hat_j|
            + sum_i tr(Sigma_hat_j^-1 R_i Sigma_Ti^-1 R_i^T) ]
    = sum_j n_j [ log|Sigma_hat_j| + <Sigma_hat_j^-1 W M_j, W>_F ].

    Raises ValidationError naming a domain of corpora with no Sigma_hat_j.
    """
    for domain in sorted(corpora):
        if domain not in state.sigma_hat:
            raise ValidationError(f"domain {domain!r} has no covariance in the trainer state")
    return _objective(state, {dom: _pooled(state.encoder, dom, corpora[dom]) for dom in corpora})


def train(state: TrainerState, corpora, epochs: int) -> tuple[TrainerState, list[float]]:
    """Multi-domain training: batched gradient steps, then a covariance update.

    Per epoch and per domain, iterate batches taking fixed-step gradient
    steps on the within-batch trace loss while Sigma_hat_j stays fixed, then
    refresh Sigma_hat_j and move to the next domain. Each domain's pooled raw
    covariance is formed once, up front, and outside triplet mode so are each
    sequence's increments, a second copy of the corpus in memory. The
    returned trace holds the full-data objective before training and after
    each epoch; an epoch that leaves it above its initial value raises
    NumericalError. Fully deterministic given state.seed; epochs=0 returns
    the state untouched.
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
    seqs = {domain: sorted(corpora[domain], key=lambda s: s.id) for domain in domains}
    pooled = {domain: _pooled(state.encoder, domain, corpora[domain]) for domain in domains}
    for domain in domains:
        if domain not in state.sigma_hat:
            _refresh_sigma(state, domain, *pooled[domain])
    # each sequence's increments, taken once: the same rows nll_gradient would stack per batch
    incr = None if state.triplet_mode else {
        domain: [increments(seq.points) for seq in seqs[domain]] for domain in domains}
    initial = _objective(state, pooled)
    trace = [initial]
    for epoch in range(1, epochs + 1):
        for domain in domains:
            order = rng.permutation(len(seqs[domain]))
            sigma = state.sigma_hat[domain]
            for lo in range(0, len(order), state.batch_size):
                picks = order[lo:lo + state.batch_size]
                with np.errstate(over="ignore", invalid="ignore"):  # checked once, on the step
                    if incr is None:
                        batch = [seqs[domain][i] for i in picks]
                        grad = nll_gradient(state.encoder, batch, sigma,
                                            sample_triplets(batch, rng))
                    else:
                        gram = _gram([incr[domain][i] for i in picks])
                        grad = 2.0 * sigma.solve(state.encoder.weights @ gram)
                    weights = state.encoder.weights - state.step_size * grad
                if not np.isfinite(weights).all():
                    raise NumericalError(f"domain {domain!r}: a gradient step overflows float64")
                state.encoder = LinearEncoder(weights)
            _refresh_sigma(state, domain, *pooled[domain])
        current = _objective(state, pooled)
        trace.append(current)
        if current > initial:
            raise NumericalError(
                f"epoch {epoch}: objective {current} rose above its initial value {initial}"
            )
    return state, trace
