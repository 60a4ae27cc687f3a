"""Line-delimited trajectory files and JSON model files.

Trajectory corpora are JSONL: an optional header object on the first line,
then one document per line. Records stream without loading the whole corpus
into memory at once, ingestion rejects any malformed record with a
path:line diagnostic, and writers never embed timestamps so reruns produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bridge import LatentTrajectory, SpatialCovariance
from .encoder import LinearEncoder, TrainerState
from .errors import NotPositiveDefiniteError, ValidationError
from .numerics import SpdMatrix

TOOL_VERSION = f"bridgescore {__version__}"


def file_digest(path) -> str:
    """SHA-256 hex digest of a file's bytes, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class TrajectoryRecord:
    trajectory: LatentTrajectory
    label: str | None = None


def write_trajectories(path, records, meta: dict | None = None) -> None:
    """Write a trajectory corpus with a header line carrying provenance."""
    header = {"kind": "trajectories", "created_by": TOOL_VERSION}
    header.update(meta or {})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        for rec in records:
            traj = rec.trajectory
            row = {
                "id": traj.id,
                "domain": traj.domain,
                "points": [[float(v) for v in p] for p in traj.points],
            }
            if rec.label is not None:
                row["label"] = rec.label
            fh.write(_dumps(row) + "\n")


def _parse_record(path, lineno: int, row: dict) -> TrajectoryRecord:
    where = f"{path}:{lineno}"
    for key in ("id", "domain", "points"):
        if key not in row:
            raise ValidationError(f"{where}: record is missing field {key!r}")
    if not isinstance(row["id"], str) or not row["id"]:
        raise ValidationError(f"{where}: 'id' must be a nonempty string")
    if not isinstance(row["domain"], str):
        raise ValidationError(f"{where}: 'domain' must be a string")
    points = row["points"]
    if not isinstance(points, list) or len(points) < 3:
        raise ValidationError(f"{where}: 'points' must list at least 3 vectors")
    widths = {len(p) if isinstance(p, list) else -1 for p in points}
    if len(widths) != 1 or -1 in widths or widths == {0}:
        raise ValidationError(f"{where}: 'points' must be rectangular with d >= 1")
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != 2:
        raise ValidationError(f"{where}: 'points' must hold only numbers, not strings or lists")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{where}: 'points' contains a non-finite number")
    label = row.get("label")
    if label is not None and not isinstance(label, str):
        raise ValidationError(f"{where}: 'label' must be a string when present")
    traj = LatentTrajectory(id=row["id"], domain=row["domain"], points=arr)
    return TrajectoryRecord(trajectory=traj, label=label)


def read_trajectories(path) -> tuple[list[TrajectoryRecord], dict]:
    """Read a corpus, enforcing all record invariants with line diagnostics."""
    records: list[TrajectoryRecord] = []
    header: dict = {}
    seen_ids: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(row, dict):
                raise ValidationError(f"{path}:{lineno}: expected a JSON object")
            if lineno == 1 and row.get("kind") == "trajectories":
                header = row
                continue
            rec = _parse_record(path, lineno, row)
            if rec.trajectory.id in seen_ids:
                raise ValidationError(
                    f"{path}:{lineno}: duplicate id {rec.trajectory.id!r} within file"
                )
            seen_ids.add(rec.trajectory.id)
            records.append(rec)
    return records, header


@dataclass(frozen=True)
class SigmaModel:
    """A fitted spatial covariance plus its provenance metadata."""

    spatial: SpatialCovariance
    weight: int
    domain: str
    epsilon: float
    source_corpus_digest: str
    created_by: str = TOOL_VERSION

    @property
    def d(self) -> int:
        return self.spatial.dim


def write_sigma_model(path, model: SigmaModel) -> None:
    payload = {
        "kind": "sigma_model",
        "d": model.d,
        "weight": int(model.weight),
        "domain": model.domain,
        "epsilon": model.epsilon,
        "matrix": [[float(v) for v in row] for row in model.spatial.sigma.entries],
        "created_by": model.created_by,
        "source_corpus_digest": model.source_corpus_digest,
    }
    Path(path).write_text(_dumps(payload) + "\n", encoding="utf-8")


def read_sigma_model(path) -> SigmaModel:
    """Load and validate a covariance model (symmetric PD, weight >= d)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc.msg})") from exc
    for key in ("d", "weight", "matrix"):
        if key not in payload:
            raise ValidationError(f"{path}: model file is missing field {key!r}")
    d = int(payload["d"])
    matrix = np.asarray(payload["matrix"], dtype=float)
    if matrix.shape != (d, d):
        raise ValidationError(f"{path}: matrix shape {matrix.shape} does not match d={d}")
    weight = int(payload["weight"])
    if weight < d:
        raise ValidationError(f"{path}: weight {weight} is below dimension {d}")
    try:
        spd = SpdMatrix(matrix)
    except (ValidationError, NotPositiveDefiniteError) as exc:
        raise ValidationError(f"{path}: matrix is not symmetric positive-definite: {exc}") from exc
    return SigmaModel(
        spatial=SpatialCovariance(sigma=spd),
        weight=weight,
        domain=str(payload.get("domain", "")),
        epsilon=float(payload.get("epsilon", 0.0)),
        source_corpus_digest=str(payload.get("source_corpus_digest", "")),
        created_by=str(payload.get("created_by", "")),
    )


def write_trainer_state(path, state: TrainerState, extra: dict | None = None) -> None:
    payload = {
        "kind": "trainer_state",
        "created_by": TOOL_VERSION,
        "weights": [[float(v) for v in row] for row in state.encoder.weights],
        "epsilon": state.epsilon,
        "step_size": state.step_size,
        "batch_size": state.batch_size,
        "triplet_mode": state.triplet_mode,
        "shrinkage": state.shrinkage,
        "seed": state.seed,
        "sigma_hat": {
            dom: [[float(v) for v in row] for row in cov.sigma.entries]
            for dom, cov in sorted(state.sigma_hat.items())
        },
        "sigma_scalar": {dom: float(v) for dom, v in sorted(state.sigma_scalar.items())},
    }
    payload.update(extra or {})
    Path(path).write_text(_dumps(payload) + "\n", encoding="utf-8")


def read_weights(path) -> np.ndarray:
    """Read encoder weights from a trainer-state file or a bare JSON matrix."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc.msg})") from exc
    matrix = payload.get("weights") if isinstance(payload, dict) else payload
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{path}: expected a 2-d weight matrix")
    LinearEncoder(weights=arr)  # shape/finiteness validation
    return arr
