"""Line-delimited trajectory files and JSON model files.

Trajectory corpora are JSONL: an optional header object on the first line,
then one document per line. A corpus is read line by line but returned
whole, as a list held in memory. Ingestion rejects any malformed record
with a path:line diagnostic, and writers never embed timestamps so reruns
produce byte-identical files.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import sys
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


def _file_error(path, exc: Exception, action: str) -> ValidationError:
    """A missing, unreadable, unwritable or non-UTF-8 file as a path: diagnostic."""
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    return ValidationError(f"{path}: cannot {action} file ({reason})")


def check_writable(path) -> None:
    """open_output's path: error for a path it could not create, raised before any work."""
    target = Path(path)
    code = (errno.EISDIR if target.is_dir()
            else errno.ENOENT if not target.parent.is_dir()
            else None if os.access(target if target.exists() else target.parent, os.W_OK)
            else errno.EACCES)
    if code is not None:
        raise _file_error(path, OSError(code, os.strerror(code)), "write")


def open_output(path):
    """path opened for writing UTF-8 text; a file that cannot be created is a path: error."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:  # a missing directory, a directory, no permission
        raise _file_error(path, exc, "write") from exc


@dataclass(frozen=True)
class TrajectoryRecord:
    trajectory: LatentTrajectory
    label: str | None = None


def write_trajectories(path, records, meta: dict | None = None) -> None:
    """Write a trajectory corpus with a header line carrying provenance."""
    header = {"kind": "trajectories", "created_by": TOOL_VERSION}
    header.update(meta or {})
    with open_output(path) as fh:
        fh.write(_dumps(header) + "\n")
        for rec in records:
            traj = rec.trajectory
            row = {
                "id": traj.id,
                "domain": traj.domain,
                "points": traj.points.tolist(),
            }
            if rec.label is not None:
                row["label"] = rec.label
            fh.write(_dumps(row) + "\n")


def _matrix(value, exact: bool = True) -> np.ndarray | None:
    """value as a 2-d float array if it is a list of equal-length lists of JSON numbers.

    Returns None otherwise. null becomes NaN, left for the caller's
    finiteness check. numpy alone would also take true/false and numeric
    strings as numbers: a per-element check rejects them, which exact=False
    skips when numpy found plain numbers, for callers that know the source
    text has no true/false literal.
    """
    try:
        arr = np.asarray(value)
        if arr.ndim != 2:
            return None
        if exact or arr.dtype.kind not in "fi":
            if not all(v is None or type(v) in (int, float) for row in value for v in row):
                return None
        return arr.astype(float, copy=False)
    except (ValueError, OverflowError):  # ragged or unevenly nested; an integer beyond float
        return None


def _parse_record(path, lineno: int, row: dict, line: str) -> TrajectoryRecord:
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
    arr = _matrix(points, exact="true" in line or "false" in line)
    if arr is None:
        raise ValidationError(
            f"{where}: 'points' must hold only numbers, not strings, booleans or lists"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{where}: 'points' contains a non-finite number")
    label = row.get("label")
    if label is not None and not isinstance(label, str):
        raise ValidationError(f"{where}: 'label' must be a string when present")
    traj = LatentTrajectory(id=row["id"], domain=row["domain"], points=arr)
    return TrajectoryRecord(trajectory=traj, label=label)


def _json_value(text: str, where: str):
    """text parsed as JSON; malformed, too deeply nested or over-long numbers are rejected."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where}: invalid JSON ({exc.msg})") from exc
    except (ValueError, RecursionError) as exc:  # past the int digit limit or the nesting limit
        raise ValidationError(f"{where}: invalid JSON ({exc})") from exc


def read_trajectories(path) -> tuple[list[TrajectoryRecord], dict]:
    """Read a corpus, enforcing all record invariants with line diagnostics."""
    records: list[TrajectoryRecord] = []
    header: dict = {}
    seen_ids: set[str] = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                row = _json_value(line, f"{path}:{lineno}")
                if not isinstance(row, dict):
                    raise ValidationError(f"{path}:{lineno}: expected a JSON object")
                if lineno == 1 and row.get("kind") == "trajectories":
                    header = row
                    continue
                rec = _parse_record(path, lineno, row, line)
                if rec.trajectory.id in seen_ids:
                    raise ValidationError(
                        f"{path}:{lineno}: duplicate id {rec.trajectory.id!r} within file"
                    )
                seen_ids.add(rec.trajectory.id)
                records.append(rec)
    except (OSError, UnicodeDecodeError) as exc:
        raise _file_error(path, exc, "read") from exc
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
        "matrix": model.spatial.sigma.entries.tolist(),
        "created_by": model.created_by,
        "source_corpus_digest": model.source_corpus_digest,
    }
    with open_output(path) as fh:
        fh.write(_dumps(payload) + "\n")


def _load_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _file_error(path, exc, "read") from exc
    return _json_value(text, str(path))


def read_sigma_model(path) -> SigmaModel:
    """Load and validate a covariance model (symmetric PD, weight >= d)."""
    payload = _load_json(path)
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: model file must hold a JSON object")
    for key in ("d", "weight", "matrix"):
        if key not in payload:
            raise ValidationError(f"{path}: model file is missing field {key!r}")
    d, weight, epsilon = payload["d"], payload["weight"], payload.get("epsilon", 0.0)
    for key, value in (("d", d), ("weight", weight)):
        if type(value) is not int:
            raise ValidationError(f"{path}: {key!r} must be an integer, got {value!r}")
    if type(epsilon) not in (int, float) or not abs(epsilon) <= sys.float_info.max:
        raise ValidationError(f"{path}: 'epsilon' must be a finite number, got {epsilon!r}")
    matrix = _matrix(payload["matrix"])
    if matrix is None:
        raise ValidationError(f"{path}: 'matrix' must be a list of equal-length rows of numbers")
    if matrix.shape != (d, d):
        raise ValidationError(f"{path}: matrix shape {matrix.shape} does not match d={d}")
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
        epsilon=float(epsilon),
        source_corpus_digest=str(payload.get("source_corpus_digest", "")),
        created_by=str(payload.get("created_by", "")),
    )


def write_trainer_state(path, state: TrainerState, extra: dict | None = None) -> None:
    payload = {
        "kind": "trainer_state",
        "created_by": TOOL_VERSION,
        "weights": state.encoder.weights.tolist(),
        "epsilon": state.epsilon,
        "step_size": state.step_size,
        "batch_size": state.batch_size,
        "triplet_mode": state.triplet_mode,
        "shrinkage": state.shrinkage,
        "seed": state.seed,
        "sigma_hat": {
            dom: cov.sigma.entries.tolist() for dom, cov in sorted(state.sigma_hat.items())
        },
        "sigma_scalar": {dom: float(v) for dom, v in sorted(state.sigma_scalar.items())},
    }
    payload.update(extra or {})
    with open_output(path) as fh:
        fh.write(_dumps(payload) + "\n")


def read_weights(path) -> np.ndarray:
    """Read encoder weights from a trainer-state file or a bare JSON matrix."""
    payload = _load_json(path)
    arr = _matrix(payload.get("weights") if isinstance(payload, dict) else payload)
    if arr is None:
        raise ValidationError(f"{path}: expected a 2-d weight matrix of numbers")
    try:
        LinearEncoder(weights=arr)  # shape/finiteness validation
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return arr
