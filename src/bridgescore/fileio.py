"""Line-delimited trajectory files and JSON model files.

Trajectory corpora are JSONL: an optional header object on the first line,
then one document per line. A corpus is returned whole, as a list held in
memory. On Linux a corpus is read and written in contiguous parts, one per
CPU this process may run on, through forked children (forks):

- Reading cuts the file into byte spans of lines, none under SPAN_FLOOR
  bytes (4 MiB). This process parses the first span; a child opens the
  file itself, parses and validates its span and pickles its records back.
- Writing cuts the records into runs of about equal coordinate count, none
  under WRITE_FLOOR coordinates (50k). This process formats the first run;
  a child formats its run and pickles the lines back. Only this process
  writes: the header, then each run's lines in order. Nothing seeks, so
  the output may be a pipe.

Records, errors and written bytes are the same for any number of parts,
and a child that fails costs time, not output: its part is redone here.
Ingestion rejects any malformed record with a path:line diagnostic, and
writers never embed timestamps so reruns produce byte-identical files.

Corpus lines are parsed with orjson. The standard json module parses any
line that orjson rejects, that could nest deeper than _DEEPEST, or that is
not a plain valid record (_plain_record), and words its diagnostic, so
records and errors are those of a read by json alone. json also writes
every file and reads model and trainer-state files: orjson would read
integers past 64 bits as floats, and write float exponents without their
'+'.
"""

from __future__ import annotations

import errno
import functools
import hashlib
import json
import os
import pickle
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import orjson

from . import __version__, forks
from .bridge import LatentTrajectory, SpatialCovariance
from .encoder import LinearEncoder, TrainerState
from .errors import NotPositiveDefiniteError, ValidationError
from .numerics import SpdMatrix

TOOL_VERSION = f"bridgescore {__version__}"


def _feed(fh, digest):
    """digest fed the rest of fh, read in 1 MiB chunks."""
    while chunk := fh.read(1 << 20):
        digest.update(chunk)
    return digest


def file_digest(path) -> str:
    """SHA-256 hex digest of a file's bytes."""
    with open(path, "rb") as fh:
        return _feed(fh, hashlib.sha256()).hexdigest()


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


# Coordinates per part below which a forked writer costs more than it saves.
WRITE_FLOOR = 50_000


def _lines(records) -> list[str]:
    """records as corpus lines, each ending in a newline."""
    out = []
    for rec in records:
        traj = rec.trajectory
        row = {"id": traj.id, "domain": traj.domain, "points": traj.points.tolist()}
        if rec.label is not None:
            row["label"] = rec.label
        out.append(_dumps(row) + "\n")
    return out


def write_trajectories(path, records, meta: dict | None = None) -> None:
    """Write a trajectory corpus with a header line carrying provenance.

    The records are cut into contiguous parts of about equal coordinate
    count (forks.cut); this process formats the first while forked children
    format the others, and writes the header and then every part's lines in
    part order, dropping each part before it takes the next. Only this
    process writes, and never seeks, so path may be a pipe.
    """
    header = {"kind": "trajectories", "created_by": TOOL_VERSION}
    header.update(meta or {})
    records = list(records)
    sizes = [rec.trajectory.points.size for rec in records]
    parts = forks.cut(sizes, forks.process_count(sum(sizes), WRITE_FLOOR))
    with open_output(path) as fh:
        fh.write(_dumps(header) + "\n")
        with forks.forked(parts, lambda part: _lines(records[part])) as texts:
            for lines in texts:
                fh.writelines(lines)
                del lines


# Corpus text per span below which a process costs more than it saves.
SPAN_FLOOR = 4 << 20


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


# The fields a record reads: a line with any other key, such as a header, is left to json.
_FIELDS = frozenset(("id", "domain", "points", "label"))

# Nesting depth past which orjson is not asked to parse a line. orjson recurses
# on the C stack, some 60 bytes a level, with no depth limit of its own: a line
# nested about 150k deep overflows an 8 MiB stack, where json raises
# RecursionError near Python's recursion limit.
_DEEPEST = 10_000


def _shallow(raw: bytes) -> bool:
    """True when raw holds at most _DEEPEST '[' and '{' bytes, so nests no deeper."""
    if len(raw) <= _DEEPEST:
        return True
    # '[' | 0x20 is '{', and no other byte ORs to it
    return np.count_nonzero(np.frombuffer(raw, np.uint8) | 0x20 == ord("{")) <= _DEEPEST


def _plain_record(path, lineno: int, line: str) -> TrajectoryRecord | None:
    """line as a record parsed by orjson, or None when json must decide the line.

    json decides a line that orjson rejects (NaN, Infinity, numbers past
    float range, lone surrogate escapes), a row with a key beyond _FIELDS,
    and an invalid record, and words any diagnostic, so that orjson's
    nesting limit never decides one. A record accepted here is the one
    json's value gives: both round decimals to the same float, and an
    integer past 64 bits, which orjson reads as a float, becomes that float
    in points.
    """
    try:
        row = orjson.loads(line)
    except orjson.JSONDecodeError:
        return None
    if type(row) is not dict or not row.keys() <= _FIELDS:
        return None
    try:
        return _parse_record(path, lineno, row, line)
    except ValidationError:
        return None


def _json_value(text: str, where: str):
    """text parsed as JSON; malformed, too deeply nested or over-long numbers are rejected."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where}: invalid JSON ({exc.msg})") from exc
    except (ValueError, RecursionError) as exc:  # past the int digit limit or the nesting limit
        raise ValidationError(f"{where}: invalid JSON ({exc})") from exc


def _cut(fh, size: int, n: int) -> list[tuple[int, int | None]]:
    """At most n contiguous (start, end) byte spans of fh's size bytes, each ending after a newline.

    The last span's end is None: it runs to the end of the file. fh is left
    at its start, and is not moved for one span, so that a pipe can be read.
    """
    starts = [0]
    for k in range(1, n):
        fh.seek(max(0, k * size // n - 1))
        fh.readline()
        if starts[-1] < fh.tell() < size:
            starts.append(fh.tell())
    if n > 1:
        fh.seek(0)
    return list(zip(starts, [*starts[1:], None]))


def _read_span(fh, path, span: tuple[int, int | None], digest=None):
    """One span of fh parsed: (header, [(line, record)], error, lines read).

    Lines are numbered from the span's start and split as universal newlines
    split them. Parsing stops at the first error, given as (line, message
    after its 'path:line' prefix), or None, so that the caller can number
    it from the start of the file. digest, a hashlib hash, is fed the bytes
    read, when given.
    """
    start, end = span
    if start:
        fh.seek(start)
    header, rows, lineno, pos = {}, [], 0, start
    for raw in fh:
        if digest is not None:
            digest.update(raw)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return header, rows, (lineno + 1, f": cannot read file ({exc})"), lineno + 1
        shallow = _shallow(raw)
        for line in text.replace("\r\n", "\n").split("\r") if "\r" in text else (text,):
            lineno += 1
            line = line.strip()
            if not line:
                continue
            rec = _plain_record(path, lineno, line) if shallow else None
            if rec is not None:
                rows.append((lineno, rec))
                continue
            where = f"{path}:{lineno}"
            try:
                row = _json_value(line, where)
                if not isinstance(row, dict):
                    raise ValidationError(f"{where}: expected a JSON object")
                if start == 0 and lineno == 1 and row.get("kind") == "trajectories":
                    header = row
                    continue
                rows.append((lineno, _parse_record(path, lineno, row, line)))
            except ValidationError as exc:
                return header, rows, (lineno, str(exc)[len(where):]), lineno
        pos += len(raw)
        if pos == end:
            break
    return header, rows, None, lineno


def _send_span(path, span, pipe) -> None:
    """A reading child's work: its span of path, parsed and pickled."""
    with open(path, "rb") as fh:
        pickle.dump(_read_span(fh, path, span), pipe, protocol=pickle.HIGHEST_PROTOCOL)


def read_trajectories(path, digest=None) -> tuple[list[TrajectoryRecord], dict]:
    """Read a corpus, enforcing all record invariants with line diagnostics.

    The file is cut into spans; this process parses the first while forked
    children parse the others. Records are merged and ids checked for
    duplicates in line order, so the records, and the first error, are
    those of one line-by-line read. digest, a hashlib hash, is fed every
    byte of the file when given: as they are parsed when the file is one
    span, as a pipe is, which cannot be read twice; else read again.
    """
    records: list[TrajectoryRecord] = []
    header: dict = {}
    seen_ids: set[str] = set()
    offset = 0  # lines before the span
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            spans = _cut(fh, size, forks.process_count(size, SPAN_FLOOR))
            whole = digest if len(spans) == 1 else None
            with forks.forked(spans, lambda span: _read_span(fh, path, span, whole),
                              functools.partial(_send_span, path)) as parts:
                for head, rows, error, lines in parts:
                    header = header or head
                    for lineno, rec in rows:
                        if rec.trajectory.id in seen_ids:
                            raise ValidationError(f"{path}:{offset + lineno}: duplicate id "
                                                  f"{rec.trajectory.id!r} within file")
                        seen_ids.add(rec.trajectory.id)
                        records.append(rec)
                    if error is not None:
                        raise ValidationError(f"{path}:{offset + error[0]}{error[1]}")
                    offset += lines
            if digest is not None and whole is None:
                fh.seek(0)
                _feed(fh, digest)
    except OSError as exc:
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
