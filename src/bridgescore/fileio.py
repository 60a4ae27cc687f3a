"""Line-delimited trajectory files and JSON model files.

Trajectory corpora are JSONL: an optional header object on the first line,
then one document per line. A corpus is returned whole, as a list held in
memory. Ingestion rejects any malformed record, a duplicate id and a record
whose d differs from the first's with a path:line diagnostic.

On Linux a corpus is read in up to one process per CPU this process may run
on. The file is cut into byte spans of whole lines, none under SPAN_FLOOR
bytes (8 MiB), so a corpus under 16 MiB is read in one process. This
process parses the first span; a forked child (_Child) per other span opens
the file itself, parses and validates its span and pickles its records back
through a pipe. Records and errors are the same for any number of spans,
and a child that fails costs time, not output: its span is parsed here.

Each corpus line is parsed once, by one rule wherever it sits; a header is
parsed like any record line, and no command reads its values. orjson is
handed the bytes of every line that universal newlines keep whole, one with
no '\r' but a final CRLF's, nested no deeper than _DEEPEST; it skips JSON
whitespace around the value and checks the UTF-8 itself. Every other line,
and every line whose bytes orjson rejects, is decoded (bytes that are not
UTF-8 are a 'cannot read file' error), split on '\r' as universal newlines
split it, stripped, and parsed by the standard json module alone: NaN,
Infinity, numbers past float range, lone surrogate escapes, padding that
strip removes and JSON does not (a form feed, a no-break space) and lines
that could nest deeper are json's. Where orjson parses a line, json's value
is the same in every field a record reads, so records and errors are those
of a read by json alone, except on a line orjson is handed: one nested past
json's recursion limit, which depends on the stack in use, is judged on
orjson's value, and a header's integer past 64 bits reads back as orjson's
float. json reads model and trainer-state files.

Every file is written in this process by one writer, write_lines, with
the bytes of json.dumps with sorted keys and compact separators, each line
ended by b'\n' on every platform. Lines are built as bytes and written to a
binary file, never decoded or encoded again. Float arrays are spelled by
orjson, which spells 0 and every |x| in [1e-4, 1e16) as json does; each
other finite value, found by a numpy mask, is respelled alone by
float.__repr__ (_floats). Writers embed no timestamps, so reruns produce
byte-identical files.

A model file is one JSON object. read_sigma_model validates d, weight,
epsilon and matrix, but returns only what commands read back: the matrix,
source_corpus_digest for score's in-sample guard, and the SHA-256 of the
bytes it parsed, which score records as the model's provenance. domain and
created_by are provenance alone.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import pickle
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import orjson

from . import __version__
from .bridge import LatentTrajectory
from .errors import NotPositiveDefiniteError, ValidationError
from .numerics import SpdMatrix

if TYPE_CHECKING:  # the encoder loads with the commands that train
    from .encoder import TrainerState

TOOL_VERSION = f"bridgescore {__version__}"


def _floats(arr: np.ndarray) -> bytes:
    """arr, a float array of one or more dimensions, as json.dumps spells arr.tolist() compactly.

    orjson spells 0 and every |x| in [1e-4, 1e16) as json does, but writes
    1e16, 1e-7 and 0.00005 where json writes 1e+16, 1e-07 and 5e-05. A numpy
    mask finds those finite values, and each is spelled again by
    float.__repr__, json's own spelling; every other token keeps orjson's,
    and a non-finite value stays orjson's null. The k-th row along the last
    axis ends the k-th nonempty piece of orjson's bytes split on ']', its
    tokens split on ','.
    """
    arr = np.ascontiguousarray(arr, dtype=float)
    text = orjson.dumps(arr, option=orjson.OPT_SERIALIZE_NUMPY)
    if not arr.size:
        return text
    rows = arr.reshape(-1, arr.shape[-1])
    mag = np.abs(rows)
    odd = ((0 < mag) & (mag < 1e-4)) | ((1e16 <= mag) & (mag < np.inf))
    hit = np.flatnonzero(odd.any(axis=1))
    if not hit.size:
        return text
    pieces = text.split(b"]")
    at = [i for i, piece in enumerate(pieces) if piece]
    for k in hit.tolist():
        piece = pieces[at[k]]
        cut = piece.rfind(b"[") + 1
        tokens = piece[cut:].split(b",")
        cols = np.flatnonzero(odd[k])
        for j, value in zip(cols.tolist(), rows[k, cols].tolist()):
            tokens[j] = repr(value).encode()
        pieces[at[k]] = piece[:cut] + b",".join(tokens)
    return b"]".join(pieces)


def _dumps(obj) -> bytes:
    """obj as json.dumps spells it with sorted keys and compact separators; arrays via _floats."""
    if isinstance(obj, np.ndarray):
        return _floats(obj)
    if isinstance(obj, dict) and any(isinstance(v, (dict, np.ndarray)) for v in obj.values()):
        return b"{" + b",".join(
            json.dumps(k).encode() + b":" + _dumps(v) for k, v in sorted(obj.items())) + b"}"
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _file_error(path, exc: Exception, action: str) -> ValidationError:
    """A missing, unreadable, unwritable or non-UTF-8 file as a path: diagnostic."""
    reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
    return ValidationError(f"{path}: cannot {action} file ({reason})")


def check_writable(path) -> None:
    """write_lines's path: error for a path it could not create, raised before any work."""
    target = Path(path)
    code = (errno.EISDIR if target.is_dir()
            else errno.ENOENT if not target.parent.is_dir()
            else None if os.access(target if target.exists() else target.parent, os.W_OK)
            else errno.EACCES)
    if code is not None:
        raise _file_error(path, OSError(code, os.strerror(code)), "write")


def write_lines(path, header: dict, rows=()) -> None:
    """Write header, stamped with created_by unless it has one, then each row, a line each.

    Lines are written as they are spelled. Any OSError from open, write or
    close, such as a full disk or a closed pipe, is a path: error.
    """
    try:
        with open(path, "wb") as fh:
            fh.write(_dumps({"created_by": TOOL_VERSION, **header}) + b"\n")
            for row in rows:
                fh.write(_dumps(row) + b"\n")
    except OSError as exc:
        raise _file_error(path, exc, "write") from exc


@dataclass(frozen=True)
class TrajectoryRecord:
    trajectory: LatentTrajectory
    label: str | None = None


def write_trajectories(path, records, meta: dict | None = None) -> None:
    """Write a trajectory corpus: a header line carrying provenance, then one line per record."""
    write_lines(path, {"kind": "trajectories", **(meta or {})}, (
        {"id": rec.trajectory.id, "domain": rec.trajectory.domain, "points": rec.trajectory.points,
         **({} if rec.label is None else {"label": rec.label})} for rec in records))


# Corpus bytes a process reads at least. A fork should cut wall time by more
# than the CPU time it adds. A read alone, forked against one process on 2
# vCPUs (T 20..60, medians of 10 alternating pairs of wall cut / CPU added):
# 10.1 MB at d=64, 0.007 / 0.044 s; 20.4 MB at d=64, 0.022 / 0.077 s;
# 24.4 MB at d=256, 0.053 / 0.063 s; 38.1 MB at d=16, 0.060 / 0.173 s. End to
# end, fit of a 23.2 MB d=256 corpus read in one process took 0.592 s against
# 0.512 s forked (6 of 6 pairs) for 0.040 s less CPU. So under 16 MiB a read
# runs in one process, and from 16 MiB a child is forked.
SPAN_FLOOR = 8 << 20


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


def _parse_record(path, lineno: int, row: dict, raw: bytes) -> TrajectoryRecord:
    """row, parsed from raw, a line's bytes or more, as a record; a path:line error if malformed."""
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
    # 'u' and 'f' are in no number and no key a record reads, so the full searches
    # for true and false run only on the rare line with a string holding them
    arr = _matrix(points, exact=b"u" in raw and b"true" in raw or b"f" in raw and b"false" in raw)
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
    """One span of fh parsed: (header, [(line, record)], lines, error).

    Lines are numbered from the span's start and split as universal newlines
    split them. Parsing stops at the first error: error is then its message
    after the 'path:line' prefix and lines its line, so that the caller can
    number it from the start of the file; otherwise error is None and lines
    the count of lines read. digest, a hashlib hash, is fed the bytes read
    and then, once the span parses, the rest of the file, when given.
    """
    start, end = span
    if start:
        fh.seek(start)
    header, rows, lineno, pos = {}, [], 0, start
    for raw in fh:
        values = None  # nothing parsed from raw yet
        if digest is not None:
            digest.update(raw)
        cr = raw.find(b"\r")
        # one line as universal newlines split it: no '\r' but a final CRLF's
        if (cr < 0 or cr == len(raw) - 2 and raw.endswith(b"\n")) and _shallow(raw):
            try:
                values = (orjson.loads(raw),)
            except orjson.JSONDecodeError:
                pass  # its text is judged by json alone
        texts = values is None
        if texts:
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return header, rows, lineno + 1, f": cannot read file ({exc})"
            values = text.replace("\r\n", "\n").split("\r") if "\r" in text else (text,)
        for row in values:  # orjson's value, or the text of each line
            lineno += 1
            where = f"{path}:{lineno}"
            try:
                if texts:
                    row = row.strip()
                    if not row:
                        continue
                    row = _json_value(row, where)
                if not isinstance(row, dict):
                    raise ValidationError(f"{where}: expected a JSON object")
                if not start and lineno == 1 and row.get("kind") == "trajectories":
                    header = row
                    continue
                rows.append((lineno, _parse_record(path, lineno, row, raw)))
                del row  # frees its lists of floats before the next line is parsed
            except ValidationError as exc:
                return header, rows, lineno, str(exc)[len(where):]
        pos += len(raw)
        if pos == end:
            break
    if digest is not None:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return header, rows, lineno, None


def _span_count(size: int) -> int:
    """How many spans a corpus of size bytes is read in: one per CPU, none under SPAN_FLOOR.

    Only Linux reads in spans: Windows has no fork, and macOS makes it
    unsafe once system libraries have started threads.
    """
    if sys.platform != "linux":
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), size // SPAN_FLOOR))


def _send(result, pipe) -> None:
    pickle.dump(result, pipe, protocol=pickle.HIGHEST_PROTOCOL)


class _Child:
    """A forked process that parses one span of the corpus at path and pickles it to .pipe.

    The child opens the file itself, so that it does not move the offset of
    the file this process reads, and leaves through os._exit whatever
    happens, as the CLI's own process does once its command returns
    (cli.entry_point): it never returns into the caller, runs its cleanup or
    flushes buffers it inherited. It exits 0 only when its result was sent
    and the pipe closed. The child only parses; it makes no BLAS call. The
    CLI runs BLAS on one thread, so it forks from a process with no other
    threads. A library caller may read a big corpus while OpenBLAS's thread
    pool runs, and the fork stays safe then, as OpenBLAS stops its pool
    before a fork (test_fileio_spans.py::test_forks_after_blas_threads_started).
    Spawn would cost a fresh interpreter and numpy import per child.
    """

    def __init__(self, path, span: tuple[int, int | None]):
        self.path, self.span = path, span
        r, w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:  # no process to spare: result() parses the span here
            self.pid = None
        if self.pid == 0:
            status = 1
            try:
                os.close(r)
                with open(w, "wb") as pipe:
                    _send(self._parse(), pipe)
                status = 0
            finally:
                os._exit(status)
        os.close(w)
        self.pipe = open(r, "rb")

    def _parse(self):
        with open(self.path, "rb") as own:
            return _read_span(own, self.path, self.span)

    def result(self):
        """The span parsed: the child's pickle once it exits 0, else parsed in this process."""
        try:
            got = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):  # the child died before it sent everything
            got = None
        pid, self.pid = self.pid, None
        self.pipe.close()
        if pid is not None and os.waitpid(pid, 0)[1] == 0 and got is not None:
            return got
        return self._parse()

    def stop(self) -> None:
        """Kill and reap the child if result() has not reaped it."""
        self.pipe.close()
        if self.pid is not None:
            import signal  # loaded only by a read that stops early
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def read_trajectories(path, digest=None) -> tuple[list[TrajectoryRecord], dict]:
    """Read a corpus, enforcing all record invariants with line diagnostics.

    The file is cut into spans (_span_count); this process parses the first
    while a forked child parses each other one. Records are merged, and ids
    and d checked against earlier records, in line order, so the records,
    and the first error, are those of one line-by-line read. digest, a
    hashlib hash, is fed every byte of the file once when given: the first
    span's as they are parsed (all of them for one span, as for a pipe,
    which cannot be read twice), then the rest while the children parse it.
    Children still running when the read stops are killed.
    """
    records: list[TrajectoryRecord] = []
    header: dict = {}
    seen_ids: set[str] = set()
    offset = 0  # lines before the span
    children: list[_Child] = []
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            first, *rest = _cut(fh, size, _span_count(size))
            for span in rest:
                children.append(_Child(path, span))
            spans = chain([_read_span(fh, path, first, digest)], (c.result() for c in children))
            for head, rows, lines, error in spans:
                header = header or head
                for lineno, rec in rows:
                    traj = rec.trajectory
                    if traj.id in seen_ids:
                        problem = f"duplicate id {traj.id!r} within file"
                    elif records and traj.d != records[0].trajectory.d:
                        problem = (f"trajectory {traj.id!r} has d={traj.d}, expected "
                                   f"{records[0].trajectory.d} like the records before it")
                    else:
                        seen_ids.add(traj.id)
                        records.append(rec)
                        continue
                    raise ValidationError(f"{path}:{offset + lineno}: {problem}")
                if error is not None:
                    raise ValidationError(f"{path}:{offset + lines}{error}")
                offset += lines
    except OSError as exc:
        raise _file_error(path, exc, "read") from exc
    finally:
        for child in children:
            child.stop()
    return records, header


@dataclass(frozen=True)
class SigmaModel:
    """A fitted spatial covariance, the digest of the corpus it was fitted on, and its file's."""

    spatial: SpdMatrix
    source_corpus_digest: str
    digest: str  # SHA-256 hex of the model file's bytes, as read_sigma_model parsed them

    @property
    def d(self) -> int:
        return self.spatial.dim


def write_sigma_model(path, spatial: SpdMatrix, *, weight: int, domain: str, epsilon: float,
                      source_corpus_digest: str) -> None:
    write_lines(path, {
        "kind": "sigma_model",
        "d": spatial.dim,
        "weight": int(weight),
        "domain": domain,
        "epsilon": epsilon,
        "matrix": spatial.entries,
        "source_corpus_digest": source_corpus_digest,
    })


def _load_json(path, digest=None):
    """The JSON value of the file at path; digest, a hashlib hash, is fed its bytes when given.

    The bytes are read once. JSON takes '\r' and '\n' alike, so the text
    parses as universal newlines would have read it.
    """
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _file_error(path, exc, "read") from exc
    if digest is not None:
        digest.update(data)
    return _json_value(text, str(path))


def read_sigma_model(path) -> SigmaModel:
    """Load and validate a covariance model (symmetric PD, integer weight >= d, finite epsilon)."""
    sha = hashlib.sha256()
    payload = _load_json(path, sha)
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
        raise ValidationError(f"{path}: weight {weight} is below d={d}")
    try:
        spd = SpdMatrix(matrix)
    except (ValidationError, NotPositiveDefiniteError) as exc:
        raise ValidationError(f"{path}: matrix is not symmetric positive-definite: {exc}") from exc
    return SigmaModel(spd, str(payload.get("source_corpus_digest", "")), sha.hexdigest())


def write_trainer_state(path, state: TrainerState, extra: dict | None = None) -> None:
    write_lines(path, {
        "kind": "trainer_state",
        "weights": state.encoder.weights,
        "epsilon": state.epsilon,
        "step_size": state.step_size,
        "batch_size": state.batch_size,
        "triplet_mode": state.triplet_mode,
        "seed": state.seed,
        "sigma_hat": {
            dom: cov.entries for dom, cov in sorted(state.sigma_hat.items())
        },
        "sigma_scalar": {dom: float(v) for dom, v in sorted(state.sigma_scalar.items())},
        **(extra or {}),
    })


def read_weights(path) -> np.ndarray:
    """Read encoder weights from a trainer-state file or a bare JSON matrix."""
    from .encoder import LinearEncoder
    payload = _load_json(path)
    arr = _matrix(payload.get("weights") if isinstance(payload, dict) else payload)
    if arr is None:
        raise ValidationError(f"{path}: expected a 2-d weight matrix of numbers")
    try:
        LinearEncoder(weights=arr)  # shape/finiteness validation
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return arr
