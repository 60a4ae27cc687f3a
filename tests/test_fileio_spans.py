"""Corpora read in spans: the same records and errors for any span count.

A span floor of one byte and a patched CPU set fix how many spans a corpus
is cut into, so that two and three spans, and the forked children they
start, run on small files and on a host with any number of CPUs.
"""

import errno
import hashlib
import json
import os
import pickle
import sys
import threading

import numpy as np
import pytest

import bridgescore.fileio as fileio
from bridgescore import SpdMatrix, ValidationError
from bridgescore.bridge import increments, quadratic_form
from bridgescore.fileio import _span_count, read_trajectories, write_trajectories

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="only Linux forks span readers")

HEADER = {"kind": "trajectories", "created_by": "bridgescore test", "seed": 4}


def rows(n=9, ids="doc-{}"):
    """n corpus rows of about equal length, with two domains and some labels."""
    rng = np.random.default_rng(3)
    out = []
    for i in range(n):
        row = {"id": ids.format(i), "domain": "ab"[i % 2],
               "points": rng.standard_normal((5, 3)).tolist()}
        if i % 3:
            row["label"] = ["low", "high"][i % 2]
        out.append(row)
    return out


def lines(rows_):
    return [json.dumps(row, ensure_ascii=False) for row in rows_]


def summary(records):
    return [(r.trajectory.id, r.trajectory.domain, r.label, r.trajectory.points.shape,
             r.trajectory.points.tobytes()) for r in records]


def expected(rows_):
    return [(r["id"], r["domain"], r.get("label"), (5, 3), np.array(r["points"]).tobytes())
            for r in rows_]


def at(n, call, *args):
    """call(*args) on a host with n CPUs and a one-byte span floor: n spans from n bytes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "SPAN_FLOOR", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        return call(*args)


def outcome(path, n):
    """What reading path at n spans gives: its records and header, or the error message."""
    try:
        records, header = at(n, read_trajectories, path)
    except ValidationError as exc:
        return str(exc)
    assert all(not r.trajectory.points.flags.writeable for r in records)
    return summary(records), header


HEADER_LINE = json.dumps(HEADER)
CORPORA = {
    "header": ("\n".join([HEADER_LINE, *lines(rows())]) + "\n", rows(), HEADER),
    "no header, no final newline": ("\n".join(lines(rows())), rows(), {}),
    "blank lines": ("\n".join([HEADER_LINE, "", *lines(rows())[:4], "  ", "",
                              *lines(rows())[4:], "", ""]), rows(), HEADER),
    "CRLF": ("\r\n".join([HEADER_LINE, *lines(rows())]) + "\r\n", rows(), HEADER),
    "CR": ("\r".join([HEADER_LINE, *lines(rows())]) + "\r", rows(), HEADER),
    "non-ASCII ids": ("\n".join(lines(rows(ids="文書-{}-ü"))), rows(ids="文書-{}-ü"), {}),
}


def corpus_file(path):
    path.write_bytes(CORPORA["header"][0].encode())
    return path


@pytest.mark.parametrize("name", CORPORA)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_records_do_not_depend_on_span_count(tmp_path, children, name, n):
    text, rows_, header = CORPORA[name]
    path = tmp_path / "c.jsonl"
    path.write_bytes(text.encode())
    assert outcome(path, n) == (expected(rows_), header)
    assert len(children) == (n - 1 if "\n" in text else 0)  # spans end on a newline
    assert all(child.sent for child in children)


def test_cut_points_in_one_line_start_one_span(tmp_path, children):
    # at 3 spans both cut points fall inside the long middle line: the span after it is
    # started once, and the last document is read once
    rows_ = rows(3)
    rows_[1]["domain"] = "b" * 4000
    path = tmp_path / "c.jsonl"
    path.write_bytes(("\n".join(lines(rows_)) + "\n").encode())
    assert outcome(path, 3) == outcome(path, 1) == (expected(rows_), {})
    assert [child.sent for child in children] == [True]


def corrupt(edits: dict[int, bytes]) -> bytes:
    """Nine rows, no header, with the given 1-based lines replaced."""
    out = [line.encode() for line in lines(rows())]
    for lineno, line in edits.items():
        out[lineno - 1] = line
    return b"\n".join(out) + b"\n"


NINTH = lines(rows())[8].encode()
NARROW = json.dumps({"id": "doc-n", "domain": "a", "points": [[0.5, 1], [2, 3], [4, 5]]}).encode()
ERRORS = {
    "bad lines in the first and last spans": (
        corrupt({2: b'{"id": "x"}', 9: b"[1, 2]"}), "2: record is missing field 'domain'"),
    "bad line in the last span": (corrupt({9: b"[1, 2]"}), "9: expected a JSON object"),
    "duplicate id across spans": (
        corrupt({9: NINTH.replace(b'"doc-8"', b'"doc-0"')}),
        "9: duplicate id 'doc-0' within file"),
    "duplicate id before a bad line": (
        corrupt({8: NINTH.replace(b'"doc-8"', b'"doc-0"'), 9: b"{"}),
        "8: duplicate id 'doc-0' within file"),
    "another d in the last span": (
        corrupt({9: NARROW}), "9: trajectory 'doc-n' has d=2, expected 3 like the records "
                              "before it"),
    "another d before a duplicate id": (
        corrupt({7: NARROW, 9: NINTH.replace(b'"doc-8"', b'"doc-0"')}),
        "7: trajectory 'doc-n' has d=2, expected 3 like the records before it"),
    "non-UTF-8 byte in the last span": (
        corrupt({9: NINTH.replace(b'"doc-8"', b'"doc-\xff"')}),
        "9: cannot read file ('utf-8' codec can't decode byte 0xff in position 12: "
        "invalid start byte)"),
}


@pytest.mark.parametrize("name", ERRORS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_errors_do_not_depend_on_span_count(tmp_path, children, name, n):
    data, message = ERRORS[name]
    path = tmp_path / "c.jsonl"
    path.write_bytes(data)
    assert outcome(path, n) == f"{path}:{message}"


@pytest.mark.parametrize("partial", [False, True])
def test_failed_reading_child_costs_no_output(tmp_path, monkeypatch, children, partial):
    path = corpus_file(tmp_path / "c.jsonl")
    want = outcome(path, 1)

    def fail(result, pipe):
        if partial:  # a pickle cut short, as from a child killed while it sends
            data = pickle.dumps(result)
            pipe.write(data[:len(data) // 2])
            pipe.flush()
        os._exit(1)

    monkeypatch.setattr(fileio, "_send", fail)
    assert outcome(path, 3) == want
    assert [child.sent for child in children] == [False, False]


class Counted:
    """A sha256 that counts the bytes it is fed."""

    def __init__(self):
        self.hash, self.fed = hashlib.sha256(), 0

    def update(self, data):
        self.hash.update(data)
        self.fed += len(data)


@pytest.mark.parametrize("name", CORPORA)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("fail", [False, True])
def test_digest_hashes_each_byte_once(tmp_path, monkeypatch, children, name, n, fail):
    data = CORPORA[name][0].encode()
    path = tmp_path / "c.jsonl"
    path.write_bytes(data)
    if fail:  # every child dies, so its span is parsed again here
        monkeypatch.setattr(fileio, "_send", lambda result, pipe: os._exit(1))
    digest = Counted()
    records, header = at(n, read_trajectories, path, digest)
    assert (summary(records), header) == (expected(CORPORA[name][1]), CORPORA[name][2])
    assert digest.hash.hexdigest() == hashlib.sha256(data).hexdigest()
    assert digest.fed == len(data)
    assert len(children) == (n - 1 if b"\n" in data else 0)


def test_forks_after_blas_threads_started(tmp_path, monkeypatch, children):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    spatial = SpdMatrix(a @ a.T / 256 + np.eye(256))
    assert np.isfinite(quadratic_form(spatial, increments(rng.standard_normal((120, 256)))))
    path = corpus_file(tmp_path / "c.jsonl")
    assert outcome(path, 3) == outcome(path, 1)
    assert [child.sent for child in children] == [True, True]


def test_no_child_outlives_a_failed_read(tmp_path, children):
    # an error in the first span stops the read before any child's result is read: every
    # child started is killed and reaped, so this process has no child left
    path = tmp_path / "c.jsonl"
    path.write_bytes(corrupt({1: b"[1, 2]"}))
    assert outcome(path, 3) == f"{path}:1: expected a JSON object"
    assert len(children) == 2
    assert all(child.pid is None for child in children)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_fork_costs_no_output(tmp_path, monkeypatch, children):
    # with no process to spare, each span a child would have read is parsed here
    path = corpus_file(tmp_path / "c.jsonl")
    want = outcome(path, 1)

    def fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    assert outcome(path, 3) == want
    assert [(child.pid, child.sent) for child in children] == [(None, False)] * 2


def test_reads_a_pipe(tmp_path, children):
    # a pipe's size is 0, so it is one span, read without a seek
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(CORPORA["header"][0],),
                              daemon=True)
    writer.start()
    try:
        assert outcome(fifo, 3) == (expected(rows()), HEADER)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert children == []


def test_writes_a_pipe(tmp_path, children):
    # the writer never seeks, so a pipe takes a corpus however many CPUs there are
    records = read_trajectories(corpus_file(tmp_path / "c.jsonl"))[0]
    one, fifo = tmp_path / "one.jsonl", tmp_path / "fifo"
    write_trajectories(one, records, {"seed": 4})
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        at(3, write_trajectories, fifo, records, {"seed": 4})
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [one.read_bytes()]
    assert children == []


class TestSpanCount:
    def test_bounded_by_cpus_and_floor(self):
        cpus = len(os.sched_getaffinity(0))
        for nbytes in [0, 1, fileio.SPAN_FLOOR - 1, fileio.SPAN_FLOOR, 3 * fileio.SPAN_FLOOR,
                       10 ** 15]:
            n = _span_count(nbytes)
            assert 1 <= n <= cpus
            assert n == 1 or nbytes // n >= fileio.SPAN_FLOOR

    def test_one_per_cpu_above_the_floor(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        floor = fileio.SPAN_FLOOR
        assert [_span_count(k * floor) for k in [0, 1, 2, 3, 8, 100]] == [1, 1, 2, 3, 8, 8]
        assert _span_count(3 * floor - 1) == 2

    def test_one_span_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert _span_count(10 ** 15) == 1

    def test_one_span_off_linux(self, tmp_path, monkeypatch, children):
        monkeypatch.setattr(sys, "platform", "darwin")
        assert _span_count(10 ** 15) == 1
        path = corpus_file(tmp_path / "c.jsonl")
        assert outcome(path, 3)[0] == expected(rows())
        assert children == []


@pytest.mark.parametrize("short", [0, 1], ids=["twice the floor", "one byte fewer"])
def test_the_floor_forks_from_twice_its_bytes(tmp_path, monkeypatch, children, short):
    # on 2 CPUs, a file of twice SPAN_FLOOR bytes is read by one forked child too, and one
    # byte fewer by this process alone; parsing is stubbed, since only the split is looked at
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(fileio, "_read_span", lambda fh, path, span, digest=None: ({}, [], 0, None))
    line = b" " * 1023 + b"\n"
    path = tmp_path / "c.jsonl"
    path.write_bytes((line * (2 * fileio.SPAN_FLOOR // len(line)))[:2 * fileio.SPAN_FLOOR - short])
    assert path.stat().st_size == 2 * fileio.SPAN_FLOOR - short
    assert read_trajectories(path) == ([], {})
    assert [child.sent for child in children] == [True] * (1 - short)
