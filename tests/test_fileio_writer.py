"""Corpora written in parts: the same bytes for any part count.

A write floor of one coordinate and a patched CPU set fix how many parts the
records are cut into, so that two and three parts, and the forked children
that format them, run on small corpora and on a host with any number of
CPUs. The expected bytes are built here, one json.dumps per line.
"""

import json
import os
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

import bridgescore.fileio as fileio
import bridgescore.forks as forks
from bridgescore import LatentTrajectory, __version__
from bridgescore.cli import main
from bridgescore.fileio import TrajectoryRecord, write_trajectories

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="only Linux forks writers")

META = {"seed": 4, "spec": {"d": 3}}


def record(traj_id, points, label=None, domain="x"):
    return TrajectoryRecord(LatentTrajectory(id=traj_id, domain=domain, points=points), label)


def labelled(ids="doc-{}", n=9):
    rng = np.random.default_rng(3)
    return [record(ids.format(i), rng.standard_normal((int(rng.integers(3, 9)), 3)),
                   ["low", "high"][i % 2] if i % 3 else None, "ab"[i % 2]) for i in range(n)]


def scaled():
    """Values over 60 decades, and floats whose shortest repr is unusual."""
    rng = np.random.default_rng(17)
    scale = 10.0 ** rng.integers(-30, 30, (40, 3))
    out = [record(f"doc-{i}", rng.standard_normal((int(rng.integers(3, 9)), 3)) * scale[i],
                  "lab" if i % 2 else None) for i in range(40)]
    specials = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, 0.1, 1 / 3]
    return out + [record("specials", np.resize(specials, (7, 3)))]


CORPORA = {
    "labels on some records": labelled,
    "non-ASCII ids": lambda: labelled(ids="文書-{}-ü"),
    "scaled values and specials": scaled,
    "no records": list,
    "more parts than records": lambda: labelled(n=2),
}


def expected(records, meta=META) -> bytes:
    header = {"kind": "trajectories", "created_by": f"bridgescore {__version__}", **meta}
    rows = [{"id": r.trajectory.id, "domain": r.trajectory.domain,
             "points": [[float(v) for v in p] for p in r.trajectory.points],
             **({} if r.label is None else {"label": r.label})} for r in records]
    return "".join(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
                   for row in [header, *rows]).encode()


def at(n, call, *args):
    """call(*args) on a host with n CPUs and a one-coordinate write floor."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "WRITE_FLOOR", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        return call(*args)


def written(path, records, n) -> bytes:
    at(n, write_trajectories, path, records, META)
    return path.read_bytes()


@pytest.mark.parametrize("name", CORPORA)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bytes_do_not_depend_on_part_count(tmp_path, children, name, n):
    records = CORPORA[name]()
    assert written(tmp_path / "c.jsonl", records, n) == expected(records)
    assert len(children) == max(0, min(n, len(records)) - 1)
    assert all(child.sent for child in children)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_records_may_be_a_generator(tmp_path, children, n):
    records = labelled()
    assert written(tmp_path / "c.jsonl", (r for r in records), n) == expected(records)
    assert len(children) == n - 1


@pytest.mark.parametrize("partial", [False, True])
def test_failed_writing_child_costs_no_output(tmp_path, monkeypatch, children, partial):
    records = labelled()

    def fail(work, part, pipe):
        if partial:  # a pickle cut short, as from a child killed while it sends
            data = pickle.dumps(work(part))
            pipe.write(data[:len(data) // 2])
            pipe.flush()
        os._exit(1)

    monkeypatch.setattr(forks, "_send", fail)
    assert written(tmp_path / "c.jsonl", records, 3) == expected(records)
    assert [child.sent for child in children] == [False, False]


def test_writes_a_pipe_in_parts(tmp_path, children):
    records = labelled()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        at(3, write_trajectories, fifo, records, META)
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [expected(records)]
    assert [child.sent for child in children] == [True, True]


def test_shuffle_out_does_not_depend_on_part_count(tmp_path, children):
    corpus = tmp_path / "c.jsonl"
    write_trajectories(corpus, labelled(), META)
    outs = []
    for n in (1, 3):
        out = tmp_path / f"shuffled-{n}.jsonl"
        argv = ["shuffle", "--in", str(corpus), "--copies", "3", "--seed", "5", "--out", str(out)]
        assert at(n, main, argv) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert [child.sent for child in children] == [True, True]


class TestFloor:
    """Parts of at least WRITE_FLOOR coordinates, one per CPU."""

    def points(self, coordinates):
        return np.arange(float(coordinates)).reshape(-1, 10)

    @pytest.mark.parametrize("docs, parts", [(4, 1), (7, 1), (8, 2), (12, 3), (40, 8)])
    def test_parts_by_coordinates(self, tmp_path, monkeypatch, children, docs, parts):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        quarter = fileio.WRITE_FLOOR // 4
        records = [record(f"doc-{i}", self.points(quarter)) for i in range(docs)]
        path = tmp_path / "c.jsonl"
        write_trajectories(path, records, META)
        assert len(children) == parts - 1
        assert path.read_bytes() == expected(records)

    def test_one_part_on_one_cpu(self, tmp_path, monkeypatch, children):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        records = [record(f"doc-{i}", self.points(fileio.WRITE_FLOOR)) for i in range(3)]
        write_trajectories(tmp_path / "c.jsonl", records, META)
        assert children == []


class TestCut:
    @pytest.mark.parametrize("count", [0, 1, 2, 5, 17, 100])
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_equal_weights(self, count, n):
        parts = forks.cut([1] * count, n)
        if count == 0:
            assert parts == [slice(0, 0)]
        else:
            assert len(parts) == min(n, count)
            sizes = {s.stop - s.start for s in parts}
            assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 40])
    def test_contiguous_nonempty_and_balanced(self, n):
        weights = [int(w) for w in np.random.default_rng(n).integers(1, 1000, 30)]
        parts = forks.cut(weights, n)
        assert 1 <= len(parts) <= n
        assert [s.start for s in parts] == [0, *[s.stop for s in parts[:-1]]]
        assert parts[-1].stop == len(weights)
        assert all(s.start < s.stop for s in parts)
        for s in parts:
            assert abs(sum(weights[s]) - sum(weights) / n) <= max(weights)

    @pytest.mark.parametrize("weights, want", [
        ([1, 100, 1], [slice(0, 1), slice(1, 2), slice(2, 3)]),
        ([100, 1], [slice(0, 1), slice(1, 2)]),
        ([1, 1, 100], [slice(0, 2), slice(2, 3)]),
    ])
    def test_heavy_items(self, weights, want):
        assert forks.cut(weights, 3 if len(weights) == 3 else 2) == want


class Box:
    """A result that can be watched by weak reference."""


def test_forked_holds_no_result_once_yielded(children):
    previous = None
    with forks.forked(range(4), lambda part: Box()) as results:
        for box in results:
            assert previous is None or previous() is None
            previous = weakref.ref(box)
            del box
    assert [child.sent for child in children] == [True] * 3
