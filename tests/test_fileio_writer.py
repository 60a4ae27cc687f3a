"""Files written in one process: json's bytes, on a host with any number of CPUs.

A patched CPU set makes the host report one, two or three CPUs; the writer
forks no child at any count. The expected bytes are built here, one
json.dumps per line, and _floats, which spells float arrays through orjson,
is checked against json.dumps of the same values.
"""

import json
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgescore import LatentTrajectory, __version__
from bridgescore.cli import main
from bridgescore.fileio import TrajectoryRecord, _dumps, _floats, write_trajectories

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
    """call(*args) on a host with n CPUs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        return call(*args)


def written(path, records, n) -> bytes:
    at(n, write_trajectories, path, records, META)
    return path.read_bytes()


@pytest.mark.parametrize("name", CORPORA)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bytes_do_not_depend_on_part_count(tmp_path, children, name, n):
    records = CORPORA[name]()
    assert written(tmp_path / "c.jsonl", records, n) == expected(records)
    assert children == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_records_may_be_a_generator(tmp_path, children, n):
    records = labelled()
    assert written(tmp_path / "c.jsonl", (r for r in records), n) == expected(records)
    assert children == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX")
def test_writes_a_pipe(tmp_path, children):
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
    assert children == []


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
    assert children == []


def json_spelling(arr) -> str:
    return json.dumps(arr.tolist(), separators=(",", ":"))


def ulps(values):
    """Each value and its neighbours one ulp either side, both signs."""
    out = []
    for v in values:
        out += [v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)]
    return np.array(out + [-v for v in out])


EDGES = {
    "random bit patterns": lambda rng: rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(float),
    "log-uniform over 600 decades": lambda rng: (rng.choice([-1.0, 1.0], 200_000)
                                                 * 10.0 ** rng.uniform(-300, 300, 200_000)),
    "1e-4 and 1e16, one ulp either side": lambda rng: ulps([1e-4, 1e16]),
    "zeros, the least subnormal and the float max": lambda rng: np.array(
        [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max]),
    "0.0000 inside a token": lambda rng: np.array(
        [10.000049, -10.000049, 10.0000049, 100.00001, 20.00005, 1230.00004, 0.10000049,
         -7.00000012, 10.0000049e-3, 0.00010000049]),
}


@pytest.mark.parametrize("name", EDGES)
@pytest.mark.parametrize("shape", [(-1,), (-1, 2)])
def test_floats_spell_as_json(name, shape):
    values = EDGES[name](np.random.default_rng(29))
    values = values[np.isfinite(values)]
    arr = values[:values.size - values.size % 2].reshape(shape)
    assert _floats(arr) == json_spelling(arr)


@pytest.mark.parametrize("arr", [np.zeros((0, 3)), np.zeros(0), np.array([1e-7]),
                                 np.array([[5e-05]]), np.array([[-1e16]])],
                         ids=["0 rows", "empty", "1e-7", "5e-05", "-1e16"])
def test_floats_of_empty_and_one_element_arrays(arr):
    assert _floats(arr) == json_spelling(arr)


@pytest.mark.parametrize("shape", [(-1,), (64, 64), (16, 16, 16)])
def test_floats_of_arrays_dense_in_respelled_tokens(shape):
    # trainer weights near the identity: nearly every token holds an 'e' or a '0.0000',
    # next to every kind of bound, among subnormals, 1e16 and -0.0
    rng = np.random.default_rng(31)
    values = np.eye(64).ravel() + 1e-7 * rng.standard_normal(4096)
    values[::97] = rng.choice([5e-324, -2.5e-320, 1e16, -1e16, 1e17, -0.0, 0.00005, -0.00001234],
                              values[::97].size)
    values[1::101] = rng.uniform(-1, 1, values[1::101].size) * 1e-5
    arr = values.reshape(shape)
    text = _floats(arr)
    assert text == json_spelling(arr)
    assert text.count("e") + text.count("0.0000") > 3900


def test_floats_of_a_non_contiguous_array():
    arr = np.arange(24.0).reshape(4, 6)[:, ::2] * 1e-6
    assert _floats(arr) == json_spelling(arr)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
def test_floats_of_any_finite_values(values):
    arr = np.array(values)
    assert _floats(arr) == json_spelling(arr)


def test_dumps_spells_arrays_in_nested_dicts_as_json():
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((3, 2)) * 1e-6, rng.standard_normal((2, 2)) * 1e20
    obj = {"z": a, "é": "ü", "m": {"y": b, "x": 1.5e-7}, "n": [1, None], "k": {"q": {"p": 2}}}
    plain = {**obj, "z": a.tolist(), "m": {"y": b.tolist(), "x": 1.5e-7}}
    assert _dumps(obj) == json.dumps(plain, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every kind of file the CLI writes float arrays into, from values past orjson's range.

    Scores and predictions hold no arrays; test_cli checks their spelling.
    """
    d = tmp_path_factory.mktemp("outputs")

    def run(*argv):
        assert main([str(d / a) if a.endswith((".json", ".jsonl")) else a for a in argv]) == 0

    for endpoints, seed, domain, label, out in [("1e200", "4", "ニュース-ü", "高", "big.jsonl"),
                                                ("1e-9", "5", "フォーラム", "low", "small.jsonl"),
                                                ("1e100", "6", "wiki", "high", "large.jsonl")]:
        run("simulate", "--d", "4", "--T", "8:16", "--n", "12", "--endpoints",
            f"random:{endpoints}", "--seed", seed, "--domain", domain, "--label", label,
            "--out", out)
    small, large = ((d / name).read_text(encoding="utf-8").splitlines(keepends=True)
                    for name in ("small.jsonl", "large.jsonl"))
    (d / "both.jsonl").write_text("".join(small + large[1:]), encoding="utf-8")
    run("fit", "--in", "both.jsonl", "--out", "model.json")
    run("shuffle", "--in", "small.jsonl", "--copies", "3", "--seed", "5",
        "--out", "shuffled.jsonl")
    train = ("train", "--corpora", "both.jsonl", "--epochs", "2", "--step-size", "1e-6",
             "--seed", "11")
    run(*train, "--out", "state.json")
    run(*train, "--triplet-mode", "--out", "triplet.json")
    return d


@pytest.mark.parametrize("name", ["big.jsonl", "small.jsonl", "large.jsonl", "model.json",
                                  "shuffled.jsonl", "state.json", "triplet.json"])
def test_cli_files_are_json_spelling(outputs, name):
    lines = (outputs / name).read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines == [json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) + "\n"
                     for line in lines]
