"""Property tests: the file readers let no exception but ValidationError escape.

Inputs are arbitrary bytes, arbitrary JSON values, and valid corpus records,
model files and weight matrices with one field or one matrix entry replaced
by an arbitrary value, so that the checks past the JSON parse are reached
too. Every diagnostic names the file, and a corpus read in two spans gives
the records or the error of a read in one. Runs are derandomized, so the suite
draws the same examples every time.
"""

import json
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bridgescore import ValidationError, fileio
from bridgescore.fileio import read_sigma_model, read_trajectories, read_weights

FUZZ = settings(max_examples=80, deadline=None, derandomize=True, database=None)

scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
           | st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 63, "NaN", "true", "1.5"]))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12,
)


@st.composite
def matrices(draw, rows, cols):
    """A rows x cols matrix, 2 on the diagonal and 0.5 off it, maybe with one entry replaced."""
    m = [[2.0 if i == j else 0.5 for j in range(cols)] for i in range(rows)]
    if draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(json_values)
    return m


@st.composite
def altered(draw, payload):
    """payload with at most one top-level field replaced by an arbitrary value or removed."""
    payload = dict(payload)
    choice = draw(st.sampled_from([None, "drop", "replace"]))
    if choice is not None:
        key = draw(st.sampled_from(sorted(payload)))
        if choice == "drop":
            del payload[key]
        else:
            payload[key] = draw(json_values)
    return payload


@st.composite
def records(draw):
    points = draw(matrices(draw(st.integers(1, 5)), draw(st.integers(1, 3))))
    return draw(altered({"id": draw(st.text(max_size=4)), "domain": "d", "points": points,
                         "label": "x"}))


@st.composite
def models(draw):
    d = draw(st.integers(1, 3))
    return draw(altered({"kind": "sigma_model", "d": d, "weight": d + 5, "epsilon": 0.0,
                         "domain": "x", "matrix": draw(matrices(d, d))}))


@st.composite
def weights(draw):
    m = draw(matrices(draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    return draw(st.sampled_from([m, {"weights": m}]))


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def only_validation_errors(path, data: bytes):
    path.write_bytes(data)
    for read in (read_trajectories, read_sigma_model, read_weights):
        try:
            read(path)
        except ValidationError as exc:
            assert str(path) in str(exc)


@FUZZ
@given(data=st.binary(max_size=200))
@example(data=b"\xff\xfe{}")
@example(data=b"[" * 5000)
@example(data=b"1" * 5000)
@example(data=b'{"id":"a","domain":"d","points":[[0],[1],[2]]}\n\x80')
def test_arbitrary_bytes(input_file, data):
    only_validation_errors(input_file, data)


@FUZZ
@given(value=json_values | models() | weights())
@example(value={"kind": "sigma_model", "d": 1, "weight": 5, "matrix": [[1.0]],
                "epsilon": 10 ** 400})
@example(value=[[1.0, float("nan")]])
def test_arbitrary_json_value(input_file, value):
    only_validation_errors(input_file, json.dumps(value).encode())


def corpus_outcome(path, spans):
    """The records and header read from path in the given number of spans, or the error."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "SPAN_FLOOR", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(spans)))
        try:
            records, header = read_trajectories(path)
        except ValidationError as exc:
            return str(exc)
    return header, [(r.trajectory.id, r.trajectory.domain, r.label, r.trajectory.points.shape,
                     r.trajectory.points.tobytes()) for r in records]


@FUZZ
@given(rows=st.lists(records(), min_size=1, max_size=3))
def test_corpus_lines(input_file, rows):
    only_validation_errors(input_file, "\n".join(map(json.dumps, rows)).encode())
    assert corpus_outcome(input_file, 2) == corpus_outcome(input_file, 1)
