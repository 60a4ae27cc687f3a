"""Property tests: the file readers let no exception but ValidationError escape.

Inputs are arbitrary bytes, arbitrary JSON values, and valid corpus records,
model files and weight matrices with one field or one matrix entry replaced
by an arbitrary value, so that the checks past the JSON parse are reached
too. Every diagnostic names the file, and a corpus read in two spans gives
the records or the error of a read in one. The corpus reader parses every
line by one rule, line 1 included: orjson is handed the bytes of each line
that universal newlines keep whole and that nests no deeper than it is asked
to parse, and json alone parses the text of every other line and of every
line orjson rejects. For any line it gives the records, to the bit, or the
error of a read by json alone, except on a line orjson is handed: one nested
past json's recursion limit is judged on orjson's value, and a header's
integer past 64 bits reads back as orjson's float. A read by json alone
replaces orjson.loads with a stub that refuses every line. Runs are
derandomized, so the suite draws the same examples every time.
"""

import json
import os
import struct
import sys

import orjson
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


def refuse(doc):
    """orjson.loads refusing every line it is handed."""
    raise orjson.JSONDecodeError("refused", doc.decode("utf-8", errors="replace"), 0)


def corpus_outcome(path, spans, json_only=False):
    """The records and header read from path in the given number of spans, or the error.

    json_only reads every line with json alone, as orjson rejecting each would.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "SPAN_FLOOR", 1)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(spans)))
        if json_only:
            mp.setattr(orjson, "loads", refuse)
        try:
            records, header = read_trajectories(path)
        except ValidationError as exc:
            return str(exc)
    return repr(header), [(r.trajectory.id, r.trajectory.domain, r.label,
                           r.trajectory.points.shape, r.trajectory.points.tobytes())
                          for r in records]


@FUZZ
@given(rows=st.lists(records(), min_size=1, max_size=3))
def test_corpus_lines(input_file, rows):
    only_validation_errors(input_file, "\n".join(map(json.dumps, rows)).encode())
    assert corpus_outcome(input_file, 2) == corpus_outcome(input_file, 1)


def same_as_json_alone(path, data: bytes):
    path.write_bytes(data)
    assert corpus_outcome(path, 1) == corpus_outcome(path, 1, json_only=True)


def nested(depth: int) -> str:
    return "[" * depth + "]" * depth


RECORD = '{"id":"a","domain":"d","points":%s}'
HEADER = '{"kind":"trajectories","created_by":"x","seed":%s}'


@FUZZ
@given(rows=st.lists(records(), min_size=1, max_size=3))
@example(rows=[RECORD % "[[NaN],[1],[2]]"])
@example(rows=[RECORD % "[[Infinity],[1],[2]]"])
@example(rows=[RECORD % "[[1e400],[1],[2]]"])
@example(rows=[RECORD % "[[1e-400],[-0.0],[2]]"])
@example(rows=[RECORD % f"[[{2 ** 64}],[{-2 ** 63 - 1}],[{2 ** 63}]]"])
@example(rows=[RECORD % f"[[{2 ** 64}, 0.5],[1, 2],[3, 4]]"])
@example(rows=[RECORD % f"[[{10 ** 400}],[1],[2]]"])
@example(rows=[RECORD % "[[true],[1],[2]]"])
@example(rows=['{"id":"\\ud800","domain":"d","points":[[0],[1],[2]]}'])
@example(rows=['{"id":"a","id":"b","domain":"d","points":[[0],[1],[2]],"points":[[5],[6],[7]]}'])
@example(rows=["\ufeff" + RECORD % "[[0],[1],[2]]"])
@example(rows=['{"id":"\x01","domain":"d","points":[[0],[1],[2]]}'])
@example(rows=[RECORD % "[[0],[1],[2]]",
               '{"id":"b","domain":"d","points":[[18446744073709551616],[1],[2]]}'])
@example(rows=[RECORD % "[[0],[1],[2]]", HEADER % 1])
@example(rows=[RECORD % ("[[%s]]" % "],[".join(map(str, range(12_000))))])
# lines that orjson is not handed, or rejects: a lone '\r' between tokens or around a
# record, padding that strip removes and JSON does not, a BOM, bytes that are not UTF-8 (a
# lone surrogate here stands for the byte it escapes), a blank line of '\x1c'; and lines
# it is handed with JSON whitespace around the record
@example(rows=['{"id":"a",\r"domain":"d","points":[[0],[1],[2]]}'])
@example(rows=['{"id":"a","domain":"d",\r\n"points":[[0],[1],[2]]}', RECORD % "[[0],[1],[2]]"])
@example(rows=[RECORD % "[[0],[1],[2]]" + "\r", '{"id":"b","domain":"d","points":[[0],[1]]}'])
@example(rows=["\r" + RECORD % "[[0],[1],[2]]"])
@example(rows=[RECORD % "[[0],[1],[2]]" + "\r\r"])
@example(rows=[RECORD % "[[0],[1],[2]]" + pad for pad in ("\x0c", "\x1c", "\xa0", "\u2028")])
@example(rows=[" \t" + RECORD % "[[0],[1],[2]]", "\ufeff" + RECORD % "[[0],[1],[2]]"])
# a string that orjson parses, holding a record's text
@example(rows=[json.dumps(RECORD % "[[0],[1],[2]]")])
@example(rows=['{"id":"a\udcff","domain":"d","points":[[0],[1],[2]]}'])
@example(rows=['{"id":"a\udced\udca0\udc80","domain":"d","points":[[0],[1],[2]]}'])
@example(rows=[RECORD % "[[0],[1],[2]]", "\x1c", '{"id":"b","domain":"d","points":[[0],[1],[2]]}'])
# true and false in points, with an id holding 'f' and 'u' and without; a 'u' or an 'f'
# with no literal
@example(rows=['{"id":"fu","domain":"forum","points":[[0],[false],[2]]}'])
@example(rows=['{"id":"a","domain":"d","points":[[0],[1],[true]]}'])
@example(rows=['{"id":"uf","domain":"forum","points":[[0],[1],[2]],"label":"true"}'])
@example(rows=['{"id":"a","domain":"d","points":[[0],[1],[null]]}'])
# the last record with and without a final newline
@example(rows=[RECORD % "[[0],[1],[2]]", '{"id":"b","domain":"d","points":[[0],[1],[2]]}\n'])
@example(rows=[RECORD % "[[0],[1],[2]]", '{"id":"b","domain":"d","points":[[0],[1],[2]]}'])
def test_corpus_lines_read_as_json_reads_them(input_file, rows):
    lines = [row if isinstance(row, str) else json.dumps(row) for row in rows]
    # as the file's first lines and after a header: one rule parses every line
    for text in ("\n".join(lines), "\n".join([HEADER % 1, *lines])):
        same_as_json_alone(input_file, text.encode("utf-8", "surrogateescape"))


@pytest.mark.parametrize("rows", [[RECORD % "[[0],[1],[2]]"], []], ids=["record", "alone"])
def test_a_header_integer_past_64_bits_reads_as_orjsons_float(input_file, rows):
    # a header is parsed like any record line, and no command reads its values: the
    # records are json's, and only the header's integer differs
    input_file.write_text("\n".join([HEADER % 2 ** 64, *rows]))
    header, records = corpus_outcome(input_file, 1)
    json_header, json_records = corpus_outcome(input_file, 1, json_only=True)
    assert records == json_records
    assert header == json_header.replace(str(2 ** 64), repr(float(2 ** 64)))


def deep_record(depth: int, where: str) -> str:
    if where == "points":
        return RECORD % nested(depth)
    return '{"id":"a","domain":"d","points":[[0],[1],[2]],"%s":%s}' % (where, nested(depth))


@pytest.mark.parametrize("depth", [990, 1000, 1010, 1024, 1025, 1030])
@pytest.mark.parametrize("where", ["points", "extra", "label"])
def test_deep_nesting_read_as_json_reads_it(input_file, depth, where):
    # on line 1 as on line 2, a deep line reads as json reads it given the stack to parse it,
    # whatever json's recursion limit. Not under hypothesis, which raises the recursion limit.
    line = deep_record(depth, where)
    for lines in ([line], [HEADER % 1, line]):
        input_file.write_text("\n".join(lines))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)
        try:
            expected = corpus_outcome(input_file, 1, json_only=True)
        finally:
            sys.setrecursionlimit(limit)
        assert corpus_outcome(input_file, 1) == expected
        try:
            read_trajectories(input_file)
        except ValidationError as exc:
            assert str(exc).startswith(f"{input_file}:{len(lines)}: ")
        else:
            assert where == "extra"  # accepted only as json accepts it


@pytest.mark.parametrize("where", ["points", "extra", "label"])
def test_a_deep_line_padded_with_a_form_feed_reads_as_json_reads_it(input_file, where):
    # orjson rejects the form feed, so json alone judges the line, at the recursion limit
    # in use
    line = deep_record(9000, where) + "\x0c"
    for lines in ([line], [HEADER % 1, line]):
        input_file.write_text("\n".join(lines))
        assert corpus_outcome(input_file, 1) == corpus_outcome(input_file, 1, json_only=True)


# The verdict on a deep record, where both parsers give one value
VERDICT = {"points": "'points' must list at least 3 vectors",
           "label": "'label' must be a string when present", "extra": None}


@pytest.mark.parametrize("depth", [10, 990, 1000, 1010, 1024, 1025, 1030, 9000])
@pytest.mark.parametrize("where", ["points", "extra", "label"])
def test_deep_nesting_past_line_one_reads_as_orjsons_value(input_file, depth, where):
    # a line within _DEEPEST is judged on orjson's value, whatever its depth, past line 1
    # and on line 1 alike: json's recursion limit decides no line
    line = deep_record(depth, where)
    for lines in ([HEADER % 1, line], [line]):
        input_file.write_text("\n".join(lines))
        try:
            assert [r.trajectory.id for r in read_trajectories(input_file)[0]] == ["a"]
            assert VERDICT[where] is None
        except ValidationError as exc:
            assert str(exc) == f"{input_file}:{len(lines)}: {VERDICT[where]}"


@pytest.mark.parametrize("line, verdict", [
    (RECORD.encode() % b"[[NaN],[1],[2]]", "'points' contains a non-finite number"),
    (RECORD.encode() % b"[[0],[1]]" + b"\r\n", "'points' must list at least 3 vectors"),
    (b'{"id":"a\xff","domain":"d","points":[[0],[1],[2]]}',
     "cannot read file ('utf-8' codec can't decode byte 0xff in position 8: invalid start byte)"),
], ids=["nan", "crlf", "not-utf-8"])
def test_line_one_is_judged_as_any_other_line(input_file, line, verdict):
    # a line that orjson rejects, ends in CRLF or is not UTF-8 gets one verdict on line 1
    # and after a header, with its line number shifted by one
    for lines in ([HEADER.encode() % b"1", line], [line]):
        input_file.write_bytes(b"\n".join(lines))
        with pytest.raises(ValidationError) as exc:
            read_trajectories(input_file)
        assert str(exc.value) == f"{input_file}:{len(lines)}: {verdict}"


def parser_calls(monkeypatch) -> list:
    """A list that each json.loads and orjson.loads call appends (module, argument type) to."""
    calls = []
    for module in (fileio.json, fileio.orjson):
        def loads(doc, module=module, loads=module.loads):
            calls.append((module.__name__, type(doc).__name__))
            return loads(doc)
        monkeypatch.setattr(module, "loads", loads)
    return calls


def test_each_corpus_line_is_parsed_once(input_file, monkeypatch):
    # orjson parses every line that it accepts, line 1 included
    parsers = parser_calls(monkeypatch)
    header, valid = HEADER % 2 ** 64, RECORD % "[[0],[1],[2]]"
    input_file.write_text(f"{header}\n{valid}\n")
    seed = read_trajectories(input_file)[1]["seed"]
    assert type(seed) is float and seed == 2 ** 64
    input_file.write_text(f"{header}\n{valid}\n" '{"id":"b","domain":"d","points":[[0],[1]]}\n')
    parsers.clear()
    with pytest.raises(ValidationError, match=":3: 'points' must list at least 3 vectors"):
        read_trajectories(input_file)
    assert parsers == [("orjson", "bytes")] * 3


def test_a_long_shallow_line_is_handed_to_orjson(input_file, monkeypatch):
    # a line past _DEEPEST bytes is counted for '[' and '{' bytes, and this one has few
    parsers = parser_calls(monkeypatch)
    line = RECORD % json.dumps([[0.5] * 2000] * 3)
    assert len(line) > fileio._DEEPEST
    input_file.write_text(f"{HEADER % 1}\n{line}\n")
    assert [r.trajectory.points.shape for r in read_trajectories(input_file)[0]] == [(3, 2000)]
    assert parsers == [("orjson", "bytes")] * 2


def test_a_line_orjson_rejects_is_not_handed_to_it_again(input_file, monkeypatch):
    # orjson refuses a NaN record's bytes, and json alone judges its text, with an LF or a
    # CRLF line end; the line after it is never reached
    parsers = parser_calls(monkeypatch)
    valid, nan = RECORD % "[[0],[1],[2]]", RECORD.replace('"a"', '"b"') % "[[NaN],[1],[2]]"
    for eol in ("\r\n", "\n"):
        input_file.write_bytes(f"{HEADER % 1}\n{valid}\n{nan}{eol}{nan}\n".encode())
        parsers.clear()
        with pytest.raises(ValidationError, match=":3: 'points' contains a non-finite number"):
            read_trajectories(input_file)
        assert parsers == [("orjson", "bytes"), ("orjson", "bytes"), ("orjson", "bytes"),
                           ("json", "str")]


def test_lf_crlf_and_indented_copies_read_alike(input_file, monkeypatch):
    # each line of every copy is one line as universal newlines split it, handed to orjson
    # once as bytes and never to json: the records, and a short record's error, are the LF
    # copy's
    parsers = parser_calls(monkeypatch)
    lines = [HEADER % 1, RECORD % "[[0],[1],[2]]",
             '{"id":"b","domain":"d","points":[[0.5],[1e-7],[2]],"label":"x"}']
    short = '{"id":"c","domain":"d","points":[[0],[1]]}'
    reads = []
    for pad, eol in (("", "\n"), ("", "\r\n"), (" \t", "\n")):
        reads.append([])
        for rows in (lines, [*lines[:2], short]):
            input_file.write_bytes("".join(pad + row + eol for row in rows).encode())
            parsers.clear()
            reads[-1].append(corpus_outcome(input_file, 1))
            assert parsers == [("orjson", "bytes")] * 3
    lf, crlf, indented = reads
    assert lf == crlf == indented
    assert lf[1] == f"{input_file}:3: 'points' must list at least 3 vectors"


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


random_bit_floats = st.integers(0, 2 ** 64 - 1).map(bits_to_float).filter(
    lambda x: x == x and abs(x) != float("inf")).map(repr)
long_decimals = st.builds("{}{}.{}e{}".format, st.sampled_from(["", "-"]),
                          st.integers(0, 10 ** 40 - 1),
                          st.text("0123456789", min_size=1, max_size=40),
                          st.integers(-340, 300))


@FUZZ
@given(numbers=st.lists(random_bit_floats | long_decimals, min_size=3, max_size=40))
@example(numbers=["5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
                  "1.7976931348623157e308", "1.7976931348623158e308", "9007199254740993",
                  "0.30000000000000004", "2.2250738585072011e-308"])
def test_floats_parse_to_the_bits_json_gives(input_file, numbers):
    for text in numbers:
        try:
            fast = orjson.loads(text)
        except orjson.JSONDecodeError:  # past float range: json's inf is rejected as non-finite
            assert abs(json.loads(text)) == float("inf")
            continue
        assert struct.pack("<d", fast) == struct.pack("<d", float(json.loads(text)))
    same_as_json_alone(input_file, (RECORD % "[[%s]]" % "],[".join(numbers)).encode())
