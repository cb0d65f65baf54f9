"""Byte-identity oracle for the artifact format.

encode_json must give exactly the text of json.dumps(indent=2, sort_keys=True,
allow_nan=False), with columns formatted by artifacts.numbers standing in for
the lists they were made from; write_csv must give exactly what csv.writer
writes for the repr of every cell.  NaN and +-Infinity anywhere raise
ValueError, and a refused CSV leaves no file behind.
"""

import csv
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cvsim import artifacts

ORACLE = settings(max_examples=200, deadline=None, database=None, derandomize=True)

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1e16, 1e-7]
NON_FINITE = [math.nan, math.inf, -math.inf]

finite_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from(EDGE_FLOATS))
ints = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.sampled_from([0, -1, 2 ** 64, -2 ** 64 - 1]))
texts = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€😀'), st.characters()),
                max_size=8)
scalars = st.one_of(finite_floats, ints, st.booleans(), st.none(), texts)


def same(value):
    return value, value


def formatted(array):
    """A column as encode_json takes it (numbers) and as json.dumps takes it."""
    return artifacts.numbers(array), array.tolist()


columns = st.one_of(
    hnp.arrays(np.float64, st.integers(0, 5), elements=finite_floats),
    hnp.arrays(np.int64, st.integers(0, 5)),
)

# (payload for encode_json, the same payload as json.dumps takes it)
leaves = st.one_of(scalars.map(same), columns.map(formatted))
payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(lambda kids: tuple(map(list, zip(*kids))) or ([], [])),
        st.dictionaries(texts, children, max_size=4).map(
            lambda kids: ({k: p for k, (p, _) in kids.items()},
                          {k: r for k, (_, r) in kids.items()})),
    ),
    max_leaves=12,
)


def reference_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


@ORACLE
@given(payloads)
def test_encode_json_matches_json_dumps(pair):
    payload, reference = pair
    assert artifacts.encode_json(payload) == reference_json(reference)
    assert artifacts.encode_json(reference) == reference_json(reference)


@ORACLE
@given(payloads, st.sampled_from(NON_FINITE), st.data())
def test_non_finite_anywhere_is_refused(pair, bad, data):
    # plant `bad` at a drawn place: a new list item, a new dict value, or the root
    payload = pair[1]
    node, depth = payload, 0
    while isinstance(node, (list, dict)) and data.draw(st.booleans()):
        kids = [v for v in (node.values() if isinstance(node, dict) else node)
                if isinstance(v, (list, dict))]
        if not kids:
            break
        node, depth = data.draw(st.sampled_from(kids)), depth + 1
    if isinstance(node, list):
        node.insert(data.draw(st.integers(0, len(node))), bad)
    elif isinstance(node, dict):
        node["\x7f planted"] = bad
    else:
        payload = bad
    event(f"planted at depth {depth}")
    with pytest.raises(ValueError):
        reference_json(payload)
    with pytest.raises(ValueError):
        artifacts.encode_json(payload)


def column(dtype, n_rows):
    return hnp.arrays(dtype, n_rows, elements=finite_floats if dtype == np.float64 else None)


@ORACLE
@given(st.lists(st.tuples(texts, st.sampled_from([np.float64, np.int64]), st.booleans()),
                min_size=1, max_size=5),
       st.integers(0, 12), st.integers(1, 5), st.data())
def test_write_csv_matches_csv_writer(specs, n_rows, chunk, data):
    # chunk: rows formatted per write, small so that rows span several chunks
    header = [name for name, _, _ in specs]
    cols = [data.draw(column(dtype, n_rows)) for _, dtype, _ in specs]
    given_cols = [artifacts.numbers(c) if pre else c for c, (_, _, pre) in zip(cols, specs)]
    event(f"{sum(pre for _, _, pre in specs)} of {len(specs)} columns preformatted")
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(zip(*(map(repr, c.tolist()) for c in cols)))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(artifacts, "_CHUNK_ROWS", chunk):
        path = Path(tmp) / "t.csv"
        artifacts.write_csv(path, header, given_cols)
        assert path.read_bytes() == expected.getvalue().encode()


@ORACLE
@given(hnp.arrays(np.float64, st.integers(1, 20), elements=finite_floats),
       st.sampled_from(NON_FINITE), st.data())
def test_non_finite_column_leaves_no_file(col, bad, data):
    col[data.draw(st.integers(0, len(col) - 1))] = bad
    with pytest.raises(ValueError):
        artifacts.numbers(col)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with pytest.raises(ValueError):
            artifacts.write_csv(path, ["ok", "bad"], [np.arange(len(col)), col])
        assert not path.exists()


@st.composite
def repeated_columns(draw):
    """float64, float32 or int64 columns whose entries come from a pool of at
    most four values: signed zeros, subnormals and the largest finite values
    among them, at lengths 1 to 40 and 1025."""
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64]))
    if dtype == np.int64:
        values = st.integers(-2 ** 63, 2 ** 63 - 1)
    else:
        info = np.finfo(dtype)
        tiny, big = float(info.smallest_subnormal), 1e308 if dtype == np.float64 else float(info.max)
        values = st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=info.bits),
                           st.sampled_from([0.0, -0.0, tiny, -tiny, big, -big]))
    pool = np.array(draw(st.lists(values, min_size=1, max_size=4)), dtype)
    n_rows = draw(st.one_of(st.integers(1, 40), st.just(1025)))
    picks = np.random.default_rng(draw(st.integers(0, 2 ** 32))).integers(len(pool), size=n_rows)
    return pool[picks]


@ORACLE
@given(repeated_columns())
def test_numbers_formats_each_distinct_value_once(col):
    calls = []

    def counting_repr(value):
        calls.append(value)
        return repr(value)

    with mock.patch.object(artifacts, "repr", counting_repr, create=True):
        text = artifacts.numbers(col)
    assert text == list(map(repr, col.tolist()))
    # one repr per distinct bit pattern, so -0.0 and 0.0 each get their own
    assert len(calls) == len({v.tobytes() for v in col})
    event(f"{col.dtype}, {len(calls)} distinct of {len(col)}")
    assert artifacts.encode_json({"c": text}) == reference_json({"c": col.tolist()})
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows([["c"]] + [[cell] for cell in map(repr, col.tolist())])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        artifacts.write_csv(path, ["c"], [text])
        assert path.read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_numbers_keeps_negative_zero_apart_from_zero(dtype):
    # equal as floats, so a float-keyed np.unique would merge them; their reprs differ
    col = np.array([0.0, -0.0, -0.0, 0.0, 1.0], dtype)
    assert artifacts.numbers(col) == ["0.0", "-0.0", "-0.0", "0.0", "1.0"]


@pytest.mark.parametrize("array", [
    np.array([True, False]), np.array([1 + 2j]), np.array(["1.0"]), np.array([None]),
    np.zeros((2, 2)), np.float64(1.0),
], ids=["bool", "complex", "str", "object", "2-D", "0-D"])
def test_numbers_refuses_all_but_1d_int_and_float(array, tmp_path):
    with pytest.raises(ValueError):
        artifacts.numbers(array)
    with pytest.raises(ValueError):
        artifacts.write_csv(tmp_path / "t.csv", ["x"], [array])
    assert not (tmp_path / "t.csv").exists()


def test_one_line_form_is_json_dumps():
    # configuration digests hash this form, so it must not move
    payload = {"b": [1.5, -0.0, None], "a": {"z": True, "y": "é"}}
    assert artifacts.encode_json(payload, indent=None) == json.dumps(
        payload, sort_keys=True, allow_nan=False)
