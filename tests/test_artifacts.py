"""Byte-identity oracle for the artifact format.

encode_json must give exactly the text of json.dumps(indent=2, sort_keys=True,
allow_nan=False), with columns formatted by artifacts.numbers standing in for
the lists they were made from; write_csv must give exactly what csv.writer
writes for the repr of every cell, which for array columns checks the numpy
encoder against repr on every dtype, both of its paths and chunk boundaries.
NaN and +-Infinity anywhere raise ValueError, and a refused CSV leaves no file
behind.
"""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cvsim import artifacts, cipd, cubicphase

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
    pytest.param(np.array([1.1], np.longdouble), marks=pytest.mark.skipif(
        np.dtype(np.longdouble).itemsize == 8, reason="long double is double here")),
], ids=["bool", "complex", "str", "object", "2-D", "0-D", "longdouble"])
def test_numbers_refuses_all_but_1d_int_and_float(array, tmp_path):
    with pytest.raises(ValueError):
        artifacts.numbers(array)
    with pytest.raises(ValueError):
        artifacts.write_csv(tmp_path / "t.csv", ["x"], [array])
    assert not (tmp_path / "t.csv").exists()


def test_one_line_form_is_json_dumps():
    # a configuration digest hashes json.dumps's one-line form, not encode_json's
    # indented one, so the pinned digests cannot move with this module
    config = cubicphase.CubicGateConfig(displacement_alpha=[1.5, -0.0], homodyne_which="target")
    blob = json.dumps(config.as_dict(), sort_keys=True, allow_nan=False).encode()
    assert config.digest() == hashlib.sha256(blob).hexdigest()[:16]


# --- the numpy encoder of array columns against repr ----------------------

def reference_rows(*cols):
    """The data rows csv.writer writes for the repr of every cell."""
    return "".join(",".join(map(repr, row)) + "\r\n"
                   for row in zip(*(c.tolist() for c in cols))).encode()


def written_rows(tmp_path, *cols):
    path = tmp_path / "t.csv"
    artifacts.write_csv(path, [f"c{k}" for k in range(len(cols))], list(cols))
    return path.read_bytes().split(b"\r\n", 1)[1]


def count_paths(col):
    """event() whether a float column took the encoder's fast path, repr, or both."""
    fast = artifacts._shortest(np.abs(col.astype(np.float64)))[2]
    for name, hit in (("fast path", fast.any()), ("repr fallback", (~fast).any())):
        if hit:
            event(name)


def signed(magnitudes):
    return st.tuples(magnitudes, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])


fast_domain = signed(st.floats(1e-4, 1e16, exclude_max=True))


@ORACLE
@given(st.one_of(hnp.arrays(np.float64, st.integers(0, 40), elements=finite_floats),
                 hnp.arrays(np.float64, st.integers(0, 40), elements=fast_domain),
                 hnp.arrays(np.float32, st.integers(0, 40),
                            elements=st.floats(allow_nan=False, allow_infinity=False, width=32))))
def test_float_cells_match_repr(col):
    count_paths(col)
    with tempfile.TemporaryDirectory() as tmp:
        assert written_rows(Path(tmp), col) == reference_rows(col)


def edge_floats():
    up, down = (lambda x: np.nextafter(x, np.inf)), (lambda x: np.nextafter(x, -np.inf))
    # powers of ten and their neighbours: log10 rounds up just below some
    bounds = [10.0 ** k for k in range(-4, 17)]
    values = bounds + [f(b) for b in bounds for f in (up, down)]
    values += [2.0 ** k for k in range(-1074, 1024, 7)] + [2.0 ** k for k in range(-14, 54)]
    values += [float(2 ** 53 + k) for k in range(-4, 5)] + [float(2 ** 52 + k) for k in range(-4, 5)]
    # exact halves: candidates that land half-way at some length
    values += [2.5, 1.5, 12.5, 0.375, 0.0001220703125, 1e15 + 0.5, 1e15 + 0.25, 1e15 + 0.75,
               2.0 ** 52 - 0.5, 999999999999999.5, 0.5 + 2.0 ** -30]
    values += [0.0, 5e-324, 2.2250738585072014e-308, up(2.2250738585072014e-308),
               down(2.2250738585072014e-308), 1.7976931348623157e308, 0.1, 0.2, 0.3, 1 / 3,
               9007199254740993.0, 9999999999999998.0, 123456789012345680.0, 1e-5, 1e-7]
    values = np.array(values)
    return np.concatenate([values, -values])


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
def test_float_edge_cells_match_repr(dtype, tmp_path):
    with np.errstate(over="ignore"):
        col = edge_floats().astype(dtype)
    col = col[np.isfinite(col)]
    assert written_rows(tmp_path, col) == reference_rows(col)


def test_float_sweep_matches_repr(tmp_path):
    # 1.2M fixed-seed doubles; both paths must be taken many times over
    rng = np.random.default_rng(20)
    n = 200_000
    bits = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
    parts = [
        rng.uniform(-100.0, 100.0, n),
        np.exp(rng.uniform(np.log(1e-6), np.log(1e17), n)) * rng.choice([-1.0, 1.0], n),
        bits[np.isfinite(bits)],
        np.round(rng.uniform(0.0, 1e4, n), 3),
        rng.integers(-2 ** 53, 2 ** 53, n).astype(np.float64),
        rng.normal(20.0, 8.0, n),
    ]
    col = np.concatenate(parts)
    fast = artifacts._shortest(np.abs(col))[2]
    assert 0.5 < fast.mean() < 0.95
    assert written_rows(tmp_path, col) == reference_rows(col)


int_dtypes = st.sampled_from([np.int8, np.int16, np.int32, np.int64,
                              np.uint8, np.uint16, np.uint32, np.uint64])


@ORACLE
@given(int_dtypes.flatmap(lambda dt: hnp.arrays(dt, st.integers(0, 30))))
def test_int_cells_match_repr(col):
    event(f"{col.dtype}")
    with tempfile.TemporaryDirectory() as tmp:
        assert written_rows(Path(tmp), col) == reference_rows(col)


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, None])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_int_extremes_across_chunks(chunk, offset, tmp_path):
    chunk = chunk or artifacts._CHUNK_ROWS
    n_rows = chunk + offset if chunk > 5 else 3 * chunk + offset
    extremes = np.array([-2 ** 63, 2 ** 63 - 1, -10 ** 18, 10 ** 18, 10 ** 18 - 1,
                         1 - 10 ** 18, 0, -1, 9999, 10000, -10000])
    rng = np.random.default_rng(chunk + offset)
    signed_col = np.concatenate([extremes, rng.integers(-2 ** 63, 2 ** 63, n_rows, dtype=np.int64)])
    unsigned_col = np.concatenate([np.array([2 ** 64 - 1, 2 ** 63, 10 ** 19, 10 ** 18, 0], np.uint64),
                                   rng.integers(0, 2 ** 64, n_rows, dtype=np.uint64)])
    floats = rng.normal(0.0, 30.0, n_rows)
    cols = [c[:n_rows] for c in (signed_col, unsigned_col, floats)]
    with mock.patch.object(artifacts, "_CHUNK_ROWS", chunk):
        assert written_rows(tmp_path, *cols) == reference_rows(*cols)


def test_empty_columns_write_the_header_only(tmp_path):
    path = tmp_path / "t.csv"
    artifacts.write_csv(path, ["a", "b"], [np.array([], np.int64), np.array([], np.float64)])
    assert path.read_bytes() == b"a,b\r\n"


def test_header_is_utf8_whatever_the_locale(tmp_path):
    # a process whose locale encoding is ASCII; text-mode open() would follow it
    path = tmp_path / "t.csv"
    code = ("import sys, numpy as np; from cvsim import artifacts; "
            "artifacts.write_csv(sys.argv[1], ['\\u00e9', 'x,y'], [np.arange(2), np.ones(2)])")
    env = dict(os.environ, LC_ALL="C", LANG="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code, str(path)], env=env, check=True)
    assert path.read_bytes() == 'é,"x,y"\r\n0,1.0\r\n1,1.0\r\n'.encode("utf-8")


# --- edges of the rounding-interval test ------------------------------------

def test_wide_candidates_and_their_twins_match_repr(tmp_path):
    # from 2**53 up the 16-digit candidate no longer fits a double's
    # significand; the interval test decides it exactly, so none takes repr
    rng = np.random.default_rng(27)
    wide = np.concatenate([
        2.0 * rng.integers(2 ** 52, 5 * 10 ** 15, 4000),
        [2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 53 + 4, 9999999999999998.0, 9999999999999996.0],
    ])
    assert ((wide >= 2.0 ** 53) & (wide < 1e16)).all()
    assert artifacts._shortest(wide)[2].all()
    # the same significands lower down: 17-digit candidates of every shape
    twins = np.concatenate([wide * 2.0 ** -k for k in range(1, 80, 3)]
                           + [wide / 10.0 ** k for k in range(1, 19)])
    for col in (wide, twins):
        col = np.concatenate([col, -col])
        assert written_rows(tmp_path, col) == reference_rows(col)


def test_decimals_on_the_interval_boundary_match_repr(tmp_path):
    # between 2**53 and 1e16 the doubles are the even integers, and each odd
    # integer, a 16-digit decimal, is a boundary: it reads back as the double
    # whose significand is even (ties to even)
    assert float("9007199254740993") == 2.0 ** 53  # significand 2**52: even
    assert float("9007199254740995") == 2.0 ** 53 + 4  # not 2**53 + 2, whose is odd
    rng = np.random.default_rng(11)
    k = rng.integers(2 ** 50, 10 ** 16 // 4, 2000)
    even, odd = 4.0 * k, 4.0 * k + 2  # significands a / 2: even and odd
    for col in (even, odd):
        edges = [np.nextafter(col, np.inf), np.nextafter(col, -np.inf)]
        col = np.concatenate([col] + edges)
        col = col[col < 1e16]
        assert written_rows(tmp_path, col) == reference_rows(col)


def test_powers_of_two_and_neighbours_match_repr(tmp_path):
    # the rounding interval is lopsided at a power of two (the gap below is
    # half the gap above), which the encoder's symmetric interval leaves out;
    # every one in repr's positional range, with both neighbours
    powers = 2.0 ** np.arange(-13, 54)
    assert powers[0] >= 1e-4 and powers[-1] < 1e16 and 2.0 ** -14 < 1e-4
    assert artifacts._shortest(powers)[2].all()  # some neighbours are ties, which take repr
    col = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)])
    col = np.concatenate([col, -col])
    assert written_rows(tmp_path, col) == reference_rows(col)


@pytest.mark.parametrize("gain", [10.0, 1.0, 37.0])
def test_integer_charges_match_repr(gain, tmp_path):
    # no readout noise and no gain dispersion: every charge is an integer,
    # whose shortest digits are many fewer than 17 (the deepest descents)
    config = cipd.HistogramConfig(gain=gain, readout_noise=0.0, gain_dispersion=0.0,
                                  source_mean=40.0, n_pulses=3 * artifacts._CHUNK_ROWS + 5)
    records = cipd.simulate_pulses(config, rng=3)
    col = records.output_charge
    assert (col == np.round(col)).all() and col.max() >= 10.0
    _, places, fast = artifacts._shortest(col)
    assert (places[fast] == 0).all()
    fields = ["true_photons", "photoelectrons", "dark_electrons", "output_charge"]
    cols = [getattr(records, f) for f in fields]
    assert written_rows(tmp_path, *cols) == reference_rows(*cols)


@pytest.mark.parametrize("n_rows", [artifacts._CHUNK_ROWS - 1, artifacts._CHUNK_ROWS,
                                    artifacts._CHUNK_ROWS + 1, 2 * artifacts._CHUNK_ROWS + 3])
def test_mixed_widths_across_chunks_match_repr(n_rows, tmp_path):
    # each chunk's row table is as wide as its widest cells: a narrow int
    # column beside a negative one and one of 10**4 and up, each of which
    # turns up in one chunk only
    rng = np.random.default_rng(n_rows)
    narrow = rng.integers(0, 10, n_rows)
    negative = rng.integers(0, 100, n_rows)
    wide = rng.integers(0, 10 ** 4, n_rows)
    tail = slice(artifacts._CHUNK_ROWS, None)
    negative[tail] -= 150  # negative in the later chunks only
    wide[tail] += 10 ** 4 + rng.integers(0, 10 ** 12, len(wide[tail]))
    charge = rng.normal(20.0, 8.0, n_rows)
    charge[: artifacts._CHUNK_ROWS] = np.abs(charge[: artifacts._CHUNK_ROWS])  # signs later only
    cols = [narrow, negative, wide, charge]
    assert written_rows(tmp_path, *cols) == reference_rows(*cols)


def test_detector_charges_take_no_repr(tmp_path):
    # a 1e5-pulse charge column at the default operating point: every value is
    # in repr's positional range and none is a 17- or 16-digit tie
    config = cipd.HistogramConfig(gain_dispersion=0.1, source_mean=3.0, n_pulses=100_000)
    col = cipd.simulate_pulses(config, rng=3).output_charge
    assert (col < 0).any()
    assert artifacts._shortest(np.abs(col))[2].all()
    assert written_rows(tmp_path, col) == reference_rows(col)


def test_float_cells_match_numpy_text(tmp_path):
    # a second oracle that does not go through repr: numpy's own shortest
    # round-trip text, which astype("S24") gives in repr's layout
    rng = np.random.default_rng(32)
    bits = rng.integers(0, 2 ** 64, 40_000, dtype=np.uint64).view(np.float64)
    up, down = (lambda x: np.nextafter(x, np.inf)), (lambda x: np.nextafter(x, -np.inf))
    bounds = np.array([1e-4, 1e16])
    powers = 2.0 ** np.arange(-1074, 1024)
    col = np.concatenate([
        bits[np.isfinite(bits)],
        np.exp(rng.uniform(np.log(1e-4), np.log(1e16), 40_000)),  # repr's positional range
        rng.integers(1, 2 ** 52, 1000, dtype=np.uint64).view(np.float64),  # subnormals
        bounds, up(bounds), down(bounds), powers, up(powers), down(powers[1:]),
        [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]])
    col = np.concatenate([col, -col])
    fast = artifacts._shortest(np.abs(col))[2]
    assert 0.2 < fast.mean() < 0.8  # both paths are taken many times over
    artifacts.write_csv(tmp_path / "t.csv", ["x"], [col])
    cells = (tmp_path / "t.csv").read_bytes().split(b"\r\n")[1:-1]
    assert cells == col.astype("S24").tolist()


@pytest.mark.parametrize("write, needle", [
    (lambda p: artifacts.write_csv(p, ["a", "b"], [np.zeros(2)]), "one column per header field"),
    (lambda p: artifacts.write_csv(p, ["a", "b"], [np.zeros(2), np.zeros(3)]),
     "columns differ in length"),
    (lambda p: artifacts.write_json(p, {"a": {1: 2.0}}), "keys must be str"),
    (lambda p: artifacts.write_json(p, {"a": [1.0, math.nan]}), "t.out: Out of range float"),
])
def test_malformed_data_is_refused_before_the_file_opens(write, needle, tmp_path):
    with pytest.raises((ValueError, TypeError), match=needle):
        write(tmp_path / "t.out")
    assert list(tmp_path.iterdir()) == []
