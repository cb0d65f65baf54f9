"""The artifact format: every CSV and JSON file a run writes goes through here.

CSV: a UTF-8 header row, then one row per index of equal-length columns;
floats as repr(float) (the shortest string that reads back to the same double),
integers as int, "\\r\\n" line ends.  JSON: sorted keys, two-space indent, a
trailing newline; the bytes are those of json.dumps(payload, indent=2,
sort_keys=True).  Both writers refuse NaN and +-Infinity with ValueError before
the file is opened, so a refused artifact leaves no file behind.

numbers(array) checks a column and returns its repr strings as Numbers, each
distinct value formatted once; write_csv and encode_json emit Numbers as they
stand.  For finite floats and ints repr is what json writes, so a scenario's
CSV and JSON can share one formatted column.

write_csv encodes array columns in numpy, with the bytes repr would give and
no repr per value.  A float's shortest digits come from exact arithmetic:
Dekker's two-product gives the 17-digit candidate x = a * 10**places, and
half the gaps to a's neighbouring doubles, scaled the same way, are exact
too, so a's rounding interval around x has exact ends (Ryu's formulation).
A candidate with s digits fewer reads back iff a multiple of 10**s lies in
that interval, a test on integers, made for s = 1, 2, ... on a whole chunk
until no row passes.  Digits become text through a table of 4-digit groups,
in a row table as wide as each chunk's widest cells.  What that path leaves
out goes to repr: floats below 1e-4 or from 1e16 up (where repr uses an
exponent), values whose 17- or 16-digit candidate is a tie (repr's choice
between two equally near candidates is not reproduced), and ints with
|x| >= 10**18.  A detector charge takes repr only if it is below 1e-4 in
size or such a tie, which no charge of a seeded 1e5-pulse run is.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math

import numpy as np

# rows encoded per write of a chunk that holds an array column: bounds the
# temporaries (tracemalloc: 1.4 MB for the four detector record columns at
# 8192 rows, 2.7 MB at 16384)
_CHUNK_ROWS = 8192

_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact doubles
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)


@functools.cache  # built on first use: runs that write no array column skip it
def _digit_table():
    """Entry k * 10**4 + v: the last k ASCII digits of 0 <= v < 10**4 (k = 0 .. 4)
    after 4 - k NULs, and for k = 5 all of v's digits after NULs, as one 4-byte
    word: a number's text, 4 digits per divmod."""
    digits = np.moveaxis(np.indices((10,) * 4, np.uint8), 0, -1).reshape(10 ** 4, 4) + np.uint8(48)
    table = np.zeros((6, 10 ** 4, 4), np.uint8)
    for k in range(1, 5):
        table[k, :, 4 - k:] = digits[:, 4 - k:]
    v = np.arange(10 ** 4)
    table[5] = table[1 + (v >= 10) + (v >= 100) + (v >= 1000), v]
    table = table.view(np.uint32).ravel()
    table.flags.writeable = False
    return table


_VELTKAMP = 134217729.0  # 2**27 + 1


class Numbers(list):
    """The repr strings of a checked 1-D int or float array, from numbers().

    A slice of one is a plain list; wrap it in Numbers again to emit it.
    """


def _checked(array):
    """`array` as a 1-D int or float array; ValueError otherwise or on NaN/+-Infinity."""
    a = np.asarray(array)
    if a.ndim != 1 or a.dtype.kind not in "iuf" or a.itemsize > 8:
        raise ValueError(f"need a 1-D int or float array, got {a.ndim}-D {a.dtype}")
    if a.dtype.kind == "f" and not np.isfinite(a).all():
        raise ValueError("holds a non-finite number")
    return a


def numbers(array):
    """The repr strings of a 1-D int or float array, as both writers emit them;
    each distinct value is formatted once.  ValueError on NaN, +-Infinity, bool
    or any other dtype.
    """
    a = _checked(array)
    bits, index = np.unique(a.view(f"i{a.itemsize}"), return_inverse=True)  # -0.0 is not 0.0
    text = list(map(repr, bits.view(a.dtype).tolist()))
    return Numbers(map(text.__getitem__, index.tolist()))


def _times_pow10(a, q):
    """a * 10**q exactly, as hi + lo: Dekker's two-product with Veltkamp splits."""
    p = _POW10[q]
    hi = a * p
    c = _VELTKAMP * a
    ah = c - (c - a)
    al = a - ah
    c = _VELTKAMP * p
    ph = c - (c - p)
    pl = p - ph
    return hi, ((ah * ph - hi) + ah * pl + al * ph) + al * pl


def _round_off(d17, rest, s):
    """The integer nearest to (d17 + rest) / 10**s, for int64 d17, |rest| < 1/2
    and s >= 0, where that is not a tie."""
    p = _POW10_INT[s]
    head = d17 // p
    excess = 2 * (d17 - head * p) - p  # the sign of the dropped part minus p / 2
    return head + ((excess > 0) | ((excess == 0) & (rest > 0)))


def _descend(top, width, places):
    """For each row, the most digits s <= places that can be dropped: the
    largest s for which a multiple of 10**s lies in [top - width, top], with
    0 <= width < 100.  That holds for s iff top mod 10**s <= width, and then
    for s - 1 too, so s counts up over the whole chunk until no row gains."""
    cut = np.zeros(len(top), np.int64)
    for p in _POW10_INT[1:]:
        gains = top - top // p * p <= width  # top mod p: numpy's // by a scalar is fast, % is not
        if not gains.any():
            break
        cut += gains
    return np.minimum(cut, places)


def _shortest(a):
    """(digits, places, fast) for float64 a >= 0: where fast, repr(a) is the
    positional text of digits / 10**places, its shortest round-trip digits.

    fast holds for 1e-4 <= a < 1e16 (where repr is positional) but not for
    the few values whose 17- or 16-digit candidate is a tie, where repr's
    choice between the two is not reproduced.  A shorter candidate reads back
    iff it lies in a's rounding interval, whose ends are exact here, so the
    test is one of integers; the nearest candidate of a length lies in it if
    any does.

    The interval is taken as closed, one half-gap h to each side.  The true
    one is open for an odd significand and, below a power of two, only h / 2
    deep; neither changes a result in range.  A candidate with a digit
    dropped has at most 16 significant digits.  A midpoint between doubles,
    N * 2**-j for an odd N of 54 bits, is for j >= 1 the decimal
    N * 5**j / 10**j of 17 or more, and for j <= 0 in range an odd integer
    between 2**53 and 1e16, where a itself is the nearer 16-digit candidate
    and no multiple of 10 is odd.  A power of two in range other than 1 is a
    decimal of at most 16 digits ending in 2, 4, 5, 6 or 8, so the nearest
    shorter candidate below it is 20 or more units of its 17th digit away,
    beyond h / 2 and h <= 1e17 * 2**-53 < 11.2 alike.
    """
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0000000000000002)  # a stand-in that needs 17 digits
    # places puts 17 digits before the point: 1e16 <= a * 10**places < 1e17
    places = 16 - np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _times_pow10(a, places)
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    if (below | above).any():  # log10 rounded across a power of ten
        places += below.astype(np.int64) - above
        hi, lo = _times_pow10(a, places)
    # hi is an integer, so the nearest integer to a * 10**places is hi + rint(lo)
    step = np.rint(lo)
    d17 = hi.astype(np.int64) + step.astype(np.int64)
    rest = lo - step  # exact: a * 10**places - d17
    fast &= (np.abs(rest) != 0.5) & ~((rest == 0) & (d17 % 10 == 5))
    # With x = a * 10**places = d17 + rest, x + e reads back as a iff
    # |e - rest| <= h, h half the gap to the next double times 10**places:
    # a power of two times 10**places, so exact, and rest, h and rest +- h
    # are multiples of one 2**-k with k <= 47 and below 12 in size, so exact
    # as well: the integers e that read back form the exact range
    # [lo_e, hi_e], with -12 < lo_e <= 0 <= hi_e < 12.
    h = np.spacing(a) * _POW10[places] * 0.5
    hi_e, lo_e = np.floor(rest + h), np.ceil(rest - h)
    cut = _descend(d17 + hi_e.astype(np.int64), (hi_e - lo_e).astype(np.int64), places)
    return _round_off(d17, rest, cut), places - cut, fast


# _KEPT[j, k] / 10**4: how many digits group j of five (counted from the left,
# 4 digits each) shows when a number's last k digits are shown
_KEPT = np.clip(np.arange(21) - np.arange(16, -1, -4)[:, None], 0, 4) * 10 ** 4


def _digits(x, keep):
    """(n, w) uint8, w = the largest keep: the last `keep` decimal digits of
    each int64 x >= 0, zero-padded and right-aligned, NUL before them."""
    w = int(keep.max(initial=0))
    g = max(-(-w // 4), 1)
    # the table index of each group, one row per group, counted from the left
    index = _KEPT[5 - g:].take(keep, axis=1)
    for j in range(g - 1, -1, -1):
        head = x // 10 ** 4
        index[j] += x - head * 10 ** 4
        x = head
    return _digit_table().take(index.T).view(np.uint8)[:, 4 * g - w:]


def _whole(x, fast):
    """(n, w) uint8, w the widest: the decimal digits of each int64 x >= 0
    where fast, NUL elsewhere."""
    top = int(x.max(initial=0))
    if top < 10 ** 4:  # one group, whose table entry has no leading zeros
        index = (x + 5 * 10 ** 4) * fast
        return _digit_table()[index[:, None]].view(np.uint8)[:, 4 - len(str(top)):]
    width = np.ones(len(x), np.int64)
    for p in _POW10_INT[1:len(str(top))]:
        width += x >= p
    return _digits(x, width * fast)


def _column(byte, rows):
    """A one-byte block: `byte` where rows, else NUL."""
    return (rows * np.uint8(byte))[:, None]


def _cell(col):
    """(blocks, slow, text): uint8 blocks whose non-NUL bytes, row by row, are
    the repr of each value of `col` (an array, or a slice of Numbers), save at
    rows `slow`, where the blocks are NUL and the text is in the S array `text`."""
    if isinstance(col, list):
        return [], np.arange(len(col)), np.array(col, dtype="S")
    if col.dtype.kind == "f":
        v = col.astype(np.float64, copy=False)
        digits, places, fast = _shortest(np.abs(v))
        whole, part = np.divmod(digits, _POW10_INT[np.minimum(places, 18)])
        sign = fast & (v < 0)
        blocks = [_whole(whole, fast), _column(ord("."), fast),
                  _digits(part, np.maximum(places, 1) * fast)]
    else:
        huge = (col >= 10 ** 18) | ((col <= -10 ** 18) if col.dtype.kind == "i" else False)
        fast = ~huge
        x = np.where(fast, col, 0).astype(np.int64)
        sign = x < 0
        whole = np.abs(x)
        blocks = [_whole(whole, fast)]
    if sign.any():
        blocks.insert(0, _column(ord("-"), sign))
    slow = np.flatnonzero(~fast)
    # 24 bytes hold the repr of any 8-byte number, e.g. "-2.2250738585072014e-308"
    return blocks, slow, np.array(list(map(repr, col[slow].tolist())), dtype="S24")


def _encode_rows(cells):
    """The CSV data rows of equal-length cells (arrays or slices of Numbers):
    the bytes of ",".join(map(repr, row)) + "\\r\\n" for each row."""
    n = len(cells[0])
    blocks, patches, at = [], [], 0
    for end, cell in zip([b","] * (len(cells) - 1) + [b"\r\n"], cells):
        parts, slow, text = _cell(cell)
        width = sum(b.shape[1] for b in parts)
        if len(slow):  # room for the text, written over the NUL'd blocks
            parts.append(np.zeros((n, max(text.itemsize - width, 0)), np.uint8))
            patches.append((slow, at, text.view(np.uint8).reshape(len(slow), text.itemsize)))
            width = max(width, text.itemsize)
        blocks += parts + [np.broadcast_to(np.frombuffer(end, np.uint8), (n, len(end)))]
        at += width + len(end)
    table = np.concatenate(blocks, axis=1)
    del blocks
    for slow, start, text in patches:
        table[slow, start:start + text.shape[1]] = text
    return table.tobytes().translate(None, b"\0")


def write_csv(path, header, columns):
    """Write equal-length columns under `header`, one row per index.

    A column is Numbers, written as it stands, or a 1-D int or float array.
    Rows go out _CHUNK_ROWS at a time: a chunk of Numbers alone is joined as
    text, any other is encoded by _encode_rows.
    """
    if len(header) != len(columns):
        raise ValueError(f"{path}: need one column per header field")
    checked = []
    for name, col in zip(header, columns):
        try:
            checked.append(col if isinstance(col, Numbers) else _checked(col))
        except ValueError as exc:
            raise ValueError(f"{path}: column {name} {exc}") from None
    if len({len(c) for c in checked}) != 1:
        raise ValueError(f"{path}: columns differ in length")
    head = io.StringIO(newline="")
    csv.writer(head).writerow(header)
    text_only = all(isinstance(c, Numbers) for c in checked)
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode("utf-8"))
        # numbers never need CSV quoting, so data rows are joined directly
        for start in range(0, len(checked[0]), _CHUNK_ROWS):
            cells = [c[start:start + _CHUNK_ROWS] for c in checked]
            if text_only:
                fh.write(("\r\n".join(map(",".join, zip(*cells))) + "\r\n").encode())
            else:
                fh.write(_encode_rows(cells))


def _encode(value, newline):
    """JSON text of `value` nested at `newline` ("\\n" and the current indent),
    as json.dumps(indent=2, sort_keys=True, allow_nan=False) writes it."""
    kind = type(value)
    if kind is float:  # scalars first: they are most of the calls
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return repr(value)
    if kind is int:
        return repr(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(type(k) is str for k in value):
            raise TypeError("artifact JSON keys must be str")
        inner = newline + "  "
        return "{" + inner + ("," + inner).join(
            [json.dumps(k) + ": " + _encode(value[k], inner) for k in sorted(value)]
        ) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = value if isinstance(value, Numbers) else [_encode(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value, allow_nan=False)  # str, bool, None, subclasses of float/int


def encode_json(payload):
    """JSON text of `payload` with sorted keys and a two-space indent, Numbers
    emitted as they stand; ValueError on NaN or +-Infinity."""
    return _encode(payload, "\n")


def write_json(path, payload):
    """Write encode_json(payload) and a newline."""
    try:
        text = encode_json(payload) + "\n"
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text)
