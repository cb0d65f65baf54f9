"""The artifact format: every CSV and JSON file a run writes goes through here.

CSV: a header row, then one row per index of equal-length columns; floats as
repr(float) (the shortest string that reads back to the same double), integers
as int, "\\r\\n" line ends.  JSON: sorted keys, two-space indent, a trailing
newline; the bytes are those of json.dumps(payload, indent=2, sort_keys=True).
Both writers refuse NaN and +-Infinity with ValueError before the file is
opened, so a refused artifact leaves no file behind.

numbers(array) checks a column and returns its repr strings as Numbers, each
distinct value formatted once; write_csv and encode_json emit Numbers as they
stand.  For finite floats and ints repr is what json writes, so a scenario's
CSV and JSON can share one formatted column.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# rows formatted per write of an unformatted column: bounds the Python objects
# alive at once (about 0.2 MB for four columns; 8192 rows raised a 1e5-pulse
# run's peak RSS by 0.9 MB with no measurable gain in speed)
_CHUNK_ROWS = 1024


class Numbers(list):
    """The repr strings of a checked 1-D int or float array, from numbers().

    A slice of one is a plain list; wrap it in Numbers again to emit it.
    """


def _checked(array):
    """`array` as a 1-D int or float array; ValueError otherwise or on NaN/+-Infinity."""
    a = np.asarray(array)
    if a.ndim != 1 or a.dtype.kind not in "iuf":
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


def write_csv(path, header, columns):
    """Write equal-length columns under `header`, one row per index.

    A column is Numbers, written as it stands, or a 1-D int or float array,
    formatted _CHUNK_ROWS rows at a time.
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
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        # numbers never need CSV quoting, so data rows are joined directly
        for start in range(0, len(checked[0]), _CHUNK_ROWS):
            cells = [c[start:start + _CHUNK_ROWS] if isinstance(c, Numbers)
                     else map(repr, c[start:start + _CHUNK_ROWS].tolist()) for c in checked]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _encode(value, newline, step):
    """JSON text of `value` nested at `newline` ("\\n" and the current indent),
    as json.dumps(indent=len(step), sort_keys=True, allow_nan=False) writes it."""
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
        inner = newline + step
        return "{" + inner + ("," + inner).join(
            [json.dumps(k) + ": " + _encode(value[k], inner, step) for k in sorted(value)]
        ) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + step
        items = value if isinstance(value, Numbers) else [_encode(v, inner, step) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value, allow_nan=False)  # str, bool, None, subclasses of float/int


def encode_json(payload, indent=2):
    """JSON text of `payload` with sorted keys; ValueError on NaN or +-Infinity.

    indent=None gives the one-line form that configuration digests hash; it is
    json.dumps itself and takes no Numbers.
    """
    if indent is None:
        return json.dumps(payload, sort_keys=True, allow_nan=False)
    return _encode(payload, "\n", " " * indent)


def write_json(path, payload):
    """Write encode_json(payload) and a newline."""
    try:
        text = encode_json(payload) + "\n"
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text)
