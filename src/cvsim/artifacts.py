"""The artifact format: every CSV and JSON file a run writes goes through here.

CSV: a header row, then one row per index of equal-length columns; floats as
repr(float) (the shortest string that reads back to the same double), integers
as int, "\\r\\n" line ends.  JSON: sorted keys, two-space indent, a trailing
newline.  Both writers refuse NaN and +-Infinity with ValueError before the
file is opened, so a refused artifact leaves no file behind.
"""

from __future__ import annotations

import csv
import json

import numpy as np

# rows formatted per write: bounds the Python objects alive at once (about
# 0.2 MB for four columns; 8192 rows raised a 1e5-pulse run's peak RSS by
# 0.9 MB with no measurable gain in speed)
_CHUNK_ROWS = 1024


def write_csv(path, header, columns):
    """Write equal-length 1-D columns under `header`, one row per index."""
    columns = [np.asarray(c) for c in columns]
    if len(header) != len(columns) or len({c.shape for c in columns}) != 1:
        raise ValueError(f"{path}: need one equal-length column per header field")
    for name, col in zip(header, columns):
        if col.dtype.kind == "f" and not np.isfinite(col).all():
            raise ValueError(f"{path}: column {name} holds a non-finite number")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        # numbers never need CSV quoting, so data rows are joined directly
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            cells = [map(repr, c[start:start + _CHUNK_ROWS].tolist()) for c in columns]
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*cells)]))


def encode_json(payload, indent=2):
    """JSON text of `payload` with sorted keys; ValueError on NaN or +-Infinity.

    indent=None gives the one-line form that configuration digests hash.
    """
    return json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)


def write_json(path, payload):
    """Write encode_json(payload) and a newline."""
    try:
        text = encode_json(payload) + "\n"
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    with open(path, "w") as fh:
        fh.write(text)
