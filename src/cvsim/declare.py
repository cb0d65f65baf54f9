"""One declaration per scenario parameter: `name: type = param(default, help,
ge=..., gt=..., le=..., lt=...)` gives a config field its default, the help line
`cvsim describe` prints and its interval (an end left out is unbounded).  A
config's __post_init__ calls `check(self)`; cli reads each kind's `schema`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import field, fields

# a field annotation -> the scenario JSON type cli checks; other names map to themselves
_JSON_TYPES = {"complex": "pair", "tuple": "pmf"}


def param(default, help, *, ge=None, gt=None, le=None, lt=None):
    """A dataclass field carrying its help line and its interval, if it has one."""
    if ge is gt is le is lt is None:
        return field(default=default, metadata={"help": help})
    lo = ("(", gt) if gt is not None else ("[", ge) if ge is not None else ("(", -math.inf)
    hi = (lt, ")") if lt is not None else (le, "]") if le is not None else (math.inf, ")")
    return field(default=default, metadata={"help": help, "interval": lo + hi})


def check(config):
    """Refuse, as a ValueError 'field: why', a non-finite float or complex field
    and a declared field outside its interval (None is left to the config)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, (float, complex)) and not cmath.isfinite(value):
            raise ValueError(f"{f.name}: must be finite, got {value!r}")
        if value is None or "interval" not in f.metadata:
            continue
        left, lo, hi, right = f.metadata["interval"]
        if not ((lo < value if left == "(" else lo <= value)
                and (value < hi if right == ")" else value <= hi)):
            raise ValueError(f"{f.name}: must be in {left}{lo}, {hi}{right}, got {value!r}")


def schema(config_cls):
    """name -> (JSON type, default, help) for every declared field of config_cls
    but those it lists in `HIDDEN`; the type is one of int, float, str, pair,
    pmf, optional_int and optional_float, read off the annotation (a string:
    the config modules import `annotations` from `__future__`)."""
    out = {}
    for f in fields(config_cls):
        if f.name in getattr(config_cls, "HIDDEN", ()):
            continue
        kind = _JSON_TYPES.get(f.type, f.type)
        if f.default is None and kind in ("int", "float"):
            kind = "optional_" + kind
        out[f.name] = (kind, f.default, f.metadata["help"])
    return out
