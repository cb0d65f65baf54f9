"""One declaration per scenario parameter: `name: type = param(default, help,
ge=..., gt=..., le=..., lt=...)` gives a config field its default, the help line
`cvsim describe` prints and its interval (an end left out is unbounded; a pair's
interval holds its modulus).  A config's __post_init__ calls `check(self)`, which
holds every field to its annotated type.  Every field of a config is a scenario
parameter: cli reads each kind's `schema` and passes a scenario's parameters to
the config as they are.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import field, fields


def _coerce(v, kind=numbers.Real, cast=float):
    """cast(v) for a non-bool `kind`, else TypeError; past the float range, inf (not finite)."""
    if isinstance(v, bool) or not isinstance(v, kind):
        raise TypeError
    try:
        return cast(v)
    except OverflowError:
        return math.inf


def _floats(v, n=None):
    """A non-empty list or tuple of reals (n of them, if given) as floats."""
    if not isinstance(v, (list, tuple)) or not v or n not in (None, len(v)):
        raise TypeError
    return tuple(map(_coerce, v))


# a field's annotation (a string, under `from __future__ import annotations`) -> (the JSON
# type `cvsim describe` prints, what a refusal expects, the coercion to the stored value)
_TYPES = {
    "int": ("int", "an integer", lambda v: _coerce(v, numbers.Integral, int)),
    "float": ("float", "a number", _coerce),
    "complex": ("pair", "[re, im]", lambda v: complex(*_floats(v, 2))
                if isinstance(v, (list, tuple)) else _coerce(v, numbers.Complex, complex)),
    "str": ("str", "a string", lambda v: _coerce(v, str, str)),
    "tuple": ("pmf", "a list of probabilities", _floats),
}


def param(default, help, *, ge=None, gt=None, le=None, lt=None):
    """A dataclass field carrying its help line and its interval, if it has one."""
    if ge is gt is le is lt is None:
        return field(default=default, metadata={"help": help})
    lo = ("(", gt) if gt is not None else ("[", ge) if ge is not None else ("(", -math.inf)
    hi = (lt, ")") if lt is not None else (le, "]") if le is not None else (math.inf, ")")
    return field(default=default, metadata={"help": help, "interval": lo + hi})


def check(config):
    """Store each field of config as its annotation holds it (None, where that is the
    default, is left to the config); refuse, as a ValueError 'field: why', a value of
    another type, a non-finite number and a declared field outside its interval."""
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None and f.default is None:
            continue
        try:
            value = _TYPES[f.type][2](value)
        except TypeError:
            raise ValueError(f"{f.name}: expected {_TYPES[f.type][1]}") from None
        object.__setattr__(config, f.name, value)
        if isinstance(value, (float, complex, tuple)) and not all(
                map(cmath.isfinite, value if isinstance(value, tuple) else (value,))):
            raise ValueError(f"{f.name}: must be finite, got {value!r}")
        if "interval" not in f.metadata:
            continue
        left, lo, hi, right = f.metadata["interval"]
        # a pair's modulus; hypot gives inf where abs of two finite parts overflows
        size = math.hypot(value.real, value.imag) if isinstance(value, complex) else value
        if not ((lo < size if left == "(" else lo <= size)
                and (size < hi if right == ")" else size <= hi)):
            raise ValueError(f"{f.name}: must be in {left}{lo}, {hi}{right}, got {value!r}")


def schema(config_cls):
    """name -> (JSON type, default, help) for every field of config_cls: int, float, str,
    pair, pmf, optional_int or optional_float.  An annotation _TYPES lacks raises
    KeyError here, as cli builds its table on import."""
    return {f.name: (("optional_" if f.default is None and f.type in ("int", "float") else "")
                     + _TYPES[f.type][0], f.default, f.metadata["help"])
            for f in fields(config_cls)}
