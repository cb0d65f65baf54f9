"""The benchmark's traced pass finds every span it reports.

`perfbench/tracing.py` wraps cvsim's public functions and a few listed methods
by name, then reads each reported span back by name.  A rename in `src` would
only break that pass (`Tracer.install` raising AttributeError, `per_layer`
KeyError); here it fails the test suite instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # standard library imports only
    return module


tracing = _load_tracing()


def _resolve(span):
    """The object `span` ("layer.function" or "layer.Class.method") names."""
    layer, _, path = span.partition(".")
    assert layer in tracing.LAYERS, span
    obj = importlib.import_module(f"cvsim.{layer}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("span", sorted(set(tracing.FUNCTION_METRICS.values())))
def test_every_reported_span_is_wrapped(span):
    layer, _, path = span.partition(".")
    fn = _resolve(span)
    if "." in path:  # a method: wrapped only when METHODS lists it
        assert path in tracing.METHODS.get(layer, ()), span
        assert callable(fn), span
    else:  # a function: wrapped when it is public and defined in its layer
        assert inspect.isfunction(fn) and fn.__module__ == f"cvsim.{layer}", span


@pytest.mark.parametrize("span", sorted(f"{layer}.{path}" for layer, paths in
                                        tracing.METHODS.items() for path in paths))
def test_every_listed_method_exists(span):
    assert callable(_resolve(span)), span
