"""The benchmark's traced pass finds every span it reports, and runs.

`perfbench/tracing.py` wraps cvsim's public functions and a few listed methods
by name, reads each reported span back by name, and its observers read
attributes of what some wrapped functions return.  A rename in `src` would
only break that pass (`Tracer.install` raising AttributeError, `per_layer`
KeyError, an observer AttributeError failing the run) or, for an observer's
span, silently zero its metric; here it fails the test suite instead.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvsim

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


@pytest.mark.parametrize("span", sorted(tracing.OBSERVERS))
def test_every_observed_span_is_wrapped(span):
    # an observer keyed by a span that install never wraps never runs: its metric reads 0
    test_every_reported_span_is_wrapped(span)


@pytest.mark.parametrize("span", sorted(f"{layer}.{path}" for layer, paths in
                                        tracing.METHODS.items() for path in paths))
def test_every_listed_method_exists(span):
    assert callable(_resolve(span)), span


# each bundled scenario through the CLI with the tracer installed and recording,
# in a child process so that the wrappers never reach this one's cvsim
TRACED_RUNS = """
import json, sys
from pathlib import Path
import cvsim
from cvsim import cli
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
tracer = Tracer()
tracer.install(cvsim)
tracer.current = 0
out = Path(sys.argv[2])
codes = {Path(p).stem: cli.main(["run", p, "--output-dir", str(out / Path(p).stem)])
         for p in sys.argv[3:]}
tracer.per_layer(1, [1.0])
print(json.dumps(codes))
"""


def test_traced_bundled_scenarios_run(tmp_path):
    bundled = sorted(str(p) for p in (ROOT / "scenarios").glob("*.json"))
    assert len(bundled) == 5
    src = str(Path(cvsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", TRACED_RUNS, str(TRACING.parent),
                           str(tmp_path), *bundled], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {Path(p).stem: 0 for p in bundled}, \
        proc.stderr
