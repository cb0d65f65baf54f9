"""Span tracer for the traced benchmark pass, installed from outside the program.

`Tracer.install` wraps every public function of the cvsim layers (plus a few
methods) in place, so calls between layers, which go through module
attributes, land in the wrappers.  A span is (name, start, end, parent,
scenario): the scenario id is shared by the spans of one `cvsim run`.  Spans
live in flat arrays in memory and are written once the pass ends.  Spans are
recorded only while a scenario id is set, so untimed runs cost one branch.

`per_layer` turns the spans into the per-layer metrics listed in PER_LAYER.
Every figure is per scenario run: the mean over the traced runs that entered
the function (for `<function>.s` / `.calls`) or the layer (for layer-wide
figures), 0 if none did.  A layer's self time is the time in which the
innermost open span belongs to that layer.
"""

from __future__ import annotations

import functools
import inspect
import os
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "cubicphase", "densecoding", "cipd", "fock", "gaussian")
METHODS = {
    "fock": ("FockOperator.apply",),
    "cubicphase": ("GateRunRecord.to_json",),
    "gaussian": ("GaussianState.__post_init__",),  # construction + validation
}
FOCK_BUILDERS = ("displacement_op", "squeeze_op", "cubic_phase_op", "qnd_coupling_op")

# metric -> span whose per-run time (".s") or call count (".calls") it reports
FUNCTION_METRICS = {
    f"{span}.{suffix}": span
    for span, suffixes in {
        "fock.qnd_coupling_op": ("s", "calls"),
        "fock.FockOperator.apply": ("s",),
        "fock.tmsv": ("s",),
        "fock.displacement_op": ("s",),
        "fock.squeeze_op": ("s",),
        "fock.photon_count": ("s",),
        "fock.hermite_functions": ("s", "calls"),
        "cubicphase.run_gate": ("s",),
        "cubicphase.couple": ("s",),
        "cubicphase.readout_and_condition": ("s",),
        "cubicphase.fit_cubic_phase": ("s",),
        "cubicphase.cubic_reference_overlap": ("s",),
        "cubicphase.excess_kurtosis_x": ("s",),
        "gaussian.homodyne": ("s",),
        "densecoding.run_spectrum": ("s",),
        "densecoding.phase_sweep": ("s",),
        "cipd.simulate_pulses": ("s",),
        "cipd.histogram": ("s",),
        "cipd.detect_peaks": ("s",),
        "cipd.write_records_csv": ("s",),
        "cli.main": ("s",),
        "cli.parse_scenario": ("s",),
    }.items()
    for suffix in suffixes
}
FUNCTION_METRICS["cubicphase.to_json.s"] = "cubicphase.GateRunRecord.to_json"
FUNCTION_METRICS["gaussian.state_validation.s"] = "gaussian.GaussianState.__post_init__"

# every per-layer metric: name -> (unit, better)
PER_LAYER = {
    **{m: ("count" if m.endswith(".calls") else "s", "lower") for m in FUNCTION_METRICS},
    "fock.self_s": ("s", "lower"),
    "fock.operator_mb": ("MB", "lower"),
    "fock.interior_unitarity_max": ("norm", "lower"),
    "cubicphase.self_s": ("s", "lower"),
    "gaussian.self_s": ("s", "lower"),
    "gaussian.calls": ("count", "lower"),
    "gaussian.states_built": ("count", "lower"),
    "gaussian.states_per_bin": ("ratio", "lower"),
    "gaussian.homodyne.samples": ("count", "higher"),
    "gaussian.samples_per_s": ("1/s", "higher"),
    "densecoding.self_s": ("s", "lower"),
    "densecoding.bins_per_s": ("1/s", "higher"),
    "densecoding.write.s": ("s", "lower"),
    "densecoding.write.bytes": ("bytes", "lower"),
    "cipd.self_s": ("s", "lower"),
    "cipd.pulses_per_s": ("1/s", "higher"),
    "cipd.histogram.bins": ("count", "lower"),
    "cipd.histogram.occupied_frac": ("ratio", "higher"),
    "cipd.write.s": ("s", "lower"),
    "cipd.write.mb_per_s": ("MB/s", "higher"),
    "cli.self_s": ("s", "lower"),
    "cli.artifact_bytes": ("bytes", "lower"),
    "trace.scenarios_per_s": ("1/s", "higher"),
    "trace.untraced_scenarios_per_s": ("1/s", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "calib.raw_run_p50_s": ("s", "lower"),
    "calib.slowdown": ("ratio", "lower"),
}


def _observe_operator(tracer, args, op):
    tracer.peak("fock.operator_mb", op.matrix.nbytes / 1e6)  # computed from nbytes
    tracer.peak("fock.interior_unitarity_max", op.diagnostics.get("interior_unitarity", 0.0))


def _observe_writer(layer):
    def observe(tracer, args, result):
        tracer.add(f"{layer}.write.bytes", os.path.getsize(args[1]))
    return observe


def _observe_histogram(tracer, args, hist):
    tracer.add("cipd.histogram.bins", hist.counts.size)
    tracer.add("cipd.histogram.occupied", int((hist.counts > 0).sum()))


OBSERVERS = {
    **{f"fock.{name}": _observe_operator for name in FOCK_BUILDERS},
    "gaussian.homodyne": lambda t, args, res: t.add(
        "gaussian.homodyne.samples", 0 if res.samples is None else res.samples.size),
    "densecoding.run_spectrum": lambda t, args, res: t.add("densecoding.bins", len(args[0].bins)),
    "cipd.simulate_pulses": lambda t, args, res: t.add("cipd.pulses", len(res)),
    "cipd.histogram": _observe_histogram,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.scenario = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.current = -1  # scenario id being recorded; -1 records nothing
        self.sums = defaultdict(lambda: defaultdict(float))  # scenario -> key -> total
        self.maxima = defaultdict(float)

    def add(self, key, value, scenario=None):
        self.sums[self.current if scenario is None else scenario][key] += value

    def peak(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def install(self, package):
        """Wrap the public functions and listed methods of every cvsim layer."""
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))
            for path in METHODS.get(layer, ()):
                cls_name, method = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self._wrap(f"{layer}.{path}", getattr(cls, method)))

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        layer, _, func = name.partition(".")
        observe = OBSERVERS.get(name)
        if func.startswith("write_"):
            observe = _observe_writer(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.current < 0:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.scenario.append(self.current)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def _columns(self):
        import numpy as np

        return (np.frombuffer(self.name_id, dtype=np.intc), np.frombuffer(self.parent, dtype=np.intc),
                np.frombuffer(self.scenario, dtype=np.intc), np.frombuffer(self.start),
                np.frombuffer(self.end))

    def save(self, path, t0):
        """Write the spans: names, name_id, parent (-1 = root), scenario, start/end (s from t0)."""
        import numpy as np

        name_id, parent, scenario, start, end = self._columns()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id, parent=parent,
                            scenario=scenario, start=start - t0, end=end - t0)

    def per_layer(self, n_runs, slowdown):
        """Per-layer metrics over scenario ids 0..n_runs-1 (see the module docstring).

        Span times are divided by their run's slowdown (see worker.py), so
        they are in the same reference-speed seconds as the run times.
        """
        import numpy as np

        name_id, parent, scenario, start, end = self._columns()
        k = len(self.names)
        dur = end - start
        nested = parent >= 0
        covered = np.zeros(dur.size)
        np.add.at(covered, parent[nested], dur[nested])
        key = scenario * k + name_id
        scale = 1.0 / np.asarray(slowdown)[:, None]
        time = np.bincount(key, weights=dur, minlength=n_runs * k).reshape(n_runs, k) * scale
        calls = np.bincount(key, minlength=n_runs * k).reshape(n_runs, k)
        own = np.bincount(key, weights=dur - covered, minlength=n_runs * k).reshape(n_runs, k) * scale
        layer_of = np.array([n.partition(".")[0] for n in self.names])
        index = {n: i for i, n in enumerate(self.names)}

        def cols(pred):
            return [i for i, n in enumerate(self.names) if pred(n)]

        def per_run(values, entered):
            runs = int(entered.sum())
            return float(values[entered].sum() / runs) if runs else 0.0

        def ratio(num, den):
            return float(num / den) if den else 0.0

        out = {}
        for metric, span in FUNCTION_METRICS.items():
            i = index[span]
            entered = calls[:, i] > 0
            table = calls if metric.endswith(".calls") else time
            out[metric] = per_run(table[:, i], entered)

        entered_layer = {}
        for layer in LAYERS:
            c = cols(lambda n: n.startswith(layer + "."))
            entered_layer[layer] = calls[:, c].sum(axis=1) > 0
            out[f"{layer}.self_s"] = per_run(own[:, c].sum(axis=1), entered_layer[layer])

        sums = {key: np.array([self.sums[s][key] for s in range(n_runs)])
                for key in ("gaussian.homodyne.samples", "densecoding.bins", "densecoding.write.bytes",
                            "cipd.pulses", "cipd.histogram.bins", "cipd.histogram.occupied",
                            "cipd.write.bytes", "cli.artifact_bytes")}

        # gaussian: entries into the layer (outermost spans), states built
        g_span = layer_of[name_id] == "gaussian"
        outer = g_span & ~(nested & (layer_of[name_id[np.maximum(parent, 0)]] == "gaussian"))
        entries = np.bincount(scenario[outer], minlength=n_runs)
        states = calls[:, index["gaussian.GaussianState.__post_init__"]]
        g_in = entered_layer["gaussian"]
        out["gaussian.calls"] = per_run(entries, g_in)
        out["gaussian.states_built"] = per_run(states, g_in)
        bins = sums["densecoding.bins"]
        out["gaussian.states_per_bin"] = ratio(states[bins > 0].sum(), bins.sum())
        hom = index["gaussian.homodyne"]
        out["gaussian.homodyne.samples"] = per_run(sums["gaussian.homodyne.samples"], calls[:, hom] > 0)
        out["gaussian.samples_per_s"] = ratio(sums["gaussian.homodyne.samples"].sum(), time[:, hom].sum())

        spec = index["densecoding.run_spectrum"]
        out["densecoding.bins_per_s"] = ratio(bins.sum(), time[:, spec].sum())

        def writers(layer):  # per-run time in the layer's write_* functions, and who wrote
            w = cols(lambda n: n.startswith(layer + ".write_"))
            return time[:, w].sum(axis=1), calls[:, w].sum(axis=1) > 0

        dc_write, dc_wrote = writers("densecoding")
        out["densecoding.write.s"] = per_run(dc_write, dc_wrote)
        out["densecoding.write.bytes"] = per_run(sums["densecoding.write.bytes"], dc_wrote)
        cipd_write, cipd_wrote = writers("cipd")
        out["cipd.write.s"] = per_run(cipd_write, cipd_wrote)
        out["cipd.write.mb_per_s"] = ratio(sums["cipd.write.bytes"].sum() / 1e6, cipd_write.sum())

        sim, hist = index["cipd.simulate_pulses"], index["cipd.histogram"]
        out["cipd.pulses_per_s"] = ratio(sums["cipd.pulses"].sum(), time[:, sim].sum())
        out["cipd.histogram.bins"] = per_run(sums["cipd.histogram.bins"], calls[:, hist] > 0)
        out["cipd.histogram.occupied_frac"] = ratio(sums["cipd.histogram.occupied"].sum(),
                                                    sums["cipd.histogram.bins"].sum())
        out["cli.artifact_bytes"] = per_run(sums["cli.artifact_bytes"], entered_layer["cli"])
        out["fock.operator_mb"] = self.maxima["fock.operator_mb"]
        out["fock.interior_unitarity_max"] = self.maxima["fock.interior_unitarity_max"]
        return out
