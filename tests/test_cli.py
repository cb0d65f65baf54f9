"""Tests for the scenario-runner CLI."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvsim import cipd, cli, cubicphase, declare, densecoding, fock

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = sorted(SCENARIO_DIR.glob("*.json"))


def scenario_file(tmp_path, name="scenario.json", **overrides):
    data = {
        "kind": "cipd-histogram",
        "seed": 5,
        "parameters": {"n_pulses": 200},
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=1))
    return path


def test_list_prints_all_kinds(capsys):
    assert cli.main(["list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    kinds = {line.split(":")[0] for line in lines}
    assert kinds == {"dense-coding-spectrum", "dense-coding-phase-sweep",
                     "cubic-phase-run", "cipd-histogram", "cipd-resolution"}


def test_describe_lists_parameters(capsys):
    assert cli.main(["describe", "cipd-histogram"]) == 0
    out = capsys.readouterr().out
    for name in ("eta", "gain", "dark_rate", "readout_noise"):
        assert name in out


@pytest.mark.parametrize("kind", sorted(cli._KINDS))
def test_every_config_field_is_a_parameter(kind):
    # a field the schema left out would be a setting no scenario can reach
    spec = cli._KINDS[kind]
    assert [f.name for f in dataclasses.fields(spec.config)] == list(spec.schema)


@pytest.mark.parametrize("kind", sorted(cli._KINDS))
def test_schema_agrees_with_config(kind):
    # `cvsim describe` prints the schema; a run builds the config class
    spec = cli._KINDS[kind]
    defaults = {name: default for name, (_, default, _) in spec.schema.items()}
    assert spec.config(**defaults) == spec.config()


# each kind at the fuzz test's small sizes, and another valid value for every parameter
SMALL = {"dense-coding-spectrum": {"n_bins": 9}, "dense-coding-phase-sweep": {"n_phases": 8},
         "cubic-phase-run": {}, "cipd-histogram": {"n_pulses": 200}, "cipd-resolution": {}}
MOVED = {
    "n_bins": 11, "f_lo_hz": 0.7e6, "f_hi_hz": 1.7e6, "squeezing_r": 0.5, "am_frequency_hz": 1.4e6,
    "pm_frequency_hz": 1.0e6, "amplitude": 1.0, "loss_eta": 0.9, "n_samples": 100,
    "mirror_transmittance": 0.5, "n_phases": 6, "displacement_alpha": [0.8, 0.2],
    "correction_s": 0.1, "coupling_g": 0.8, "gamma_target": 0.1, "dim": 20, "qnd_pad": 0,
    "post_select_n": 1, "homodyne_which": "target", "grid_points": 1024, "eta": 0.8, "gain": 12.0,
    "dark_rate": 3.0, "readout_noise": 5.0, "sample_rate": 2.0, "gain_dispersion": 0.1,
    "source_mean": 3.0, "source_pmf": [0.5, 0.5], "n_pulses": 150, "bin_width": 2.0,
    "target_snr": 2.0, "drift_duration_s": 3.0, "drift_budget_e": 0.5,
}


@pytest.mark.parametrize("kind, name", [(kind, name) for kind in sorted(cli._KINDS)
                                        for name in cli._KINDS[kind].schema])
def test_every_parameter_reaches_an_artifact(kind, name, tmp_path):
    # a scenario parameter whose value no artifact reads is a dead knob.  gate_run.json
    # echoes the config, so the gate's results are compared without that echo; only
    # gamma_target, which no gate figure reads yet, reaches an artifact through the echo alone
    echo_only = name == "gamma_target"

    def artifacts(label, params):
        path = scenario_file(tmp_path, f"{label}.json", kind=kind, parameters=params)
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path / label)]) == 0
        files = {p.name: p.read_bytes() for p in (tmp_path / label).iterdir()
                 if p.name != "manifest.json"}
        if "gate_run.json" in files and not echo_only:
            doc = json.loads(files["gate_run.json"])
            del doc["config"]
            files["gate_run.json"] = json.dumps(doc).encode()
        return files

    base = artifacts("base", SMALL[kind])
    assert artifacts("moved", dict(SMALL[kind], **{name: MOVED[name]})) != base


# sha256 of the stdout of `cvsim list` and of each `cvsim describe <kind>`
LISTING_SHA256 = {
    "list": "99535684a95719ef74c86df23b7dc90fe39d339df2af696a61531e4dbf3622f4",
    "describe cipd-histogram": "ee11819715480f44175bfaa5222ed29ca43a0eefa3696ad6848b6c582e2bdda2",
    "describe cipd-resolution": "2ff9e0d5829610b7ca92ab5569dc3598a3a5c1fc7cf23d5a454f2dbf87ee2de0",
    "describe cubic-phase-run": "f65747375b6cf8cb8f1c9c355971352c98bc6212543d3cabfede6397d0be6a47",
    "describe dense-coding-phase-sweep":
        "4132324faeb1b346f692ae1f83017529c61f8311c62b1ba00f22fa52c505d06f",
    "describe dense-coding-spectrum":
        "c9d4797fa96ddaf6e3c9ce4772934c9edf5bddbd5c60e6b64fc1f6db6843ae3e",
}


@pytest.mark.parametrize("command", sorted(LISTING_SHA256))
def test_list_and_describe_output_is_pinned(command, capsys):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LISTING_SHA256[command], out


def _declared(predicate):
    """(kind, field) for every field of every kind's config that meets predicate."""
    return [(kind, f) for kind in sorted(cli._KINDS)
            for f in dataclasses.fields(cli._KINDS[kind].config) if predicate(f)]


def _refused(kind, name, value):
    """The refusal of a config with `name` set to `value`, as the CLI reports it,
    and the prefix it must start with."""
    with pytest.raises(ValueError) as info:
        cli._KINDS[kind].config(**{name: value})
    return cli._refusal(kind, info.value) or str(info.value), f"parameters.{name}: "


@pytest.mark.parametrize("kind, f", _declared(lambda f: "interval" in f.metadata),
                         ids=lambda v: getattr(v, "name", v))
def test_every_declared_interval_holds_at_its_ends(kind, f):
    left, lo, hi, right = f.metadata["interval"]
    # the next int, or the next float toward d (nextafter(x, x + d) stays put past 2**53)
    step = (lambda x, d: x + d) if f.type == "int" else (
        lambda x, d: math.nextafter(x, math.copysign(math.inf, d)))
    ends = [(end, closed, outward) for end, closed, outward in (
        (lo, left == "[", -1), (hi, right == "]", +1)) if math.isfinite(end)]
    assert ends
    for end, closed, outward in ends:
        inside, outside = (end, step(end, outward)) if closed else (step(end, -outward), end)
        cli._KINDS[kind].config(**{f.name: inside})
        message, prefix = _refused(kind, f.name, outside)
        assert message.startswith(prefix + "must be in "), message


@pytest.mark.parametrize("kind, f", _declared(lambda f: f.type in ("float", "complex")),
                         ids=lambda v: getattr(v, "name", v))
def test_every_float_field_refuses_non_finite_values(kind, f):
    for value in (math.nan, math.inf, -math.inf):
        value = complex(0.0, value) if f.type == "complex" else value
        message, prefix = _refused(kind, f.name, value)
        assert message.startswith(prefix + "must be finite"), message


@pytest.mark.parametrize("kind, f", _declared(lambda f: True), ids=lambda v: getattr(v, "name", v))
def test_every_field_refuses_other_types(kind, f):
    wrong = [True, {"x": 1}] + ["text"] * (f.type != "str") + [16.0] * (f.type == "int")
    for value in wrong + [None] * (f.default is not None):
        message, prefix = _refused(kind, f.name, value)
        assert message.startswith(prefix + "expected "), (value, message)


def test_configs_store_values_as_their_annotations_hold_them():
    gate = cubicphase.CubicGateConfig(dim=np.int64(16), squeezing_r=1)
    assert type(gate.dim) is int and type(gate.squeezing_r) is float
    assert gate.digest() == cubicphase.CubicGateConfig(squeezing_r=1.0).digest()
    assert cubicphase.CubicGateConfig(displacement_alpha=[0.5, 1.0]).displacement_alpha == 0.5 + 1j


def test_schema_refuses_an_annotation_it_has_no_type_for():
    @dataclasses.dataclass
    class Listed:
        values: "list" = declare.param(None, "a list field")

    with pytest.raises(KeyError, match="list"):
        declare.schema(Listed)


def test_describe_unknown_kind(capsys):
    assert cli.main(["describe", "not-a-kind"]) == 1
    err = capsys.readouterr().err
    assert "cipd-histogram" in err and "dense-coding-spectrum" in err


def test_usage_errors_exit_one(capsys):
    assert cli.main(["run"]) == 1  # missing positional
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # main builds its parser once per process; each call in a mixed sequence
    # returns the exit code and output that a freshly built parser gives
    spectrum = str(SCENARIO_DIR / "dense_coding_spectrum.json")
    calls = [["run", spectrum, "--output-dir", "{}/first"], ["describe", "cipd-histogram"],
             ["list"], ["frobnicate"], ["run", spectrum, "--output-dir", "{}/second"]]

    def run_all(base, fresh):
        results = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            code = cli.main([arg.format(base) for arg in argv])
            out, err = capsys.readouterr()
            results.append((code, out.replace(str(base), "<base>"), err.replace(str(base), "<base>")))
        return results

    expected = run_all(tmp_path / "fresh", fresh=True)
    cli._parser.cache_clear()
    assert run_all(tmp_path / "reused", fresh=False) == expected
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in expected] == [0, 0, 0, 1, 0]
    for name in ("first", "second"):
        assert ((tmp_path / "reused" / name / "manifest.json").read_bytes()
                == (tmp_path / "fresh" / name / "manifest.json").read_bytes())


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_bundled_scenarios_run(path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"], "no artifacts listed"
    # the manifest lists every other file in the output directory
    assert ([entry["name"] for entry in manifest["artifacts"]]
            == sorted(p.name for p in out.iterdir() if p.name != "manifest.json"))
    for entry in manifest["artifacts"]:
        blob = (out / entry["name"]).read_bytes()
        assert len(blob) == entry["bytes"]
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]


@pytest.mark.parametrize("name", ["cipd_histogram.json", "cubic_phase_run.json"])
def test_rerun_is_byte_identical(name, tmp_path):
    src = SCENARIO_DIR / name
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(src), "--output-dir", str(a)]) == 0
    assert cli.main(["run", str(src), "--output-dir", str(b)]) == 0
    manifest_a = (a / "manifest.json").read_bytes()
    manifest_b = (b / "manifest.json").read_bytes()
    assert manifest_a == manifest_b
    for entry in json.loads(manifest_a)["artifacts"]:
        assert (a / entry["name"]).read_bytes() == (b / entry["name"]).read_bytes()


# manifest.json sha256 of two detector runs, as the per-value repr writer made
# them (the manifest hashes every artifact, so these pin records.csv's bytes),
# and of the other non-gate bundled scenarios; the gate is pinned by the frozen
# reference runs in test_cubicphase.py
FROZEN_MANIFESTS = {
    "bundled": (SCENARIO_DIR / "cipd_histogram.json",
                "0aa7d5a5405ccba941cb073cbb1966f93b04ec2ec0a2071ab7cbbd2b8ed8f979"),
    "1e5-pulses": ({"kind": "cipd-histogram", "seed": 12345, "parameters": {
        "n_pulses": 100000, "source_mean": 2.5, "gain_dispersion": 0.1}},
                   "ba8c1dee122dd7c0a00bd56a9834b8b9f963a416c36cb155d2860bed225b8840"),
    "cipd-resolution": (SCENARIO_DIR / "cipd_resolution.json",
                        "b71da253ebcb8bcd9c6c9a8f5e2684379d8b2ecae56a2c1f1b5e606442dd2224"),
    "dense-coding-phase-sweep": (
        SCENARIO_DIR / "dense_coding_phase_sweep.json",
        "037942477093c7c4dbc2c2f941d3a781e00118d2236ea14d03e273a93b447d12"),
    "dense-coding-spectrum": (
        SCENARIO_DIR / "dense_coding_spectrum.json",
        "a448f2d9f2f3d32359c1479b16b031c492c39c542298a6a832b6526221fea6ac"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_MANIFESTS))
def test_detector_manifest_is_frozen(name, tmp_path):
    scenario, digest = FROZEN_MANIFESTS[name]
    if isinstance(scenario, dict):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        scenario = path
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario), "--output-dir", str(out)]) == 0
    assert hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest() == digest


def test_different_seed_changes_artifacts(tmp_path):
    s1 = scenario_file(tmp_path, "s1.json", seed=5)
    s2 = scenario_file(tmp_path, "s2.json", seed=6)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(s1), "--output-dir", str(a)]) == 0
    assert cli.main(["run", str(s2), "--output-dir", str(b)]) == 0
    assert (a / "records.csv").read_bytes() != (b / "records.csv").read_bytes()


def test_malformed_json_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "cipd-histogram",\n  "seed": }\n')
    out = tmp_path / "out"
    assert cli.main(["run", str(bad), "--output-dir", str(out)]) == 1
    assert "line 2" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_integer_literal_exits_one(tmp_path, capsys):
    # json.loads refuses an integer literal of over 4300 digits with a plain
    # ValueError, not a JSONDecodeError
    path = tmp_path / "big.json"
    path.write_text('{"kind": "cipd-histogram", "seed": 5, "parameters": {"n_pulses": 1'
                    + "0" * 5000 + "}}")
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not out.exists()


@pytest.mark.parametrize("mutate, needle", [
    (dict(kind="unknown-kind"), "kind"),
    (dict(seed=None), "seed"),
    (dict(seed="5"), "seed"),
    (dict(seed=True), "seed"),
    (dict(parameters={"n_pulses": 200, "typo_field": 1}), "typo_field"),
    (dict(parameters={"eta": "high"}), "parameters.eta"),
    (dict(extra_top=1), "extra_top"),
    (dict(kind="dense-coding-spectrum", parameters={"n_bins": 0}), "n_bins"),
    (dict(kind="dense-coding-spectrum", parameters={"n_bins": -2}), "n_bins"),
    (dict(kind="dense-coding-spectrum", parameters={"n_bins": 1}), "n_bins"),
    (dict(kind="dense-coding-phase-sweep", parameters={"n_phases": 0}), "parameters.n_phases"),
    (dict(kind="dense-coding-phase-sweep", parameters={"n_phases": -1}), "parameters.n_phases"),
    (dict(kind="dense-coding-spectrum", parameters={"n_samples": -1}), "parameters.n_samples"),
    (dict(kind="dense-coding-spectrum", parameters={"n_samples": 1}), "parameters.n_samples"),
    (dict(kind="dense-coding-spectrum", parameters={"n_samples": 10**400}), "parameters.n_samples"),
    (dict(kind="dense-coding-spectrum", parameters={"f_lo_hz": 0.0}), "parameters.f_lo_hz"),
    (dict(kind="dense-coding-spectrum", parameters={"f_lo_hz": 2e6, "f_hi_hz": 1e6}),
     "parameters.f_hi_hz"),
    (dict(kind="dense-coding-spectrum", parameters={"f_lo_hz": 1e6, "f_hi_hz": 1e6}),
     "parameters.f_hi_hz"),
    (dict(kind="dense-coding-spectrum", parameters={"f_lo_hz": -1e308, "f_hi_hz": 1e308}),
     "parameters.f_lo_hz"),
    (dict(kind="dense-coding-spectrum",
          parameters={"am_frequency_hz": 1.2e6, "pm_frequency_hz": 1.2e6}),
     "parameters.am_frequency_hz, parameters.pm_frequency_hz"),
    (dict(kind="dense-coding-spectrum", parameters={"n_bins": 3}),
     "parameters.am_frequency_hz, parameters.pm_frequency_hz"),
    (dict(kind="cubic-phase-run", parameters={"squeezing_r": 20.0}), "squeezing_r"),
    (dict(kind="dense-coding-spectrum", parameters={"squeezing_r": 20.0}),
     "parameters.squeezing_r"),
    (dict(kind="dense-coding-phase-sweep", parameters={"squeezing_r": 20.0}),
     "parameters.squeezing_r"),
    (dict(kind="dense-coding-spectrum", parameters={"mirror_transmittance": -0.1}),
     "parameters.mirror_transmittance"),
    (dict(kind="dense-coding-spectrum", parameters={"mirror_transmittance": 1.0}),
     "parameters.mirror_transmittance"),
    (dict(kind="cipd-resolution", parameters={"drift_duration_s": -1.0}),
     "parameters.drift_duration_s"),
    (dict(parameters={"source_mean": -1.0}), "parameters.source_mean"),
    (dict(parameters={"source_pmf": [0.5, 0.6]}), "parameters.source_pmf"),
    (dict(parameters={"eta": 2.0}), "parameters.eta"),
    (dict(kind="cubic-phase-run", parameters={"dim": 4}), "parameters.dim"),
    # a count of 1 that the undisplaced vacuum resource cannot produce
    (dict(kind="cubic-phase-run", parameters={
        "squeezing_r": 0.0, "displacement_alpha": [0.0, 0.0], "post_select_n": 1}),
     "parameters.post_select_n"),
    # one double past the one squeezing cap, gaussian.MAX_SQUEEZING_R (10)
    (dict(kind="dense-coding-spectrum", parameters={"squeezing_r": math.nextafter(10.0, 11.0)}),
     "parameters.squeezing_r"),
    (dict(kind="dense-coding-spectrum", parameters={"squeezing_r": math.nextafter(-10.0, -11.0)}),
     "parameters.squeezing_r"),
    # detector values past what numpy can draw or a double can hold
    (dict(parameters={"source_mean": 1e300}), "parameters.source_mean"),
    (dict(parameters={"dark_rate": 1e300}), "parameters.dark_rate, parameters.sample_rate"),
    (dict(parameters={"sample_rate": 1e-320}), "parameters.dark_rate, parameters.sample_rate"),
    # the integration window is one sample period; no parameter sets it apart
    (dict(parameters={"integration_window": 1e300}),
     "unknown for cipd-histogram: integration_window"),
    (dict(parameters={"gain_dispersion": 1e300}), "parameters.gain_dispersion"),
    (dict(parameters={"bin_width": 1e300}), "parameters.bin_width"),
    (dict(kind="cipd-resolution", parameters={"target_snr": 1e-320}),
     "parameters.gain, parameters.target_snr"),
    # a charge near 1e300 e, whose 1 e bin edges are one double; and a peak
    # kernel of about 1e299 bins over noise-only charges
    (dict(parameters={"readout_noise": 1e300, "n_pulses": 1}), "parameters.bin_width"),
    (dict(parameters={"gain": 1e300, "eta": 0.0, "dark_rate": 0.0}),
     "parameters.gain, parameters.bin_width"),
    # charges and a displacement past the float range: no gain that overflows a
    # charge fits the peak kernel, which is refused before any draw
    (dict(parameters={"gain": 1e308}), "parameters.gain, parameters.bin_width"),
    (dict(parameters={"readout_noise": 1e308}), "parameters.readout_noise"),
    (dict(parameters={"gain": 1e300, "source_mean": 1e10, "n_pulses": 10}),
     "parameters.gain, parameters.bin_width"),
    (dict(kind="cubic-phase-run", parameters={"displacement_alpha": [1e300, 0.0]}),
     "parameters.displacement_alpha"),
    # the sweep has the spectrum's cap
    (dict(kind="dense-coding-phase-sweep", parameters={"squeezing_r": math.nextafter(10.0, 11.0)}),
     "parameters.squeezing_r"),
    # finite parts whose modulus is past the float range
    (dict(kind="cubic-phase-run", parameters={"displacement_alpha": [1.3e308, 1.3e308]}),
     "parameters.displacement_alpha"),
    # past the float range the squeeze's eigensolver fails, and the coupling's
    # phase g xi pi overflows from g about 1e306
    (dict(kind="cubic-phase-run", parameters={"correction_s": -1.7976931348623157e308}),
     "parameters.correction_s"),
    (dict(kind="cubic-phase-run", parameters={"coupling_g": 1e307}), "parameters.coupling_g"),
    # a tone whose decoded power overflows, and a band one double wide
    (dict(kind="dense-coding-spectrum", parameters={"amplitude": 1e155}), "parameters.amplitude"),
    (dict(kind="dense-coding-spectrum", parameters={
        "f_lo_hz": 1e6, "f_hi_hz": math.nextafter(1e6, math.inf),
        "am_frequency_hz": 2e6, "pm_frequency_hz": 1e6}),
     "parameters.f_lo_hz, parameters.f_hi_hz"),
    # a negative seed, which numpy's generators refuse unnamed, is refused for every kind
    (dict(seed=-1), "seed: "),
    (dict(kind="cipd-resolution", seed=-1, parameters={}), "seed: "),
    (dict(kind="cubic-phase-run", seed=-1, parameters={}), "seed: "),
    (dict(kind="dense-coding-phase-sweep", seed=-1, parameters={}), "seed: "),
    (dict(kind="dense-coding-spectrum", seed=-1, parameters={}), "seed: "),
    (dict(kind="dense-coding-spectrum", seed=-1, parameters={"n_samples": 100}), "seed: "),
    (dict(output_dir=5), "output_dir: "),
    (dict(parameters=[1]), "parameters: "),
    # a peak kernel of radius 27,000 over about 60,000 bins of dark-electron
    # charge: past cipd.MAX_SMOOTHING_WORK, refused before the smoothing
    (dict(parameters={"gain": 3e4, "bin_width": 1, "source_mean": 40, "eta": 0,
                      "readout_noise": 0.1, "n_pulses": 40000}),
     "parameters.gain, parameters.bin_width"),
])
def test_config_errors_name_the_field(tmp_path, capsys, mutate, needle):
    path = scenario_file(tmp_path, **mutate)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
    assert needle in capsys.readouterr().err
    assert not out.exists(), "partial artifacts after config error"


def test_a_peak_kernel_just_under_the_smoothing_bound_runs(tmp_path):
    # charges at 0 and 2 gain: a kernel of radius 21,150 over about 47,000 bins,
    # just under cipd.MAX_SMOOTHING_WORK
    gain = 23500.0
    path = scenario_file(tmp_path, parameters={
        "gain": gain, "source_pmf": [0.5, 0.0, 0.5], "eta": 1.0, "dark_rate": 0.0,
        "readout_noise": 0.1, "n_pulses": 200})
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 0
    bins = len(json.loads((out / "histogram_charge.json").read_text())["counts"])
    work = int(4.0 * cipd.PEAK_SMOOTHING_GAIN_FRACTION * gain + 0.5) * bins
    assert 0.99 * cipd.MAX_SMOOTHING_WORK < work <= cipd.MAX_SMOOTHING_WORK


def test_an_over_wide_peak_kernel_is_refused_before_any_pulse_is_drawn(
        tmp_path, capsys, monkeypatch):
    # the dark-electron case above at 2e6 pulses: counts 0 to 3 each expect 20
    # pulses or more, so the bins' floor is 89,999 under a kernel of radius 27,000
    calls = []
    monkeypatch.setattr(cli.cipd, "simulate_pulses", lambda *args, **kw: calls.append(args))
    path = scenario_file(tmp_path, parameters={
        "gain": 3e4, "bin_width": 1, "source_mean": 40, "eta": 0, "readout_noise": 0.1,
        "n_pulses": 2_000_000})
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: parameters.gain, parameters.bin_width: a peak kernel of radius 27000 "
        f"over 89999 bins is more smoothing than MAX_SMOOTHING_WORK = 1e+09\n")
    assert calls == [] and not out.exists()


def test_output_dir_that_appears_during_the_run_is_left_alone(tmp_path, capsys, monkeypatch):
    # another process creates output_dir while the pulses are written: the run
    # refuses to replace it and removes its own staging directory
    out = tmp_path / "out"
    write = cli.cipd.write_records_csv

    def write_and_collide(records, target):
        out.mkdir()
        (out / "keep.txt").write_text("precious")
        write(records, target)

    monkeypatch.setattr(cli.cipd, "write_records_csv", write_and_collide)
    path = scenario_file(tmp_path)
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: output directory {out} already exists\n"
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    assert (out / "keep.txt").read_text() == "precious"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scenario.json"]


def test_a_scenario_that_is_not_an_object_is_refused(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text("[1]")
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: scenario must be a JSON object\n"
    assert not out.exists()


def test_nul_byte_in_output_dir_exits_one(tmp_path, capsys):
    # mkdir refuses the path with a ValueError, not an OSError
    path = scenario_file(tmp_path, output_dir=str(tmp_path / "x\0y"))
    assert cli.main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot create output directory ")
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


@pytest.mark.parametrize("r", [9.0, 10.0, -10.0])
@pytest.mark.parametrize("kind", ["dense-coding-spectrum", "dense-coding-phase-sweep"])
def test_dense_coding_runs_up_to_the_squeezing_cap(tmp_path, kind, r):
    # the composed channel keeps its digits at every |r| <= gaussian.MAX_SQUEEZING_R
    path = scenario_file(tmp_path, kind=kind, parameters={"squeezing_r": r})
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 0
    for entry in json.loads((out / "manifest.json").read_text())["artifacts"]:
        if entry["name"].endswith(".csv"):
            rows = (out / entry["name"]).read_text().splitlines()[1:]
            assert rows and all(math.isfinite(float(v)) for row in rows for v in row.split(","))


@pytest.mark.parametrize("kind, params, needle", [
    ("dense-coding-spectrum", {"amplitude": float("nan")}, "parameters.amplitude"),
    ("dense-coding-spectrum", {"squeezing_r": float("inf")}, "parameters.squeezing_r"),
    ("cubic-phase-run", {"displacement_alpha": [0.5, float("-inf")]},
     "parameters.displacement_alpha"),
    ("cipd-histogram", {"sample_rate": float("nan")}, "parameters.sample_rate"),
    ("cipd-histogram", {"source_pmf": [0.5, float("nan"), 0.5]}, "parameters.source_pmf"),
    ("cipd-histogram", {"gain": 10 ** 400}, "parameters.gain"),
])
def test_non_finite_parameters_rejected(tmp_path, capsys, kind, params, needle):
    # json.dumps writes NaN / Infinity literals, which json.loads accepts
    path = scenario_file(tmp_path, kind=kind, parameters=params)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert needle in err and "finite" in err
    assert not out.exists(), "artifacts written for a non-finite parameter"


@pytest.mark.parametrize("params", [{"gain": 1e12}, {"bin_width": 1e-9}])
def test_histogram_bin_cap_names_bin_width(tmp_path, capsys, params):
    # about 1e13 and 1e11 bins: refused by the cap, not left to the allocator
    path = scenario_file(tmp_path, parameters=dict(params, n_pulses=200))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
    assert "bin_width" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["cipd-histogram", "cipd-resolution"])
def test_overflowing_resolution_is_infinite(tmp_path, capsys, kind):
    # gain / 1e-320 overflows to inf: reported as the zero-noise case; exit 0
    # means every artifact was finite, as the writers refuse NaN and Infinity
    path = scenario_file(tmp_path, kind=kind, parameters={"readout_noise": 1e-320})
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 0
    report = json.loads((out / ("report.json" if kind == "cipd-histogram"
                                else "resolution.json")).read_text())
    assert report["resolution"] is None
    assert report.get("resolution_infinite", True) is True


@pytest.mark.parametrize("kind, params, nulls", [
    # readout_noise**2 overflows: the analytic variance is past the float range
    ("cipd-histogram", {"readout_noise": 1e160, "bin_width": 1e150, "n_pulses": 1},
     ["analytic_var_e2"]),
    # so is the charges' own variance once there are two of them
    ("cipd-histogram", {"readout_noise": 1e155, "bin_width": 1e150, "n_pulses": 10},
     ["analytic_var_e2", "var_charge_e2"]),
    # gain**2 overflows over noise-only charges
    ("cipd-histogram",
     {"gain": 1e155, "bin_width": 1e150, "eta": 0.0, "dark_rate": 0.0, "n_pulses": 10},
     ["analytic_var_e2"]),
    # dark_rate x drift_duration_s overflows
    ("cipd-resolution", {"dark_rate": 1e308, "drift_duration_s": 10.0, "drift_budget_e": 1.0},
     ["dark_drift.expected_electrons"]),
])
def test_report_figures_past_the_float_range_are_null(tmp_path, kind, params, nulls):
    # exit 0 means every artifact was finite, as the writers refuse NaN and Infinity
    path = scenario_file(tmp_path, kind=kind, parameters=params)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 0
    report = json.loads((out / ("report.json" if kind == "cipd-histogram"
                                else "resolution.json")).read_text())
    figures = dict(report, **{f"dark_drift.{k}": v for k, v in report.get("dark_drift", {}).items()})
    assert sorted(key for key, value in figures.items() if value is None) == nulls


@pytest.mark.parametrize("params, expected, exceeded", [
    ({"dark_rate": 1.0, "drift_duration_s": 2.0, "drift_budget_e": 1.0}, 2.0, True),
    ({"dark_rate": 1.0, "drift_duration_s": 0.5, "drift_budget_e": 1.0}, 0.5, False),
    ({"dark_rate": 3.0, "drift_duration_s": 0.1}, 3.0 * 0.1, None),
    ({"dark_rate": 0.0, "drift_duration_s": 5.0}, 0.0, None),
    # an overflowing drift is null, and still over any budget
    ({"dark_rate": 1e308, "drift_duration_s": 10.0, "drift_budget_e": 1.0}, None, True),
])
def test_dark_drift_is_rate_times_duration(tmp_path, params, expected, exceeded):
    path = scenario_file(tmp_path, kind="cipd-resolution", parameters=params)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 0
    drift = json.loads((out / "resolution.json").read_text())["dark_drift"]
    assert drift == {"duration_s": params["drift_duration_s"], "expected_electrons": expected,
                     "budget_electrons": params.get("drift_budget_e"), "exceeded": exceeded}


def test_non_finite_result_exits_one(tmp_path, capsys, monkeypatch):
    # a tone power that overflows to inf; the amplitude cap keeps every
    # scenario's powers finite, so the overflow is put into the result here
    real = densecoding.run_spectrum

    def overflowing(*args, **kwargs):
        spectra = real(*args, **kwargs)
        spectra["bell"].x_power_db[0] = math.inf
        return spectra

    monkeypatch.setattr(densecoding, "run_spectrum", overflowing)
    path = scenario_file(tmp_path, kind="dense-coding-spectrum", parameters={"n_bins": 5})
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists(), "artifacts written for a non-finite result"


@pytest.mark.parametrize("params, needle", [
    ({"dim": 200}, "dim + qnd_pad"),  # refused before any dim^3 work
    ({"qnd_pad": -3}, "qnd_pad"),
    ({"grid_points": 1}, "grid_points"),
])
def test_gate_sizes_checked_up_front(tmp_path, capsys, params, needle):
    path = scenario_file(tmp_path, kind="cubic-phase-run", parameters=params)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_coarse_homodyne_grid_is_a_truncation(tmp_path, capsys):
    # 16 points over |x| <= 8.7: spacing 1.15, while phi_15 needs < 0.56
    path = scenario_file(tmp_path, kind="cubic-phase-run",
                         parameters={"dim": 16, "grid_points": 16})
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out), "--strict"]) == 2
    assert "grid of 16 points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("params, needle", [
    ({"dim": 16, "correction_s": 5.0}, "squeeze s=5.0"),
    ({"grid_points": 3}, "grid of 3 points"),
])
def test_strict_escalates_every_run_in_a_process(tmp_path, capsys, params, needle):
    # the truncation checks run outside fock's caches, so a second run in the
    # same process warns and exits 2 like the first
    path = scenario_file(tmp_path, kind="cubic-phase-run", parameters=params)
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli.main(["run", str(path), "--output-dir", str(out), "--strict"]) == 2
        assert needle in capsys.readouterr().err
        assert not out.exists()


def _clear_fock_caches():
    for cached in (fock._cached_hermite_table, fock._quadrature_eigh, fock._squeeze_unitary):
        cached.cache_clear()


def test_gate_runs_match_cold_caches(tmp_path):
    # each gate_run.json of a sequence run in one process is byte-identical to
    # the same scenario run with every fock cache emptied first
    sequence = [{"dim": 16}, {"dim": 32}, {"dim": 16}, {"dim": 16, "grid_points": 2048},
                {"dim": 16, "grid_points": 1024}, {"dim": 16, "homodyne_which": "target"},
                {"dim": 16, "qnd_pad": 0}, {"dim": 16, "correction_s": 0.0},
                {"dim": 16, "correction_s": -0.0}]

    def gate_json(name, params):
        path = scenario_file(tmp_path, f"{name}.json", kind="cubic-phase-run", seed=9,
                             parameters=params)
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path / name)]) == 0
        return (tmp_path / name / "gate_run.json").read_bytes()

    warm = [gate_json(f"warm{i}", params) for i, params in enumerate(sequence)]
    for i, params in enumerate(sequence):
        _clear_fock_caches()
        assert gate_json(f"cold{i}", params) == warm[i], params


def test_interrupted_run_leaves_nothing(tmp_path, monkeypatch):
    # the interrupt falls between the two files of write_spectra: spectra.csv
    # is written, so a run writing into output_dir directly would leave it
    # behind without a manifest
    def interrupt(path, _payload):
        assert path.with_suffix(".csv").is_file()
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.densecoding.artifacts, "write_json", interrupt)
    path = scenario_file(tmp_path, kind="dense-coding-spectrum", parameters={"n_bins": 5})
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["run", str(path), "--output-dir", str(out)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


def test_missing_scenario_file(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_undecodable_scenario_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "cipd-histogram", "seed": 5, "output_dir": "\xe9"}')
    assert cli.main(["run", str(path)]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_output_dir_collision_rejected(tmp_path, capsys):
    path = scenario_file(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("precious")
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
    assert "already exists" in capsys.readouterr().err
    assert (out / "keep.txt").read_text() == "precious"


def test_output_dir_not_creatable(tmp_path, capsys):
    path = scenario_file(tmp_path)
    assert cli.main(["run", str(path), "--output-dir", str(path / "out")]) == 1
    assert "cannot create output directory" in capsys.readouterr().err


def test_output_dir_required_somewhere(tmp_path, capsys):
    path = scenario_file(tmp_path)  # no output_dir field
    assert cli.main(["run", str(path)]) == 1
    assert "output_dir" in capsys.readouterr().err


def test_output_dir_from_scenario_field(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = scenario_file(tmp_path, output_dir="nested/run1")
    assert cli.main(["run", str(path)]) == 0
    assert (tmp_path / "nested" / "run1" / "manifest.json").exists()


def _truncating_scenario(tmp_path):
    # a displacement far too large for the cutoff provokes the truncation
    # warning inside the gate run
    data = {
        "kind": "cubic-phase-run",
        "seed": 3,
        "parameters": {"dim": 8, "displacement_alpha": [2.5, 0.0],
                       "post_select_n": 1},
    }
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(data))
    return path


def test_truncation_logged_but_ok_by_default(tmp_path, capsys):
    path = _truncating_scenario(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 0
    assert "warning:" in capsys.readouterr().err
    assert (out / "manifest.json").exists()


def test_strict_escalates_truncation(tmp_path, capsys):
    path = _truncating_scenario(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out), "--strict"]) == 2
    assert "strict" in capsys.readouterr().err
    assert not out.exists(), "strict failure must not leave artifacts"


def _python(*args):
    """Run a child Python that imports the same cvsim as this process,
    installed or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_console_entry_point():
    proc = _python("-m", "cvsim.cli", "list")
    assert proc.returncode == 0
    assert "cubic-phase-run" in proc.stdout
    assert proc.stderr == ""  # no runpy warning about cvsim.cli already imported


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # importing the CLI pulls in none of scipy's heavy subpackages
    proc = _python("-c", "import sys, cvsim.cli; print(sorted(set(sys.modules) & "
                   "{'scipy.signal', 'scipy.ndimage', 'scipy.integrate'}))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name, modules", [
    # the gate's diagnostics integrate on fock's trapezoid rule, not scipy's
    ("cubic_phase_run.json", ["scipy.integrate"]),
    # the detector smooths and picks peaks in numpy, not scipy
    ("cipd_histogram.json", ["scipy.ndimage", "scipy.signal"]),
], ids=["cubic_phase_run", "cipd_histogram"])
def test_run_leaves_scipy_modules_unloaded(name, modules, tmp_path):
    run = ["run", str(SCENARIO_DIR / name), "--output-dir", str(tmp_path / "out")]
    proc = _python("-c", f"import sys, cvsim.cli; code = cvsim.cli.main({run!r}); "
                   f"print(code, sorted(set(sys.modules) & {set(modules)!r}))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_bundled_scenarios_run_without_scipy(tmp_path):
    # scipy is a test-side oracle only: with every `import scipy...` failing,
    # each bundled scenario still runs clean under --strict
    runs = [["run", str(path), "--output-dir", str(tmp_path / path.stem), "--strict"]
            for path in BUNDLED]
    proc = _python("-c", "import sys; sys.modules['scipy'] = None; import cvsim.cli; "
                   f"print([cvsim.cli.main(run) for run in {runs!r}])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr([0] * 5)
