"""Scenario runner tying the simulation modules to data artifacts.

A scenario is a JSON file:

    {
      "kind": "<one of the kinds below>",
      "seed": 123,                  required, integer; no wall-clock default
      "output_dir": "out/run1",     required unless --output-dir is given
      "parameters": { ... }         optional, kind-specific, all have defaults
    }

Every run writes its artifacts plus a manifest.json with a sha256 per file;
identical scenario files produce byte-identical artifacts.  Exit codes:
0 success, 1 usage or config error, 2 numerical failure under --strict
(truncation warnings escalated).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np

from . import cipd, cubicphase, densecoding
from .artifacts import write_json
from .fock import TruncationWarning


class ScenarioError(Exception):
    """Configuration problem; message carries the offending field."""


# parameter schema: name -> (kind, default, help); kind in
# {int, float, str, pair, pmf, optional_int, optional_float}
_SCHEMAS = {
    "dense-coding-spectrum": {
        "n_bins": ("int", 33, "sideband bins across the analysis band"),
        "f_lo_hz": ("float", 0.8e6, "low edge of the band"),
        "f_hi_hz": ("float", 1.6e6, "high edge of the band"),
        "squeezing_r": ("float", densecoding.DEFAULT_R, "squeezing parameter of the EPR source"),
        "am_frequency_hz": ("float", densecoding.AM_FREQUENCY_HZ, "AM tone frequency"),
        "pm_frequency_hz": ("float", densecoding.PM_FREQUENCY_HZ, "PM tone frequency"),
        "amplitude": ("float", densecoding.DEFAULT_TONE_AMPLITUDE, "tone displacement amplitude"),
        "loss_eta": ("float", 1.0, "transmission of the encoded beam"),
        "n_samples": ("int", 0, "homodyne samples per bin; 0 = analytic"),
        "mirror_transmittance": ("float", 0.0, "encoding mirror transmittance; 0 = ideal displacement"),
    },
    "dense-coding-phase-sweep": {
        "squeezing_r": ("float", densecoding.DEFAULT_R, "squeezing parameter"),
        "n_phases": ("int", 64, "LO angles spread over [0, pi)"),
    },
    "cubic-phase-run": {
        "squeezing_r": ("float", 0.25, "resource squeezing"),
        "displacement_alpha": ("pair", [0.5, 1.0], "[re, im] displacement of the counted arm"),
        "correction_s": ("float", 0.15, "ancilla squeeze correction"),
        "coupling_g": ("float", 1.0, "QND coupling strength"),
        "gamma_target": ("float", 0.05, "cubic strength aimed for (diagnostic)"),
        "dim": ("int", 16, "per-mode Fock cutoff"),
        "qnd_pad": ("optional_int", None, "coupling workspace padding; default dim/2"),
        "post_select_n": ("optional_int", None, "forced photon count; default sampled"),
        "homodyne_which": ("str", "ancilla", "which coupled mode is homodyned"),
        "grid_points": ("int", 2048, "quadrature grid resolution"),
    },
    "cipd-histogram": {
        "eta": ("float", 0.6, "quantum efficiency"),
        "gain": ("float", 10.0, "mean avalanche gain (e/pe)"),
        "dark_rate": ("float", 1.0, "dark electrons per second"),
        "readout_noise": ("float", 7.0, "readout noise, electrons RMS"),
        "sample_rate": ("float", 20.0, "sampling rate, Hz"),
        "integration_window": ("optional_float", None, "integration window, s; default 1/sample_rate"),
        "gain_dispersion": ("float", 0.0, "fractional RMS gain noise; 0 = deterministic gain"),
        "source_mean": ("float", 2.0, "Poisson mean photons per pulse"),
        "source_pmf": ("pmf", None, "explicit photon-number pmf; overrides source_mean"),
        "n_pulses": ("int", 2000, "number of light pulses"),
        "bin_width": ("float", 1.0, "histogram bin width, electrons"),
    },
    "cipd-resolution": {
        "eta": ("float", 0.6, "quantum efficiency"),
        "gain": ("float", 10.0, "mean avalanche gain (e/pe)"),
        "dark_rate": ("float", 1.0, "dark electrons per second"),
        "readout_noise": ("float", 7.0, "readout noise, electrons RMS"),
        "sample_rate": ("float", 20.0, "sampling rate, Hz"),
        "target_snr": ("float", 4.0, "resolution target for required_noise"),
        "drift_duration_s": ("float", 1.0, "duration for the dark-drift estimate"),
        "drift_budget_e": ("optional_float", None, "dark-drift budget, electrons"),
    },
}

_KIND_SUMMARY = {
    "dense-coding-spectrum": "sideband noise spectra of the two-tone dense-coding experiment",
    "dense-coding-phase-sweep": "noise power vs LO phase for shot, EPR, and squeezed inputs",
    "cubic-phase-run": "one measurement-induced cubic-gate execution with diagnostics",
    "cipd-histogram": "pulse Monte Carlo, charge histograms, and peak report",
    "cipd-resolution": "detector resolution arithmetic and dark-drift report",
}


def _is_number(v):
    return not isinstance(v, bool) and isinstance(v, (int, float))


def _finite(name, value):
    """A number (or list of numbers) as float(s), rejecting NaN, +-Infinity and
    integers too large for a float -- json.loads yields all three."""
    values = value if isinstance(value, (list, tuple)) else [value]
    try:
        floats = [float(v) for v in values]
    except OverflowError:
        floats = [math.inf]
    if not all(math.isfinite(v) for v in floats):
        raise ScenarioError(f"parameters.{name}: expected finite numbers, got {value!r}")
    return floats if values is value else floats[0]


def _check_param(name, spec_kind, value):
    if spec_kind.startswith("optional_"):
        return None if value is None else _check_param(
            name, spec_kind.removeprefix("optional_"), value)
    if spec_kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"parameters.{name}: expected an integer")
        return value
    if spec_kind == "float":
        if not _is_number(value):
            raise ScenarioError(f"parameters.{name}: expected a number")
        return _finite(name, value)
    if spec_kind == "str":
        if not isinstance(value, str):
            raise ScenarioError(f"parameters.{name}: expected a string")
        return value
    if spec_kind == "pair":
        if (not isinstance(value, (list, tuple)) or len(value) != 2
                or not all(_is_number(v) for v in value)):
            raise ScenarioError(f"parameters.{name}: expected [re, im]")
        return _finite(name, value)
    if spec_kind == "pmf":
        if value is None:
            return None
        if not isinstance(value, list) or not value or not all(_is_number(v) for v in value):
            raise ScenarioError(f"parameters.{name}: expected a list of probabilities")
        return _finite(name, value)
    raise AssertionError(spec_kind)


def parse_scenario(data):
    """Validate a decoded scenario dict; returns (kind, seed, output_dir, params)."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(data) - {"kind", "seed", "output_dir", "parameters"}
    if unknown:
        raise ScenarioError(f"unknown top-level fields: {', '.join(sorted(unknown))}")
    kind = data.get("kind")
    if kind not in _SCHEMAS:
        raise ScenarioError(
            f"kind: expected one of {', '.join(sorted(_SCHEMAS))}; got {kind!r}")
    seed = data.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ScenarioError("seed: a literal integer is required")
    out = data.get("output_dir")
    if out is not None and not isinstance(out, str):
        raise ScenarioError("output_dir: expected a string path")
    raw = data.get("parameters", {})
    if not isinstance(raw, dict):
        raise ScenarioError("parameters: expected an object")
    schema = _SCHEMAS[kind]
    bad = set(raw) - set(schema)
    if bad:
        raise ScenarioError(
            f"parameters: unknown for {kind}: {', '.join(sorted(bad))}; "
            f"valid: {', '.join(schema)}")
    params = {}
    for name, (spec_kind, default, _) in schema.items():
        params[name] = (_check_param(name, spec_kind, raw[name])
                        if name in raw else default)
    return kind, seed, out, params


def _run_dense_coding_spectrum(params, seed, out):
    plan = densecoding.two_tone_plan(
        n_bins=params["n_bins"], f_lo=params["f_lo_hz"], f_hi=params["f_hi_hz"],
        r=params["squeezing_r"], am_frequency=params["am_frequency_hz"],
        pm_frequency=params["pm_frequency_hz"], amplitude=params["amplitude"],
        loss_eta=params["loss_eta"])
    traces = densecoding.run_spectrum(
        plan, n_samples=params["n_samples"], seed=seed,
        mirror_transmittance=params["mirror_transmittance"])
    densecoding.write_spectra_csv(traces, out / "spectra.csv")
    densecoding.write_spectra_json(traces, out / "spectra.json")
    return ["spectra.csv", "spectra.json"]


def _run_dense_coding_phase_sweep(params, seed, out):
    angles = np.linspace(0.0, np.pi, params["n_phases"], endpoint=False)
    traces = [densecoding.phase_sweep(kind, angles, r=params["squeezing_r"])
              for kind in ("shot", "epr", "squeezed")]
    densecoding.write_phase_sweep_csv(traces, out / "phase_sweep.csv")
    densecoding.write_phase_sweep_json(traces, out / "phase_sweep.json")
    return ["phase_sweep.csv", "phase_sweep.json"]


def _run_cubic_phase(params, seed, out):
    re, im = params["displacement_alpha"]
    config = cubicphase.CubicGateConfig(
        squeezing_r=params["squeezing_r"],
        displacement_alpha=complex(re, im),
        correction_s=params["correction_s"],
        coupling_g=params["coupling_g"],
        gamma_target=params["gamma_target"],
        dim=params["dim"],
        qnd_pad=params["qnd_pad"],
        post_select_n=params["post_select_n"],
        homodyne_which=params["homodyne_which"],
        grid_points=params["grid_points"],
    )
    record = cubicphase.run_gate(config, seed=seed)
    write_json(out / "gate_run.json", record.as_dict())
    return ["gate_run.json"]


def _cipd_config(params):
    return cipd.CipdConfig(
        eta=params["eta"], gain=params["gain"], dark_rate=params["dark_rate"],
        readout_noise=params["readout_noise"], sample_rate=params["sample_rate"],
        integration_window=params.get("integration_window"),
        gain_dispersion=params.get("gain_dispersion", 0.0))


def _run_cipd_histogram(params, seed, out):
    config = _cipd_config(params)
    source = params["source_pmf"] if params["source_pmf"] is not None else params["source_mean"]
    records = cipd.simulate_pulses(config, source, params["n_pulses"], rng=seed)
    hist = cipd.histogram(records, bin_width=params["bin_width"])
    referred = hist.scaled(1.0 / config.gain)
    peaks = cipd.detect_peaks(hist, config.gain)
    cipd.write_records_csv(records, out / "records.csv")
    cipd.write_histogram_csv(hist, out / "histogram_charge.csv")
    cipd.write_histogram_csv(referred, out / "histogram_pe.csv")
    cipd.write_histogram_json(hist, out / "histogram_charge.json", label="output charge (e)")
    cipd.write_histogram_json(referred, out / "histogram_pe.json",
                              label="input-referred photoelectrons")
    mean, var = (cipd.analytic_moments(config, params["source_mean"])
                 if params["source_pmf"] is None else (None, None))
    report = {
        "n_pulses": params["n_pulses"],
        "resolution": (None if config.readout_noise == 0.0
                       else config.gain / config.readout_noise),
        "detected_peaks_e": [float(p) for p in peaks],
        "mean_charge_e": float(records.output_charge.mean()),
        "var_charge_e2": float(records.output_charge.var()),
        "analytic_mean_e": mean,
        "analytic_var_e2": var,
    }
    write_json(out / "report.json", report)
    return ["histogram_charge.csv", "histogram_charge.json", "histogram_pe.csv",
            "histogram_pe.json", "records.csv", "report.json"]


def _run_cipd_resolution(params, seed, out):
    config = _cipd_config(dict(params, integration_window=None, gain_dispersion=0.0))
    infinite = config.readout_noise == 0.0
    resolution = None if infinite else cipd.resolution_metric(config)
    drift = cipd.dark_drift(config, params["drift_duration_s"], params["drift_budget_e"])
    payload = {
        "resolution": resolution,
        "resolution_infinite": infinite,
        "meets_target": (True if infinite else resolution >= params["target_snr"]),
        "target_snr": params["target_snr"],
        "required_noise_e": cipd.required_noise(config, params["target_snr"]),
        "dark_drift": {
            "duration_s": params["drift_duration_s"],
            "expected_electrons": drift.expected_electrons,
            "budget_electrons": drift.budget,
            "exceeded": drift.exceeded,
        },
    }
    write_json(out / "resolution.json", payload)
    return ["resolution.json"]


_RUNNERS = {
    "dense-coding-spectrum": _run_dense_coding_spectrum,
    "dense-coding-phase-sweep": _run_dense_coding_phase_sweep,
    "cubic-phase-run": _run_cubic_phase,
    "cipd-histogram": _run_cipd_histogram,
    "cipd-resolution": _run_cipd_resolution,
}


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _cmd_run(args):
    path = Path(args.scenario)
    try:
        text = path.read_text()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: {path}: line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 1
    try:
        kind, seed, out_field, params = parse_scenario(data)
    except ScenarioError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 1
    out_name = args.output_dir or out_field
    if out_name is None:
        print("error: output_dir missing (set it in the scenario or pass --output-dir)",
              file=sys.stderr)
        return 1
    out = Path(out_name)
    if out.exists():
        print(f"error: output directory {out} already exists", file=sys.stderr)
        return 1
    out.mkdir(parents=True)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            artifacts = _RUNNERS[kind](params, seed, out)
        truncations = [w for w in caught if issubclass(w.category, TruncationWarning)]
        for w in truncations:
            print(f"warning: {w.message}", file=sys.stderr)
        if truncations and args.strict:
            print("error: truncation warnings escalated by --strict", file=sys.stderr)
            shutil.rmtree(out)
            return 2
    except Exception as exc:
        shutil.rmtree(out, ignore_errors=True)
        print(f"error: scenario failed: {exc}", file=sys.stderr)
        return 1
    manifest = {
        "kind": kind,
        "seed": seed,
        "artifacts": [{"name": name, "sha256": _sha256(out / name),
                       "bytes": (out / name).stat().st_size}
                      for name in sorted(artifacts)],
    }
    write_json(out / "manifest.json", manifest)
    print(f"{kind}: {len(artifacts)} artifacts in {out}")
    return 0


def _cmd_list(_args):
    for kind in sorted(_SCHEMAS):
        print(f"{kind}: {_KIND_SUMMARY[kind]}")
    return 0


def _cmd_describe(args):
    kind = args.kind
    if kind not in _SCHEMAS:
        print(f"error: unknown kind {kind!r}; valid kinds: "
              f"{', '.join(sorted(_SCHEMAS))}", file=sys.stderr)
        return 1
    print(f"{kind}: {_KIND_SUMMARY[kind]}")
    print("parameters:")
    for name, (spec_kind, default, help_text) in _SCHEMAS[kind].items():
        print(f"  {name} ({spec_kind}, default {default!r}): {help_text}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cvsim", description="scenario runner for the simulation modules")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--strict", action="store_true",
                       help="escalate truncation warnings to exit code 2")
    p_run.add_argument("--output-dir", default=None,
                       help="override the scenario's output_dir")
    p_run.set_defaults(func=_cmd_run)
    p_list = sub.add_parser("list", help="list scenario kinds")
    p_list.set_defaults(func=_cmd_list)
    p_desc = sub.add_parser("describe", help="show a kind's parameter schema")
    p_desc.add_argument("kind")
    p_desc.set_defaults(func=_cmd_describe)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for strict-mode
        # numerical failures here
        return 0 if exc.code == 0 else 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
