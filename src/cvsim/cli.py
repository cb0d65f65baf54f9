"""Scenario runner tying the simulation modules to data artifacts.

A scenario is a JSON file:

    {
      "kind": "<one of the kinds below>",
      "seed": 123,                  required, integer; no wall-clock default
      "output_dir": "out/run1",     required unless --output-dir is given
      "parameters": { ... }         optional, kind-specific, all have defaults
    }

Every run writes its artifacts plus a manifest.json giving the sha256 and
size of every other file in the output directory; identical scenario files
produce byte-identical artifacts.  The run writes into a hidden sibling
directory that is renamed to output_dir only once the manifest is in it, so
a failed or interrupted run leaves no output directory.  Exit codes:
0 success, 1 usage or config error, 2 numerical failure under --strict
(truncation warnings escalated).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import shutil
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import cipd, cubicphase, densecoding
from .artifacts import write_json
from .fock import TruncationWarning


class ScenarioError(Exception):
    """Configuration problem; message carries the offending field."""


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
        return complex(*_finite(name, value))
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
    if kind not in _KINDS:
        raise ScenarioError(
            f"kind: expected one of {', '.join(sorted(_KINDS))}; got {kind!r}")
    seed = data.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ScenarioError("seed: a literal integer is required")
    out = data.get("output_dir")
    if out is not None and not isinstance(out, str):
        raise ScenarioError("output_dir: expected a string path")
    raw = data.get("parameters", {})
    if not isinstance(raw, dict):
        raise ScenarioError("parameters: expected an object")
    schema = _KINDS[kind].schema
    bad = set(raw) - set(schema)
    if bad:
        raise ScenarioError(
            f"parameters: unknown for {kind}: {', '.join(sorted(bad))}; "
            f"valid: {', '.join(schema)}")
    params = {name: _check_param(name, spec_kind, raw[name]) if name in raw else default
              for name, (spec_kind, default, _) in schema.items()}
    return kind, seed, out, params


def _config(config_cls, params):
    """config_cls from the parameters named like its fields; the rest keep their defaults."""
    return config_cls(**{f.name: params[f.name] for f in dataclasses.fields(config_cls)
                         if f.name in params})


def _resolution(config):
    """cipd.resolution_metric, None where zero readout noise makes it infinite."""
    return None if config.readout_noise == 0.0 else cipd.resolution_metric(config)


def _run_dense_coding_spectrum(params, seed, out):
    if params["n_samples"] < 0 or params["n_samples"] == 1:
        raise ScenarioError(
            f"parameters.n_samples: must be 0 or >= 2, got {params['n_samples']}")
    if params["n_samples"] > sys.float_info.max:  # run_spectrum takes n as a float
        raise ScenarioError("parameters.n_samples: must convert to a finite float, got "
                            f"an integer of {len(str(params['n_samples']))} digits")
    f_lo, f_hi, n_bins = params["f_lo_hz"], params["f_hi_hz"], params["n_bins"]
    if f_hi <= f_lo:
        raise ScenarioError(f"parameters.f_hi_hz: must exceed f_lo_hz {f_lo!r}, got {f_hi!r}")
    if not math.isfinite(f_hi - f_lo):
        raise ScenarioError("parameters.f_lo_hz, parameters.f_hi_hz: the band width "
                            f"{f_hi!r} - {f_lo!r} is not a finite float")
    if f_lo <= 0:
        raise ScenarioError(f"parameters.f_lo_hz: must be > 0, got {f_lo!r}")
    if n_bins < 2:
        raise ScenarioError(f"parameters.n_bins: must be >= 2, got {n_bins}")
    # two_tone_plan's snapping rule: each tone goes to the nearest bin
    freqs = np.linspace(f_lo, f_hi, n_bins)
    i_am, i_pm = (int(np.argmin(np.abs(freqs - params[f"{tone}_frequency_hz"])))
                  for tone in ("am", "pm"))
    if i_am == i_pm:
        raise ScenarioError("parameters.am_frequency_hz, parameters.pm_frequency_hz: both "
                            f"tones snap to bin {i_am} of {n_bins}; they need distinct bins")
    plan = densecoding.two_tone_plan(
        n_bins=n_bins, f_lo=f_lo, f_hi=f_hi, r=params["squeezing_r"],
        am_frequency=params["am_frequency_hz"], pm_frequency=params["pm_frequency_hz"],
        amplitude=params["amplitude"], loss_eta=params["loss_eta"])
    traces = densecoding.run_spectrum(
        plan, n_samples=params["n_samples"], seed=seed,
        mirror_transmittance=params["mirror_transmittance"])
    densecoding.write_spectra(traces, out)


def _run_dense_coding_phase_sweep(params, seed, out):
    if params["n_phases"] < 1:
        raise ScenarioError(f"parameters.n_phases: must be >= 1, got {params['n_phases']}")
    angles = np.linspace(0.0, np.pi, params["n_phases"], endpoint=False)
    traces = [densecoding.phase_sweep(kind, angles, r=params["squeezing_r"])
              for kind in ("shot", "epr", "squeezed")]
    densecoding.write_phase_sweep(traces, out)


def _run_cubic_phase(params, seed, out):
    record = cubicphase.run_gate(_config(cubicphase.CubicGateConfig, params), seed=seed)
    (out / "gate_run.json").write_text(record.to_json())


def _run_cipd_histogram(params, seed, out):
    config = _config(cipd.CipdConfig, params)
    source = params["source_pmf"] if params["source_pmf"] is not None else params["source_mean"]
    records = cipd.simulate_pulses(config, source, params["n_pulses"], rng=seed)
    hist = cipd.histogram(records, bin_width=params["bin_width"])
    referred = hist.scaled(1.0 / config.gain)
    peaks = cipd.detect_peaks(hist, config.gain)
    cipd.write_records_csv(records, out / "records.csv")
    cipd.write_histogram(hist, out, "histogram_charge", "output charge (e)")
    cipd.write_histogram(referred, out, "histogram_pe", "input-referred photoelectrons")
    mean, var = (cipd.analytic_moments(config, params["source_mean"])
                 if params["source_pmf"] is None else (None, None))
    write_json(out / "report.json", {
        "n_pulses": params["n_pulses"],
        "resolution": _resolution(config),
        "detected_peaks_e": [float(p) for p in peaks],
        "mean_charge_e": float(records.output_charge.mean()),
        "var_charge_e2": float(records.output_charge.var()),
        "analytic_mean_e": mean,
        "analytic_var_e2": var,
    })


def _run_cipd_resolution(params, seed, out):
    config = _config(cipd.CipdConfig, params)
    resolution = _resolution(config)
    drift = cipd.dark_drift(config, params["drift_duration_s"], params["drift_budget_e"])
    write_json(out / "resolution.json", {
        "resolution": resolution,
        "resolution_infinite": resolution is None,
        "meets_target": resolution is None or resolution >= params["target_snr"],
        "target_snr": params["target_snr"],
        "required_noise_e": cipd.required_noise(config, params["target_snr"]),
        "dark_drift": {
            "duration_s": params["drift_duration_s"],
            "expected_electrons": drift.expected_electrons,
            "budget_electrons": drift.budget,
            "exceeded": drift.exceeded,
        },
    })


class _Kind(NamedTuple):
    summary: str
    run: Callable  # (params, seed, output_dir); writes the artifacts
    # parameter name -> (type, default, help); type in {int, float, str, pair,
    # pmf, optional_int, optional_float}; defaults as the runner takes them
    schema: dict


def _config_fields(config_cls, **specs):
    """Schema entries name=(type, help) for config_cls fields, with its defaults."""
    defaults = {f.name: f.default for f in dataclasses.fields(config_cls)}
    return {name: (spec_kind, defaults[name], help_text)
            for name, (spec_kind, help_text) in specs.items()}


_DETECTOR = _config_fields(
    cipd.CipdConfig,
    eta=("float", "quantum efficiency"),
    gain=("float", "mean avalanche gain (e/pe)"),
    dark_rate=("float", "dark electrons per second"),
    readout_noise=("float", "readout noise, electrons RMS"),
    sample_rate=("float", "sampling rate, Hz"),
)

_KINDS = {
    "dense-coding-spectrum": _Kind(
        "sideband noise spectra of the two-tone dense-coding experiment",
        _run_dense_coding_spectrum, {
            "n_bins": ("int", 33, "sideband bins across the analysis band"),
            "f_lo_hz": ("float", 0.8e6, "low edge of the band"),
            "f_hi_hz": ("float", 1.6e6, "high edge of the band"),
            "squeezing_r": ("float", densecoding.DEFAULT_R, "squeezing parameter of the EPR source"),
            "am_frequency_hz": ("float", densecoding.AM_FREQUENCY_HZ, "AM tone frequency"),
            "pm_frequency_hz": ("float", densecoding.PM_FREQUENCY_HZ, "PM tone frequency"),
            "amplitude": ("float", densecoding.DEFAULT_TONE_AMPLITUDE,
                          "tone displacement amplitude"),
            "loss_eta": ("float", 1.0, "transmission of the encoded beam"),
            "n_samples": ("int", 0, "homodyne samples per bin; 0 = analytic, else >= 2"),
            "mirror_transmittance": ("float", 0.0,
                                     "encoding mirror transmittance; 0 = ideal displacement"),
        }),
    "dense-coding-phase-sweep": _Kind(
        "noise power vs LO phase for shot, EPR, and squeezed inputs",
        _run_dense_coding_phase_sweep, {
            "squeezing_r": ("float", densecoding.DEFAULT_R, "squeezing parameter"),
            "n_phases": ("int", 64, "LO angles spread over [0, pi)"),
        }),
    "cubic-phase-run": _Kind(
        "one measurement-induced cubic-gate execution with diagnostics",
        _run_cubic_phase, _config_fields(
            cubicphase.CubicGateConfig,
            squeezing_r=("float", "resource squeezing"),
            displacement_alpha=("pair", "[re, im] displacement of the counted arm"),
            correction_s=("float", "ancilla squeeze correction"),
            coupling_g=("float", "QND coupling strength"),
            gamma_target=("float", "cubic strength aimed for (diagnostic)"),
            dim=("int", "per-mode Fock cutoff"),
            qnd_pad=("optional_int", "coupling workspace padding; default dim/2"),
            post_select_n=("optional_int", "forced photon count; default sampled"),
            homodyne_which=("str", "which coupled mode is homodyned"),
            grid_points=("int", "quadrature grid resolution"),
        )),
    "cipd-histogram": _Kind(
        "pulse Monte Carlo, charge histograms, and peak report",
        _run_cipd_histogram, {
            **_DETECTOR,
            **_config_fields(
                cipd.CipdConfig,
                integration_window=("optional_float",
                                    "integration window, s; default 1/sample_rate"),
                gain_dispersion=("float", "fractional RMS gain noise; 0 = deterministic gain"),
            ),
            "source_mean": ("float", 2.0, "Poisson mean photons per pulse"),
            "source_pmf": ("pmf", None, "explicit photon-number pmf; overrides source_mean"),
            "n_pulses": ("int", 2000, "number of light pulses"),
            "bin_width": ("float", cipd.DEFAULT_BIN_WIDTH_E, "histogram bin width, electrons"),
        }),
    "cipd-resolution": _Kind(
        "detector resolution arithmetic and dark-drift report",
        _run_cipd_resolution, {
            **_DETECTOR,
            "target_snr": ("float", 4.0, "resolution target for required_noise"),
            "drift_duration_s": ("float", 1.0, "duration for the dark-drift estimate"),
            "drift_budget_e": ("optional_float", None, "dark-drift budget, electrons"),
        }),
}


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _error(message, code=1):
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_run(args):
    path = Path(args.scenario)
    try:
        kind, seed, out_field, params = parse_scenario(json.loads(path.read_text()))
    except (OSError, UnicodeDecodeError) as exc:
        return _error(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        return _error(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except ScenarioError as exc:
        return _error(f"{path}: {exc}")
    out_name = args.output_dir or out_field
    if out_name is None:
        return _error("output_dir missing (set it in the scenario or pass --output-dir)")
    out = Path(out_name)
    if os.path.lexists(out):  # a dangling symlink counts too
        return _error(f"output directory {out} already exists")
    staging = out.parent / f".{out.name}.partial-{os.getpid()}"
    try:
        staging.mkdir(parents=True)
    except OSError as exc:
        return _error(f"cannot create output directory {out}: {exc}")
    try:
        return _run_into(staging, out, kind, seed, params, args.strict)
    except Exception as exc:
        return _error(f"scenario failed: {exc}")
    finally:  # also on KeyboardInterrupt, which propagates
        shutil.rmtree(staging, ignore_errors=True)


def _run_into(staging, out, kind, seed, params, strict):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _KINDS[kind].run(params, seed, staging)
    truncations = [w for w in caught if issubclass(w.category, TruncationWarning)]
    for w in truncations:
        print(f"warning: {w.message}", file=sys.stderr)
    if truncations and strict:
        return _error("truncation warnings escalated by --strict", code=2)
    names = sorted(p.name for p in staging.iterdir())
    write_json(staging / "manifest.json", {
        "kind": kind,
        "seed": seed,
        "artifacts": [{"name": name, "sha256": _sha256(staging / name),
                       "bytes": (staging / name).stat().st_size} for name in names],
    })
    if os.path.lexists(out):  # appeared during the run; never replaced
        return _error(f"output directory {out} already exists")
    staging.rename(out)
    print(f"{kind}: {len(names)} artifacts in {out}")
    return 0


def _cmd_list(_args):
    for kind in sorted(_KINDS):
        print(f"{kind}: {_KINDS[kind].summary}")
    return 0


def _cmd_describe(args):
    kind = args.kind
    if kind not in _KINDS:
        return _error(f"unknown kind {kind!r}; valid kinds: {', '.join(sorted(_KINDS))}")
    print(f"{kind}: {_KINDS[kind].summary}")
    print("parameters:")
    for name, (spec_kind, default, help_text) in _KINDS[kind].schema.items():
        if isinstance(default, complex):  # a pair, shown as a scenario writes it
            default = [default.real, default.imag]
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
    sub.add_parser("list", help="list scenario kinds").set_defaults(func=_cmd_list)
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
