"""Scenario runner tying the simulation modules to data artifacts.

A scenario is a JSON file:

    {
      "kind": "<one of the kinds below>",
      "seed": 123,                  required, non-negative integer; no wall-clock default
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
import functools
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

from . import cipd, cubicphase, declare, densecoding
from .artifacts import write_json
from .fock import TruncationWarning


def parse_scenario(data):
    """Validate a decoded scenario dict; returns (kind, seed, output_dir, config)."""
    if not isinstance(data, dict):
        raise ValueError("scenario must be a JSON object")
    unknown = set(data) - {"kind", "seed", "output_dir", "parameters"}
    if unknown:
        raise ValueError(f"unknown top-level fields: {', '.join(sorted(unknown))}")
    kind = data.get("kind")
    if kind not in _KINDS:
        raise ValueError(
            f"kind: expected one of {', '.join(sorted(_KINDS))}; got {kind!r}")
    seed = data.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError("seed: a non-negative literal integer is required")
    out = data.get("output_dir")
    if out is not None and not isinstance(out, str):
        raise ValueError("output_dir: expected a string path")
    raw = data.get("parameters", {})
    if not isinstance(raw, dict):
        raise ValueError("parameters: expected an object")
    schema = _KINDS[kind].schema
    bad = set(raw) - set(schema)
    if bad:
        raise ValueError(
            f"parameters: unknown for {kind}: {', '.join(sorted(bad))}; "
            f"valid: {', '.join(schema)}")
    try:
        return kind, seed, out, _KINDS[kind].config(**raw)
    except ValueError as exc:
        raise ValueError(_refusal(kind, exc) or str(exc)) from None


def _refusal(kind, exc):
    """A ValueError 'field[, field]: why' as 'parameters.field[, parameters.field]:
    why' when every leading name is a parameter of `kind`; None otherwise."""
    names, sep, why = str(exc).partition(": ")
    if sep and set(names.split(", ")) <= _KINDS[kind].schema.keys():
        return "parameters." + names.replace(", ", ", parameters.") + sep + why
    return None


def _finite(x):
    """x, or None (JSON null) where x is None or not finite: a report's figure past the
    float range, or an infinite resolution (no noise, or gain / noise overflows)."""
    return x if x is not None and math.isfinite(x) else None


def _run_dense_coding_spectrum(config, seed, out):
    densecoding.write_spectra(densecoding.run_spectrum(
        config.plan, n_samples=config.n_samples, seed=seed,
        mirror_transmittance=config.mirror_transmittance), out)


def _run_dense_coding_phase_sweep(config, seed, out):
    angles = np.linspace(0.0, np.pi, config.n_phases, endpoint=False)
    densecoding.write_phase_sweep(densecoding.phase_sweep(angles, r=config.squeezing_r), out)


def _run_cubic_phase(config, seed, out):
    (out / "gate_run.json").write_text(cubicphase.run_gate(config, seed=seed).to_json())


def _run_cipd_histogram(config, seed, out):
    # the peak kernel bounds gain well below any charge overflow, and the bins' floor
    # is known from the config: refuse a run the checks after the draw would refuse
    cipd.check_before_drawing(config)
    records = cipd.simulate_pulses(config, rng=seed)
    hist = cipd.histogram(records, bin_width=config.bin_width)
    peaks = cipd.detect_peaks(hist, config.gain)
    cipd.write_records_csv(records, out / "records.csv")
    cipd.write_histogram(hist, out, config.gain)
    mean, var = (cipd.analytic_moments(config, config.source_mean)
                 if config.source_pmf is None else (None, None))
    write_json(out / "report.json", {
        "n_pulses": config.n_pulses,
        "resolution": _finite(cipd.resolution_metric(config)),
        "detected_peaks_e": [float(p) for p in peaks],
        "mean_charge_e": float(records.output_charge.mean()),
        "var_charge_e2": _finite(float(records.output_charge.var())),
        "analytic_mean_e": mean,
        "analytic_var_e2": _finite(var),
    })


def _run_cipd_resolution(config, seed, out):
    resolution = _finite(cipd.resolution_metric(config))
    drift, budget = config.dark_rate * config.drift_duration_s, config.drift_budget_e
    write_json(out / "resolution.json", {
        "resolution": resolution,
        "resolution_infinite": resolution is None,
        "meets_target": resolution is None or resolution >= config.target_snr,
        "target_snr": config.target_snr,
        "required_noise_e": cipd.required_noise(config, config.target_snr),
        "dark_drift": {
            "duration_s": config.drift_duration_s,
            "expected_electrons": _finite(drift),
            "budget_electrons": budget,
            "exceeded": None if budget is None else drift > budget,
        },
    })


class _Kind(NamedTuple):
    summary: str
    config: type  # frozen; refuses a bad value with a ValueError "field: why"
    run: Callable  # (config, seed, output_dir); writes the artifacts
    schema: dict  # declare.schema(config): name -> (type, default, help)


_KINDS = {kind: _Kind(summary, config, run, declare.schema(config))
          for kind, summary, config, run in (
    ("dense-coding-spectrum", "sideband noise spectra of the two-tone dense-coding experiment",
     densecoding.SpectrumConfig, _run_dense_coding_spectrum),
    ("dense-coding-phase-sweep", "noise power vs LO phase for shot, EPR, and squeezed inputs",
     densecoding.SweepConfig, _run_dense_coding_phase_sweep),
    ("cubic-phase-run", "one measurement-induced cubic-gate execution with diagnostics",
     cubicphase.CubicGateConfig, _run_cubic_phase),
    ("cipd-histogram", "pulse Monte Carlo, charge histograms, and peak report",
     cipd.HistogramConfig, _run_cipd_histogram),
    ("cipd-resolution", "detector resolution arithmetic and dark-drift report",
     cipd.ResolutionConfig, _run_cipd_resolution),
)}


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
        kind, seed, out_field, config = parse_scenario(json.loads(path.read_text()))
    except (OSError, UnicodeDecodeError) as exc:
        return _error(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        return _error(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # a refused scenario, or an integer of over 4300 digits
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
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        return _error(f"cannot create output directory {out}: {exc}")
    try:
        return _run_into(staging, out, kind, seed, config, args.strict)
    except Exception as exc:
        named = isinstance(exc, ValueError) and _refusal(kind, exc)
        return _error(f"{path}: {named}" if named else f"scenario failed: {exc}")
    finally:  # also on KeyboardInterrupt, which propagates
        shutil.rmtree(staging, ignore_errors=True)


def _run_into(staging, out, kind, seed, config, strict):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _KINDS[kind].run(config, seed, staging)
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


@functools.cache  # built once per process; main parses every call with it
def _parser():
    parser = argparse.ArgumentParser(
        prog="cvsim", description="scenario runner for the simulation modules")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--strict", action="store_true",
                       help="escalate truncation warnings to exit code 2")
    p_run.add_argument("--output-dir", help="override the scenario's output_dir")
    p_run.set_defaults(func=_cmd_run)
    sub.add_parser("list", help="list scenario kinds").set_defaults(func=_cmd_list)
    p_desc = sub.add_parser("describe", help="show a kind's parameter schema")
    p_desc.add_argument("kind")
    p_desc.set_defaults(func=_cmd_describe)
    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for strict-mode
        # numerical failures here
        return 0 if exc.code == 0 else 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
