"""Benchmark workloads: seeded scenario generators and per-run correctness checks.

Each workload is a closed loop of `cvsim run` scenarios.  `draw(rng, i)` gives
the kind and parameters of run i from the workload's seeded generator, so the
program only ever sees generated scenario files.  `check(kind, params, out)`
raises CheckFailed when a run's artifacts are wrong; a failed check counts the
run as failed.  A statistical check too fine for one run returns the run's
statistic instead, and the workload's `pass_check` tests them pooled over the
pass; if that fails, it counts as one more failed run.  Why each workload exists is written next to it (and in
NOTES.md): every likely optimisation carries most of the load in one workload
and almost none in the others.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import expm


# ---------------------------------------------------------------------------
# Calibration kernels.  On a shared host the execution speed of one process
# drifts by tens of percent over seconds to minutes (CPU time tracks wall
# time, so it is not preemption), which no repetition inside a run averages
# out.  Each workload therefore interleaves a fixed kernel with its scenario
# runs, built only from numpy/scipy/stdlib (never cvsim) and doing the same
# kind of work as the workload's hot path; its time measures how fast the
# machine runs that kind of code at that moment.


def _kernel_blas(_a=(np.arange(48 * 48).reshape(48, 48) % 11 - 5.0) * 0.02j):
    # the gate's hot loop: small dense complex expm
    for _ in range(6):
        expm(_a)


def _kernel_small_arrays(_m=np.eye(4) + 0.1 * np.ones((4, 4))):
    # the spectrum's hot path: validation of 4x4 covariances
    for _ in range(300):
        c = _m.copy()
        np.abs(c - c.T).max()
        np.linalg.eigvalsh(c.astype(complex))


def _kernel_sampling():
    # the Monte Carlo spectrum's hot path: normal samples and their moments
    gen = np.random.default_rng(0)
    for _ in range(9):
        x = gen.normal(0.0, 1.0, size=20000)
        x.mean()
        x.var(ddof=1)


def _kernel_rows(_values=np.linspace(-40.0, 160.0, 3000)):
    # the detector's hot path: a per-row CSV writer formatting floats
    w = csv.writer(io.StringIO())
    for v in _values:
        w.writerow([3, 2, 0, repr(float(v))])


class CheckFailed(Exception):
    """A run's artifacts failed the workload's correctness check."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    warmup: dict  # size overrides turning a drawn scenario into the small warm-up
    draw: Callable  # (rng, i) -> (kind, params)
    check: Callable  # (kind, params, out_dir) -> None or a statistic; raises CheckFailed
    kernel: Callable  # calibration kernel run between scenario runs
    kernel_ref_s: float  # its typical time on the reference machine's fast state (NOTES.md)
    reference: Callable = None  # (client) -> None; bundled-scenario rerun, once per pass
    # (stats) -> None, raises CheckFailed; run once per pass over the values
    # that `check` returned for the pass's runs (statistical checks that a
    # single run is too small to decide at their stated bound)
    pass_check: Callable = None


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(value, expected, rel):
    # pytest.approx semantics: relative tolerance with a 1e-12 absolute floor
    return abs(value - expected) <= max(rel * abs(expected), 1e-12)


def _reject_constant(token):
    raise CheckFailed(f"non-finite number {token} in a JSON artifact")


_NON_FINITE = re.compile(rb"(?i)nan|inf")


def check_manifest(out):
    """Every artifact listed, hashed as listed, and free of non-finite numbers."""
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["artifacts"]:
        data = (out / entry["name"]).read_bytes()
        _require(hashlib.sha256(data).hexdigest() == entry["sha256"],
                 f"{entry['name']}: sha256 differs from the manifest")
        _require(len(data) == entry["bytes"], f"{entry['name']}: size differs from the manifest")
        if entry["name"].endswith(".json"):
            json.loads(data, parse_constant=_reject_constant)
        else:
            _require(_NON_FINITE.search(data) is None,
                     f"{entry['name']}: non-finite number in a CSV artifact")
    return manifest


def _load(path):
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# gate: cubic-phase-run at dim 32.
# fock.qnd_coupling_op is nearly all of a run; one small JSON artifact, no
# gaussian and no cipd work.

GATE_DIM = 32
# Three runs in four take coupling_g from this small set around the bundled
# scenario's g = 1.0 (a study sweeping squeezing and displacement at a few
# fixed couplings); every fourth run draws it fresh (a coupling scan).  An
# operator cache keyed on (g, dim, pad) would then hit on about 3/4 of the
# runs (reported per pass as coupling_reuse), rather than 0% or 100%, and
# away from 1/2, so the median run falls clearly on the hit side and the
# tail on the miss side.
GATE_COUPLINGS = (0.5, 0.75, 1.0, 1.25)
GATE_FRESH_EVERY = 4

# Frozen reference run of the bundled scenarios/cubic_phase_run.json (seed 7),
# at the tolerances of the reference-run test of the cubic-phase module.
GATE_REFERENCE = {
    "digest": "c8ae0156ee2fb93b",
    "count_n": 1,
    "count_probability": (0.33804740439016645, 1e-12),
    "homodyne_x": (1.1668902653746362, 1e-12),
    "gamma_fit": (0.030686372446843437, 1e-9),
    "phase_residual": (0.011557824618824777, 1e-9),
    "cubic_overlap": (0.661422326819703, 1e-9),
}
GATE_NORM_DEFECT_MAX = 1e-12


def _draw_gate(rng, i):
    # squeezing r <= 0.5 and |alpha|^2 <= 4.5 stay well inside the dim-32
    # truncation limits (tmsv tail, displacement), so --strict exits 0
    if i % GATE_FRESH_EVERY == GATE_FRESH_EVERY - 1:
        g = rng.uniform(0.25, 1.5)
    else:
        g = rng.choice(GATE_COUPLINGS)
    return "cubic-phase-run", {
        "dim": GATE_DIM,
        "squeezing_r": rng.uniform(0.1, 0.5),
        "displacement_alpha": [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)],
        "coupling_g": g,
    }


def _check_gate_record(rec, dim):
    _require(0 <= rec["count_n"] < dim, f"count_n {rec['count_n']} outside the cutoff")
    _require(0.0 < rec["count_probability"] <= 1.0,
             f"count_probability {rec['count_probability']} outside (0, 1]")
    defect = rec["diagnostics"]["target_norm_defect"]
    _require(defect <= GATE_NORM_DEFECT_MAX, f"target_norm_defect {defect} > {GATE_NORM_DEFECT_MAX}")
    norm2 = sum(x * x + y * y for x, y in rec["conditional_target"])
    _require(abs(norm2 - 1.0) <= 1e-9, f"conditional target norm^2 {norm2} != 1")


def _check_gate(kind, params, out):
    rec = _load(out / "gate_run.json")
    _require(rec["config"]["dim"] == params["dim"], "config.dim differs from the scenario")
    _require(rec["config"]["coupling_g"] == params["coupling_g"],
             "config.coupling_g differs from the scenario")
    _check_gate_record(rec, params["dim"])


def _gate_reference(client):
    scenario = json.loads(client.root.joinpath("scenarios", "cubic_phase_run.json").read_text())
    scenario.pop("output_dir", None)

    def check(kind, params, out):
        rec = _load(out / "gate_run.json")
        blob = json.dumps(rec["config"], sort_keys=True).encode()
        _require(hashlib.sha256(blob).hexdigest()[:16] == GATE_REFERENCE["digest"],
                 "reference config digest changed")
        _require(rec["count_n"] == GATE_REFERENCE["count_n"], "reference count_n changed")
        values = dict(rec["diagnostics"], count_probability=rec["count_probability"],
                      homodyne_x=rec["homodyne_x"])
        for key in ("count_probability", "homodyne_x", "gamma_fit", "phase_residual",
                    "cubic_overlap"):
            expected, rel = GATE_REFERENCE[key]
            _require(_close(values[key], expected, rel),
                     f"reference {key} {values[key]!r} != {expected!r} (rel {rel})")
        _check_gate_record(rec, rec["config"]["dim"])

    client.run(scenario["kind"], scenario["parameters"], scenario["seed"], check)


# ---------------------------------------------------------------------------
# spectrum / spectrum-mc: dense-coding-spectrum, analytic and sampled.
# Analytic spectra are bound by validated GaussianState construction; sampled
# spectra go through the same code but spend their time drawing samples.

DB = 10.0 / math.log(10.0)
SPECTRUM_FLOOR_TOL_DB = 0.01
TONE_MARGIN_DB = 5.0
MC_SIGMAS = 4.0
SWEEP_TOL_DB = 1e-9
DEFAULT_R = math.log(10.0) / 10.0  # the program's -2 dB default: e^{-2r} = 10^{-0.2}


def _draw_spectrum_params(rng, n_bins, n_samples):
    am = rng.uniform(0.9e6, 1.5e6)
    pm = am
    while abs(pm - am) < 0.05e6:  # tones at least 0.05 MHz apart: distinct bins
        pm = rng.uniform(0.9e6, 1.5e6)
    return {
        "n_bins": n_bins, "n_samples": n_samples, "f_lo_hz": 0.8e6, "f_hi_hz": 1.6e6,
        "am_frequency_hz": am, "pm_frequency_hz": pm,
        "amplitude": rng.uniform(2.0, 3.0),
        "loss_eta": rng.uniform(0.9, 0.999),
        "mirror_transmittance": 0.0 if rng.random() < 0.5 else rng.uniform(0.005, 0.02),
    }


def bell_floor_db(eta, transmittance, r=DEFAULT_R):
    """Bell-output noise floor for the EPR pair with one beam kept at eta*(1-T).

    Closed form, independent of the symplectic code: with V = cosh(2r)/2 per
    beam and <x1 x2> = sinh(2r)/2, Var((sqrt(k) x1 + sqrt(1-k) v - x2)/sqrt(2))
    = (k c + 1 - k + c - 2 sqrt(k) s) / 4; the p_+ port is the mirror image.
    """
    keep = eta * (1.0 - transmittance)
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    var = (keep * c + 1.0 - keep + c - 2.0 * math.sqrt(keep) * s) / 4.0
    return DB * math.log(var / 0.5)


def _tone_bins(freqs, params):
    def nearest(f):
        return min(range(len(freqs)), key=lambda i: abs(freqs[i] - f))
    return nearest(params["am_frequency_hz"]), nearest(params["pm_frequency_hz"])


def _check_spectrum(kind, params, out):
    if kind == "dense-coding-phase-sweep":
        return _check_phase_sweep(params, out)
    bell = next(t for t in _load(out / "spectra.json")["traces"] if t["label"] == "bell")
    freqs = bell["frequency_hz"]
    _require(len(freqs) == params["n_bins"], f"{len(freqs)} bins, expected {params['n_bins']}")
    i_am, i_pm = _tone_bins(freqs, params)
    floor = bell_floor_db(params["loss_eta"], params["mirror_transmittance"])
    quiet_x = [v for i, v in enumerate(bell["x_power_db"]) if i != i_am]
    quiet_p = [v for i, v in enumerate(bell["p_power_db"]) if i != i_pm]
    _require(bell["x_power_db"][i_am] > floor + TONE_MARGIN_DB, "AM tone not above the floor in x")
    _require(bell["p_power_db"][i_pm] > floor + TONE_MARGIN_DB, "PM tone not above the floor in p")
    n = params["n_samples"]
    if n == 0:
        worst = max(abs(v - floor) for v in quiet_x + quiet_p)
        _require(worst <= SPECTRUM_FLOOR_TOL_DB,
                 f"quiet bins {worst:.4g} dB off the {floor:.4f} dB Bell floor")
        return None
    # a variance estimate from n Gaussian samples has relative sd sqrt(2/(n-1));
    # each quiet bin's offset from the floor in units of that sd is ~N(0, 1),
    # and _check_floor_pooled tests their sum over the whole pass
    sigma = DB * math.sqrt(2.0 / (n - 1))
    return {label: (sum(v - floor for v in quiet) / sigma, len(quiet))
            for label, quiet in (("x", quiet_x), ("p", quiet_p))}


def _check_floor_pooled(stats):
    """Quiet Bell bins of the pass, pooled per quadrature, within 4 sigma of the floor.

    A 4-sigma test on each run would fail a correct program once in about
    8000 runs (two quadratures), i.e. now and then over the thousands of runs
    of repeated passes; pooled over the pass it is one test per quadrature,
    and its bound in dB is tighter by the square root of the pass's run count.
    """
    for label in ("x", "p"):
        total = sum(s[label][0] for s in stats)
        count = sum(s[label][1] for s in stats)
        if count == 0:  # no run of the pass got this far; each already failed
            continue
        z = total / math.sqrt(count)
        _require(abs(z) <= MC_SIGMAS,
                 f"{label} quiet bins of {len(stats)} runs off the Bell floor by "
                 f"{z:.2f} sigma (bound {MC_SIGMAS:g})")


def _check_phase_sweep(params, out):
    traces = {t["label"]: t["power_db"] for t in _load(out / "phase_sweep.json")["traces"]}
    r = params.get("squeezing_r", DEFAULT_R)
    expect = {"shot": (0.0, 0.0), "epr": (DB * math.log(math.cosh(2.0 * r)),) * 2,
              "squeezed": (-2.0 * r * DB, 2.0 * r * DB)}
    for label, (lo, hi) in expect.items():
        got = traces[label]
        _require(len(got) == params["n_phases"], f"{label}: {len(got)} phases")
        _require(abs(min(got) - lo) <= SWEEP_TOL_DB and abs(max(got) - hi) <= SWEEP_TOL_DB,
                 f"{label}: sweep range [{min(got)}, {max(got)}] != [{lo}, {hi}]")


SWEEP_EVERY = 8  # every 8th spectrum run is a phase sweep (fixed 1/8 share)
# Bins per spectrum: the cost per bin is constant, so these sizes keep a run
# short enough for a 15 s pass to hold the 21+ runs a tail needs (NOTES.md).
SPECTRUM_BINS = 501
SPECTRUM_MC_BINS = 101


def _draw_spectrum(rng, i):
    if i % SWEEP_EVERY == SWEEP_EVERY - 1:
        return "dense-coding-phase-sweep", {"n_phases": 64}
    return "dense-coding-spectrum", _draw_spectrum_params(rng, SPECTRUM_BINS, 0)


def _draw_spectrum_mc(rng, i):
    return "dense-coding-spectrum", _draw_spectrum_params(rng, SPECTRUM_MC_BINS, 20000)


# ---------------------------------------------------------------------------
# detector: cipd-histogram, bound by the CSV writers.

DETECTOR_PULSES = 100_000
MOMENT_SIGMAS = 5.0
RESOLUTION_EVERY = 8  # every 8th detector run is cipd-resolution (fixed 1/8 share)


def _draw_detector(rng, i):
    if i % RESOLUTION_EVERY == RESOLUTION_EVERY - 1:
        return "cipd-resolution", {
            "gain": rng.uniform(5.0, 20.0), "readout_noise": rng.uniform(2.0, 10.0),
            "target_snr": rng.uniform(1.0, 6.0), "drift_duration_s": rng.uniform(0.5, 5.0),
            "drift_budget_e": rng.uniform(1.0, 10.0),
        }
    return "cipd-histogram", {
        "n_pulses": DETECTOR_PULSES,
        "source_mean": rng.uniform(1.0, 4.0),
        "gain_dispersion": rng.uniform(0.0, 0.2),
    }


def _check_detector(kind, params, out):
    from cvsim import cipd

    if kind == "cipd-resolution":
        return _check_resolution(cipd, params, out)
    report = _load(out / "report.json")
    n = params["n_pulses"]
    with open(out / "records.csv", "rb") as fh:
        rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
    _require(rows == n, f"records.csv has {rows} rows, expected {n}")
    config = cipd.CipdConfig(gain_dispersion=params["gain_dispersion"])
    mean, var = cipd.analytic_moments(config, params["source_mean"])
    # standard errors of the sample mean and variance; the fourth central
    # moment comes from the charge histogram (1 e bins against ~20 e spread)
    hist = _load(out / "histogram_charge.json")
    edges, counts = hist["bin_edges"], hist["counts"]
    centers = [0.5 * (a + b) for a, b in zip(edges, edges[1:])]
    m = sum(c * x for c, x in zip(counts, centers)) / n
    mu4 = sum(c * (x - m) ** 4 for c, x in zip(counts, centers)) / n
    got_mean, got_var = report["mean_charge_e"], report["var_charge_e2"]
    se_mean = math.sqrt(got_var / n)
    se_var = math.sqrt(max(mu4 - got_var**2, 0.0) / n)
    _require(abs(got_mean - mean) <= MOMENT_SIGMAS * se_mean,
             f"charge mean {got_mean:.4f} vs analytic {mean:.4f} (se {se_mean:.3g})")
    _require(abs(got_var - var) <= MOMENT_SIGMAS * se_var,
             f"charge variance {got_var:.3f} vs analytic {var:.3f} (se {se_var:.3g})")


def _check_resolution(cipd, params, out):
    doc = _load(out / "resolution.json")
    _require(_close(doc["resolution"], params["gain"] / params["readout_noise"], 1e-12),
             "resolution != gain / readout_noise")
    _require(_close(doc["required_noise_e"], params["gain"] / params["target_snr"], 1e-12),
             "required_noise_e != gain / target_snr")
    _require(doc["meets_target"] == (doc["resolution"] >= params["target_snr"]),
             "meets_target inconsistent")
    drift = doc["dark_drift"]
    expected = cipd.CipdConfig().dark_rate * params["drift_duration_s"]
    _require(_close(drift["expected_electrons"], expected, 1e-12), "dark drift expectation")
    _require(drift["exceeded"] == (expected > params["drift_budget_e"]), "dark drift budget flag")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gate",
            why="cubic-phase-run at dim 32: fock.qnd_coupling_op is nearly all of a run; "
                "one small JSON artifact, no gaussian or cipd work",
            # the program's default displacement: a drawn one can exceed the
            # |alpha|^2 <= dim/4 that --strict allows at the warm-up's dim 16
            warmup={"dim": 16, "displacement_alpha": [0.5, 1.0]},
            draw=_draw_gate, check=_check_gate,
            kernel=_kernel_blas, kernel_ref_s=3.0e-3, reference=_gate_reference),
        Workload(
            name="spectrum",
            why="dense-coding-spectrum at 501 analytic bins (1/8 phase sweeps): bound by "
                "validated GaussianState construction; no fock or cipd work",
            warmup={"n_bins": 33}, draw=_draw_spectrum, check=_check_spectrum,
            kernel=_kernel_small_arrays, kernel_ref_s=3.5e-3),
        Workload(
            name="spectrum-mc",
            why="dense-coding-spectrum at 101 bins x 20000 homodyne samples: the same "
                "densecoding/gaussian code, with the time in sampling",
            warmup={"n_bins": 33}, draw=_draw_spectrum_mc, check=_check_spectrum,
            kernel=_kernel_sampling, kernel_ref_s=4.5e-3, pass_check=_check_floor_pooled),
        Workload(
            name="detector",
            why="cipd-histogram at 1e5 pulses (1/8 cipd-resolution): bound by the per-row "
                "CSV writer and manifest hashing; the write-heavy counterpart to gate",
            warmup={"n_pulses": 2000}, draw=_draw_detector, check=_check_detector,
            kernel=_kernel_rows, kernel_ref_s=5.7e-3),
    )
}
