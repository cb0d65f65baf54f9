"""Sideband dense coding on an EPR beam pair.

Two OPOs squeezed at the same r (one in x, one in p) interfere on a 50:50
splitter to give the EPR pair.  AM/PM tones at chosen sideband frequencies are
modeled per frequency bin: each bin is an independent mode pair carrying that
bin's displacement.  The Bell receiver recombines the beams on a second 50:50
splitter and homodynes x on the difference port and p on the sum port; both
decoded quadratures sit at the single-OPO squeezed variance (the -2 dB floor
at the default r) while each tone appears only in its own quadrature.

Spectrum-analyzer style powers are reported as 10*log10((Var + mean^2)/0.5),
i.e. noise floor plus coherent tone power relative to shot noise.  The
write_* functions only map spectra and sweeps to columns and a dict, each
number formatted once for both files; cvsim.artifacts owns the file format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import artifacts, gaussian
from .gaussian import r_for_noise_db

DEFAULT_R = r_for_noise_db(2.0)

# decoded tone ~10 dB above the -2 dB floor: 10*log10((2.5^2/2) / (e^{-2r}/2))
DEFAULT_TONE_AMPLITUDE = 2.5

AM_FREQUENCY_HZ = 1.3e6
PM_FREQUENCY_HZ = 1.1e6

# the 50:50 splitter that makes the EPR pair and recombines it in the receiver
_BALANCED = gaussian.beamsplitter_op(2, 0, 1, 0.5)


@dataclass(frozen=True)
class SidebandBin:
    """One analysis bin: tone amplitudes in shot-pair units, channel loss eta."""

    frequency_hz: float
    squeezing_r: float
    am_amplitude: float
    pm_amplitude: float
    loss_eta: float

    def __post_init__(self):
        for name in ("frequency_hz", "squeezing_r", "am_amplitude", "pm_amplitude", "loss_eta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not 0.0 <= self.loss_eta <= 1.0:
            raise ValueError(f"loss_eta must be in [0, 1], got {self.loss_eta}")
        if self.frequency_hz <= 0:
            raise ValueError("frequency must be positive")


@dataclass(frozen=True)
class SidebandPlan:
    bins: tuple

    def __post_init__(self):
        bins = tuple(self.bins)
        if not bins:
            raise ValueError("plan needs at least one bin")
        freqs = [b.frequency_hz for b in bins]
        if any(f2 <= f1 for f1, f2 in zip(freqs, freqs[1:])):
            raise ValueError("bin frequencies must be strictly increasing")
        object.__setattr__(self, "bins", bins)


@dataclass(frozen=True)
class NoiseSpectrum:
    """Per-bin powers (dB relative to shot noise) for one trace."""

    label: str
    frequency_hz: np.ndarray
    x_power_db: np.ndarray
    p_power_db: np.ndarray


@dataclass(frozen=True)
class PhaseSweepTrace:
    label: str
    lo_phase_rad: np.ndarray
    power_db: np.ndarray


def build_epr(r=DEFAULT_R):
    """EPR pair: x-squeezed and p-squeezed vacua on a 50:50 splitter.

    Var(x1 - x2) = Var(p1 + p2) = e^{-2r}; each beam alone is thermal with
    variance cosh(2r)/2 in every quadrature.
    """
    return _BALANCED.apply(gaussian.tensor(
        gaussian.squeezed_vacuum(r, 0.0),
        gaussian.squeezed_vacuum(r, math.pi / 2),
    ))


def encode(state, am, pm, transmittance):
    """Write AM/PM tone amplitudes onto beam 0 as a phase-space displacement.

    The physical encoder reflects the beam off a mirror of transmittance T
    with a bright beam injected through the back; the bright amplitude is
    scaled so the mean shift is exactly (am, pm).  transmittance=0 requests
    the ideal displacement limit.
    """
    if transmittance == 0.0:
        return gaussian.displace(state, 0, (am + 1j * pm) / math.sqrt(2.0))
    bright = (am + 1j * pm) / math.sqrt(2.0 * transmittance)
    return gaussian.mirror_displace(state, 0, bright, transmittance)


def bell_measure(state, n_samples=0, rng=None):
    """Joint x/p measurement of a two-mode state.

    Recombines the beams on a 50:50 splitter, then homodynes x on the
    difference port and p on the sum port.  For a tone (am, pm) encoded on
    mode 0 the decoded means are -am/sqrt(2) and +pm/sqrt(2).  Returns
    (x_minus, p_plus) HomodyneResults.
    """
    if state.num_modes != 2:
        raise ValueError("bell_measure expects a two-mode state")
    gen = np.random.default_rng(rng) if n_samples else None  # shared by both homodynes
    return _homodyne_xp(_BALANCED.apply(state), n_samples, gen, x_mode=1)


def _homodyne_xp(state, n_samples, rng, x_mode=0):
    """Homodyne x on `x_mode`, then p on mode 0, drawing from `rng` in that order."""
    return (gaussian.homodyne(state, x_mode, 0.0, n_samples=n_samples, rng=rng),
            gaussian.homodyne(state, 0, math.pi / 2, n_samples=n_samples, rng=rng))


def _moments(results):
    """[[mean_x, mean_p], [var_x, var_p]] of an (x, p) pair of HomodyneResults."""
    return [[res.mean for res in results], [res.variance for res in results]]


def run_spectrum(plan, n_samples=0, seed=None, mirror_transmittance=0.0):
    """Shot / single-EPR-beam / Bell-output spectra over the plan's bins.

    Each bin is an independent mode pair: EPR pair, encode the bin's tones,
    channel loss on the encoded beam, Bell measurement.  The shot trace is the
    vacuum (0 dB by construction); the EPR trace is one beam of the pair.
    The chain is a Gaussian map and the EPR mean is 0, so the Bell means are
    linear in the tones and the variances depend only on (r, eta) at fixed T:
    per distinct (r, eta) the circuit runs at zero tones (means z, variances)
    and at unit AM and PM tones (means u_am, u_pm), and each bin's means are
    z + (u_am - z) am + (u_pm - z) pm.  With n_samples = n >= 2 each power
    comes from the sample mean and ddof=1 variance of n homodyne samples per
    bin and receiver.  Those are drawn from their exact joint law, so the cost
    does not depend on n: for n iid N(mu, var) samples the mean is
    mu + sqrt(var/n) Z and the variance var X/(n-1), with Z ~ N(0, 1) and
    X ~ chi^2(n-1) independent.  One generator seeded with `seed` draws every
    Z, then every X, each in (receiver, bin, x/p) order.
    """
    if n_samples < 0 or n_samples == 1:
        raise ValueError(f"n_samples must be 0 or >= 2, got {n_samples}")
    bins = plan.bins
    am, pm = np.array([(b.am_amplitude, b.pm_amplitude) for b in bins]).T[:, :, None]
    keys = [(b.squeezing_r, b.loss_eta) for b in bins]
    links = {k: j for j, k in enumerate(dict.fromkeys(keys))}  # distinct (r, eta) -> index
    eprs = {r: build_epr(r) for r, _ in links}
    probes = np.array([[_moments(_homodyne_xp(eprs[r], 0, None))] + [
        _moments(bell_measure(gaussian.loss(encode(eprs[r], a, p, mirror_transmittance), 0, eta)))
        for a, p in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))] for r, eta in links])
    # each (bin, mean/variance, x/p): one EPR beam, then the Bell probes
    epr, z, u_am, u_pm = probes[[links[k] for k in keys]].transpose(1, 0, 2, 3)
    bell = z.copy()
    bell[:, 0] = z[:, 0] + (u_am - z)[:, 0] * am + (u_pm - z)[:, 0] * pm
    vac = _moments(_homodyne_xp(gaussian.vacuum(1), 0, None))
    moments = np.array([np.broadcast_to(vac, bell.shape), epr, bell])  # receiver first
    if n_samples:
        n = int(n_samples)
        gen, shape = np.random.default_rng(seed), moments[:, :, 0].shape  # (receiver, bin, x/p)
        normal, chi2 = gen.standard_normal(shape), gen.chisquare(n - 1, shape)  # Z, then X
        moments[:, :, 0] += np.sqrt(moments[:, :, 1] / n) * normal
        moments[:, :, 1] *= chi2 / (n - 1)
    mean, var = (moments[:, :, k].transpose(0, 2, 1).ravel().tolist() for k in (0, 1))
    power = np.reshape([gaussian.noise_power_db(v + m * m) for m, v in zip(mean, var)], (3, 2, -1))
    freq = np.array([b.frequency_hz for b in bins])
    return {label: NoiseSpectrum(label, freq, *power[t])
            for t, label in enumerate(("shot", "epr", "bell"))}


def two_tone_plan(
    n_bins=33,
    f_lo=0.8e6,
    f_hi=1.6e6,
    r=DEFAULT_R,
    am_frequency=AM_FREQUENCY_HZ,
    pm_frequency=PM_FREQUENCY_HZ,
    amplitude=DEFAULT_TONE_AMPLITUDE,
    loss_eta=1.0,
):
    """AM tone at one bin, PM tone at another, quiet bins elsewhere.

    Tone frequencies snap to the nearest bin of the linspace grid.
    """
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    freqs = np.linspace(f_lo, f_hi, n_bins)
    i_am = int(np.argmin(np.abs(freqs - am_frequency)))
    i_pm = int(np.argmin(np.abs(freqs - pm_frequency)))
    if i_am == i_pm:
        raise ValueError("AM and PM tones landed on the same bin")
    bins = tuple(SidebandBin(float(f), r, amplitude if i == i_am else 0.0,
                             amplitude if i == i_pm else 0.0, loss_eta)
                 for i, f in enumerate(freqs))
    return SidebandPlan(bins)


DEFAULT_SWEEP_ANGLES = np.linspace(0.0, math.pi, 64, endpoint=False)


def phase_sweep(state_kind, lo_phases=None, r=DEFAULT_R):
    """Homodyne noise power vs LO angle for 'shot', 'epr' or 'squeezed'.

    shot is flat at 0 dB; a single EPR beam is flat at 10*log10(cosh 2r);
    squeezed vacuum swings between -/+ the squeezing dB.
    """
    lo_phases = np.asarray(DEFAULT_SWEEP_ANGLES if lo_phases is None else lo_phases, dtype=float)
    if state_kind == "shot":
        state = gaussian.vacuum(1)
    elif state_kind == "epr":
        state = build_epr(r)
    elif state_kind == "squeezed":
        state = gaussian.squeezed_vacuum(r, 0.0)
    else:
        raise ValueError(f"unknown state kind {state_kind!r}")
    power = np.array([gaussian.noise_power_db(gaussian.homodyne(state, 0, th).variance)
                      for th in lo_phases])
    return PhaseSweepTrace(state_kind, lo_phases, power)


# ---------------------------------------------------------------------------
# file output


def _formatter():
    """artifacts.numbers memoised per array object: traces that share one axis
    array (as run_spectrum's and phase_sweep's do) format it once."""
    done = {}

    def text(array):
        if id(array) not in done:
            done[id(array)] = artifacts.numbers(array)
        return done[id(array)]
    return text


def write_spectra(spectra, out):
    """spectra.csv, one row per bin (frequency, then x/p power columns per
    trace), and spectra.json, one entry per trace, into directory `out`."""
    text = _formatter()
    traces = {lab: {"label": s.label, "frequency_hz": text(s.frequency_hz),
                    "x_power_db": text(s.x_power_db), "p_power_db": text(s.p_power_db)}
              for lab, s in spectra.items()}
    header, columns = ["frequency_hz"], [next(iter(traces.values()))["frequency_hz"]]
    for lab, t in traces.items():
        header += [f"{lab}_x_db", f"{lab}_p_db"]
        columns += [t["x_power_db"], t["p_power_db"]]
    artifacts.write_csv(out / "spectra.csv", header, columns)
    artifacts.write_json(out / "spectra.json", {"traces": list(traces.values())})


def write_phase_sweep(traces, out):
    """phase_sweep.csv, one row per LO angle, and phase_sweep.json, one entry
    per trace, into directory `out`."""
    text = _formatter()
    entries = [{"label": t.label, "lo_phase_rad": text(t.lo_phase_rad), "power_db": text(t.power_db)}
               for t in traces]
    artifacts.write_csv(out / "phase_sweep.csv",
                        ["phase_rad"] + [f"{t['label']}_db" for t in entries],
                        [entries[0]["lo_phase_rad"]] + [t["power_db"] for t in entries])
    artifacts.write_json(out / "phase_sweep.json", {"traces": entries})
