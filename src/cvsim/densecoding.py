"""Sideband dense coding on an EPR beam pair.

Two OPOs squeezed at the same r (one in x, one in p) interfere on a 50:50
splitter to give the EPR pair.  AM/PM tones at chosen sideband frequencies are
modeled per frequency bin: each bin is an independent mode pair carrying that
bin's displacement.  The Bell receiver recombines the beams on a second 50:50
splitter and homodynes x on the difference port and p on the sum port; both
decoded quadratures sit at the single-OPO squeezed variance (the -2 dB floor
at the default r) while each tone appears only in its own quadrature.

build_epr, encode and bell_measure run this circuit on validated GaussianStates.
run_spectrum and phase_sweep apply it as one composed Gaussian channel (Weedbrook
et al., Rev. Mod. Phys. 84, 621 (2012)) to the squeezed inputs' diagonal
covariance D, so each variance is a sum of non-negative terms: no entry of size
e^{2r} is subtracted, and every |r| up to gaussian.MAX_SQUEEZING_R keeps its digits.

Spectrum-analyzer style powers are reported as 10*log10((Var + mean^2)/0.5),
i.e. noise floor plus coherent tone power relative to shot noise.  The
write_* functions only map spectra and sweeps to columns and a dict, each
number formatted once for both files; cvsim.artifacts owns the file format.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import artifacts, gaussian
from .declare import check, param
from .gaussian import MAX_SQUEEZING_R, VACUUM_VAR, r_for_noise_db

DEFAULT_R = r_for_noise_db(2.0)

# decoded tone ~10 dB above the -2 dB floor: 10*log10((2.5^2/2) / (e^{-2r}/2))
DEFAULT_TONE_AMPLITUDE = 2.5

# Largest |amplitude|: a bin's decoded power var + mean^2 overflows from a tone of
# about 1.9e154, and the cap keeps that 1e8 away, as cipd.MAX_BIN_WIDTH_E does
MAX_TONE_AMPLITUDE = 1e150

AM_FREQUENCY_HZ = 1.3e6
PM_FREQUENCY_HZ = 1.1e6

# most bins a spectrum, and LO angles a sweep, may have: 100x a 1001-bin spectrum
MAX_BINS = 100_000

# the 50:50 splitter that makes the EPR pair and recombines it in the receiver
_BALANCED = gaussian.beamsplitter_op(2, 0, 1, 0.5)

# a plan's record per analysis bin: tones in shot-pair units, channel loss eta
_BIN = np.dtype([(name, float) for name in (
    "frequency_hz", "squeezing_r", "am_amplitude", "pm_amplitude", "loss_eta")])


@dataclass(frozen=True)
class SidebandPlan:
    """The analysis bins as one read-only record array of dtype _BIN, from such
    an array or from (f, r, am, pm, eta) tuples; each column is checked once."""

    bins: np.recarray

    def __post_init__(self):
        empty = isinstance(self.bins, tuple) and not self.bins  # numpy reads () as one record
        bins = np.array([] if empty else self.bins, dtype=_BIN).view(np.recarray)
        if bins.ndim != 1 or not bins.size:
            raise ValueError("plan needs at least one bin, as a 1-D sequence")
        for name in _BIN.names:
            bad = bins[name][~np.isfinite(bins[name])]
            if bad.size:
                raise ValueError(f"{name} must be finite, got {bad[0]}")
        bad = bins.loss_eta[(bins.loss_eta < 0.0) | (bins.loss_eta > 1.0)]
        if bad.size:
            raise ValueError(f"loss_eta must be in [0, 1], got {bad[0]}")
        if bins.frequency_hz[0] <= 0 or (np.diff(bins.frequency_hz) <= 0).any():
            raise ValueError("bin frequencies must be positive and strictly increasing")
        bins.flags.writeable = False
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


@dataclass(frozen=True)
class SpectrumConfig:
    """A two-tone spectrum run (see run_spectrum and encode for n_samples and
    mirror_transmittance) on the band from f_lo_hz > 0 to f_hi_hz.  Its
    `plan`, two_tone_plan(self), is built once, on construction."""

    n_bins: int = param(33, "sideband bins across the analysis band", ge=2, le=MAX_BINS)
    f_lo_hz: float = param(0.8e6, "low edge of the band", gt=0.0)
    f_hi_hz: float = param(1.6e6, "high edge of the band")
    squeezing_r: float = param(DEFAULT_R, "squeezing parameter of the EPR source",
                               ge=-MAX_SQUEEZING_R, le=MAX_SQUEEZING_R)
    am_frequency_hz: float = param(AM_FREQUENCY_HZ, "AM tone frequency")
    pm_frequency_hz: float = param(PM_FREQUENCY_HZ, "PM tone frequency")
    amplitude: float = param(DEFAULT_TONE_AMPLITUDE, "tone displacement amplitude",
                             ge=-MAX_TONE_AMPLITUDE, le=MAX_TONE_AMPLITUDE)
    loss_eta: float = param(1.0, "transmission of the encoded beam", ge=0.0, le=1.0)
    n_samples: int = param(0, "homodyne samples per bin; 0 = analytic, else >= 2")
    mirror_transmittance: float = param(
        0.0, "encoding mirror transmittance; 0 = ideal displacement", ge=0.0, lt=1.0)

    def __post_init__(self):
        check(self)
        if not (self.n_samples == 0 or 2 <= self.n_samples <= sys.float_info.max):
            raise ValueError("n_samples: must be 0, or >= 2 and a finite float")
        if self.f_hi_hz <= self.f_lo_hz:
            raise ValueError(f"f_hi_hz: must exceed f_lo_hz {self.f_lo_hz!r}, got {self.f_hi_hz!r}")
        object.__setattr__(self, "plan", two_tone_plan(self))


@dataclass(frozen=True)
class SweepConfig:
    """A phase-sweep run: shot, EPR and squeezed traces at n_phases LO angles."""

    squeezing_r: float = param(DEFAULT_R, "squeezing parameter", ge=-MAX_SQUEEZING_R,
                               le=MAX_SQUEEZING_R)
    n_phases: int = param(64, "LO angles spread over [0, pi)", ge=1, le=MAX_BINS)

    __post_init__ = check


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
    out = _BALANCED.apply(state)
    return (gaussian.homodyne(out, 1, 0.0, n_samples=n_samples, rng=gen),
            gaussian.homodyne(out, 0, math.pi / 2, n_samples=n_samples, rng=gen))


def _squeezed_inputs(r):
    """Diagonal covariance (x1, p1, x2, p2) of the x- and p-squeezed vacua at each
    r: 0.5 diag(e^{-2r}, e^{2r}, e^{2r}, e^{-2r}), one row per r."""
    r = np.asarray(r, dtype=float)
    if np.abs(r).max() > MAX_SQUEEZING_R:
        raise ValueError(f"|r| > {MAX_SQUEEZING_R} is not supported (got {np.abs(r).max()})")
    return VACUUM_VAR * np.exp(np.multiply.outer(r, [-2.0, 2.0, 2.0, -2.0]))


def run_spectrum(plan, n_samples=0, seed=None, mirror_transmittance=0.0):
    """Shot / single-EPR-beam / Bell-output spectra over the plan's bins.

    Each bin is an independent mode pair: EPR pair, encode the bin's tones,
    channel loss on the encoded beam, Bell measurement, composed into X = B L E B
    with B the splitter, E the mirror (sqrt(1-T), added noise T/2) and L the loss
    (sqrt(eta), (1-eta)/2).  All bins at once, a Bell quadrature u reads variance
    sum_k (u^T X)_k^2 D_k plus the noise on mode 0 carried through B, and mean
    sqrt(eta) (am u_0 + pm u_1); the EPR trace is one beam, sum_k B_qk^2 D_k, and
    the shot trace the vacuum (0 dB).  With n_samples = n >= 2 each power comes
    from the sample mean and ddof=1 variance of n homodyne samples per bin and
    receiver.  Those are drawn from their exact joint law, so the cost does not
    depend on n: for n iid N(mu, var) samples the mean is mu + sqrt(var/n) Z and
    the variance var X/(n-1), with Z ~ N(0, 1) and X ~ chi^2(n-1) independent.
    One generator seeded with `seed` draws every Z, then every X, each in
    (receiver, bin, x/p) order.
    """
    if n_samples < 0 or n_samples == 1:
        raise ValueError(f"n_samples must be 0 or >= 2, got {n_samples}")
    if not 0.0 <= mirror_transmittance < 1.0:
        raise ValueError(f"mirror_transmittance must be in [0, 1), got {mirror_transmittance}")
    bins, b = plan.bins, _BALANCED.matrix
    inputs, eta = _squeezed_inputs(bins.squeezing_r), np.array(bins.loss_eta)
    rows = b[[2, 1]]  # x of mode 1 and p of mode 0, after the receiver's splitter
    # X = B B + (sqrt(k) - 1) B P B, k = eta (1 - T), P mode 0's projector: with
    # sqrt(k) - 1 = -(1 - k) / (1 + sqrt(k)), and B B from rounded products (a fused
    # multiply-add leaves 4e-17 at its zeros), no entry cancels when k is near 1
    lost = (1.0 - eta) + eta * mirror_transmittance  # 1 - k
    shrink = -lost / (1.0 + np.sqrt(eta * (1.0 - mirror_transmittance)))  # sqrt(k) - 1
    x_rows = (rows[..., None] * b).sum(1) + np.multiply.outer(shrink, rows[:, :2] @ b[:2])
    shape = (3, eta.size, 2)  # (receiver, bin, x/p)
    mean, var = np.zeros(shape), np.full(shape, VACUUM_VAR)  # the shot receiver reads vacuum
    var[1] = inputs @ (b[:2] ** 2).T
    var[2] = ((x_rows ** 2 * inputs[:, None]).sum(2)
              + np.outer(lost * VACUUM_VAR, (rows[:, :2] ** 2).sum(1)))  # B carries mode 0's noise
    tones = np.column_stack([bins.am_amplitude, bins.pm_amplitude])
    mean[2] = np.sqrt(eta)[:, None] * (tones @ rows[:, :2].T)
    if n_samples:
        n, gen = int(n_samples), np.random.default_rng(seed)
        normal, chi2 = gen.standard_normal(shape), gen.chisquare(n - 1, shape)  # Z, then X
        mean += np.sqrt(var / n) * normal
        var *= chi2 / (n - 1)
    power = gaussian.noise_power_db((var + mean * mean).transpose(0, 2, 1))  # (receiver, x/p, bin)
    freq = np.array(bins.frequency_hz)
    return {label: NoiseSpectrum(label, freq, *power[t])
            for t, label in enumerate(("shot", "epr", "bell"))}


def two_tone_plan(config):
    """A SpectrumConfig's plan: each tone snaps to the nearest bin of the
    linspace grid, two tones in one bin are refused, and the columns are
    filled as arrays, each tone's amplitude in its one bin."""
    freqs = np.linspace(config.f_lo_hz, config.f_hi_hz, config.n_bins)
    if not (np.diff(freqs) > 0).all():  # a band too narrow for n_bins doubles
        raise ValueError(f"f_lo_hz, f_hi_hz: {config.n_bins} bins from {config.f_lo_hz!r} to "
                         f"{config.f_hi_hz!r} Hz are not distinct doubles")
    i_am, i_pm = (int(np.argmin(np.abs(freqs - f)))
                  for f in (config.am_frequency_hz, config.pm_frequency_hz))
    if i_am == i_pm:
        raise ValueError(f"am_frequency_hz, pm_frequency_hz: both tones snap to bin {i_am}")
    bins = np.zeros(config.n_bins, _BIN)
    bins["frequency_hz"], bins["squeezing_r"], bins["loss_eta"] = (
        freqs, config.squeezing_r, config.loss_eta)
    bins["am_amplitude"][i_am] = bins["pm_amplitude"][i_pm] = config.amplitude
    return SidebandPlan(bins)


def phase_sweep(lo_phases, r=DEFAULT_R):
    """Noise power vs LO angle of the vacuum, one EPR beam and one squeezed beam, as
    PhaseSweepTraces keyed "shot", "epr" and "squeezed", all from one pass.

    At angle theta, u = (cos, sin) reads sum_k (u^T rows)_k^2 D_k: rows = I_2 on
    the vacuum (flat at 0 dB) and on the x-squeezed input (between -/+ the
    squeezing dB), and beam 0's splitter rows on both inputs (10*log10 cosh 2r)."""
    lo_phases = np.asarray(lo_phases, dtype=float)
    inputs = _squeezed_inputs(r)
    u = np.column_stack([np.cos(lo_phases), np.sin(lo_phases)])
    epr, uu = u @ _BALANCED.matrix[:2], u * u
    power = gaussian.noise_power_db([uu @ np.full(2, VACUUM_VAR), (epr * epr) @ inputs,
                                     uu @ inputs[:2]])
    return {label: PhaseSweepTrace(label, lo_phases, power[t])
            for t, label in enumerate(("shot", "epr", "squeezed"))}


# ---------------------------------------------------------------------------
# file output


def write_spectra(spectra, out):
    """spectra.csv, one row per bin (frequency, then x/p power columns per
    trace), and spectra.json, one entry per trace, into directory `out`.  The
    traces share the first one's frequency axis, formatted once."""
    freq = artifacts.numbers(next(iter(spectra.values())).frequency_hz)
    traces = [{"label": s.label, "frequency_hz": freq,
               "x_power_db": artifacts.numbers(s.x_power_db),
               "p_power_db": artifacts.numbers(s.p_power_db)} for s in spectra.values()]
    header = ["frequency_hz"] + [f"{lab}_{q}_db" for lab in spectra for q in "xp"]
    columns = [freq] + [t[f"{q}_power_db"] for t in traces for q in "xp"]
    artifacts.write_csv(out / "spectra.csv", header, columns)
    artifacts.write_json(out / "spectra.json", {"traces": traces})


def write_phase_sweep(traces, out):
    """phase_sweep.csv, one row per LO angle, and phase_sweep.json, one entry
    per trace, into directory `out`.  The traces share the first one's LO
    angles, formatted once."""
    angles = artifacts.numbers(next(iter(traces.values())).lo_phase_rad)
    entries = [{"label": t.label, "lo_phase_rad": angles, "power_db": artifacts.numbers(t.power_db)}
               for t in traces.values()]
    artifacts.write_csv(out / "phase_sweep.csv",
                        ["phase_rad"] + [f"{t['label']}_db" for t in entries],
                        [angles] + [t["power_db"] for t in entries])
    artifacts.write_json(out / "phase_sweep.json", {"traces": entries})
