"""Monte Carlo signal chain for a charge-integration photon detector.

Models the pulse path photon -> photoelectron -> avalanche gain -> integrated
charge -> readout.  Per pulse: photons come from the source, some of them are
detected with the quantum efficiency, dark electrons accumulate over the
integration window, the sum is multiplied by the gain and Gaussian readout
noise is added.  For a Poisson (LED) source the detected and the lost photons
are independent Poisson counts of means eta * mu and (1 - eta) * mu, so both
are drawn directly, like the dark electrons; an explicit photon-number
distribution is thinned binomially.  All charges are in electrons; the
amplifier voltage chain is out of scope.

Defaults follow the detector operating point this models: eta 0.6 (indirectly
determined from a 69% room-temperature catalog figure), gain 10 at 90 V bias,
dark rate 1 e/s at 77 K, readout noise 7 e RMS at 20 Hz sampling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .declare import check, param

# Peak detection operating constants, tuned once against simulated histograms
# at the default operating point (2000 pulses): the smoothing kernel suppresses
# Poisson bin ripple without merging adjacent photon-number peaks, and the
# shared height and prominence floor keeps noise shoulders out.
PEAK_SMOOTHING_GAIN_FRACTION = 0.225
PEAK_THRESHOLD_FRACTION = 0.05
DEFAULT_BIN_WIDTH_E = 1.0

# Most bins a histogram may have: the count is the data range over bin_width,
# so a large gain or a tiny width could ask for any amount of memory.  A useful
# histogram has at most hundreds of photon-number peaks at tens of bins each;
# a million bins is far past that and still desk-scale (a scenario's four
# histogram artifacts at that size: about 120 MB, 0.4 GB peak memory).
MAX_HISTOGRAM_BINS = 1_000_000

# Most smoothing work the peak finder may do: kernel radius (one pass over the
# histogram per pair of taps) times bins.  On 2 cores, radius 27,000 over 60,001
# bins (1.62e9) took 2.0-2.4 s and radius 9,000 over 20,001 bins 0.23 s.
MAX_SMOOTHING_WORK = 1e9

# Most pulses a run may simulate: ten times a 1e6-pulse run (records.csv 26 MB).
MAX_PULSES = 10_000_000

# fewest_bins uses the counts (photoelectrons plus dark electrons) below
# _FLOOR_COUNTS that each expect _FLOOR_PULSES pulses or more; a run whose counts
# lie higher is left to the checks after the draw.
_FLOOR_COUNTS, _FLOOR_PULSES = 4096, 20

# Largest Poisson mean a run draws (source_mean, dark electrons per window):
# numpy refuses means above about 9.2e18, and at 1e18 photoelectrons plus dark
# electrons still sum well inside int64.
MAX_POISSON_MEAN = 1e18

# Pulses per block of the Poisson scatter: a block's event cells and counts
# take a few MB at most, whatever n_pulses is.
_SCATTER_BLOCK = 2**16

# Mean from which Poisson counts are drawn one per pulse, not scattered.  The
# per-pulse draw is the only one that serves means up to MAX_POISSON_MEAN (the
# scatter would throw that many events).  And 10 is the measured crossover: the
# scatter's work grows with the mean, gen.poisson's barely (per 1e5 pulses on 2
# cores, numpy 2.4: scatter 4.8 ms against 5.8 ms at mean 8, 6.9 against 6.4 at 12).
_SCATTER_MAX_MEAN = 10.0

# Largest fractional RMS gain noise: an excess noise factor 1 + d^2 of 101, far
# past any avalanche stage (a few); at d ~ 1e154, d^2 overflows.
MAX_GAIN_DISPERSION = 10.0

# Widest histogram bin: keeps the peak finder's kernel variance (0.225 gain / bin_width)^2 normal
MAX_BIN_WIDTH_E = 1e150

# Largest readout noise: a standard normal draw is below 14 in size, so noise plus gain x
# electrons (below 1e175 once the peak kernel fits: gain < 1.2e6 bin_width) stays finite
MAX_READOUT_NOISE_E = 1e300


@dataclass(frozen=True)
class _Detector:
    """The fields both detector kinds take: gain, dark rate and readout noise."""

    gain: float = param(10.0, "mean avalanche gain (e/pe)", ge=1.0)
    dark_rate: float = param(1.0, "dark electrons per second", ge=0.0)
    readout_noise: float = param(7.0, "readout noise, electrons RMS", ge=0.0,
                                 le=MAX_READOUT_NOISE_E)

    def __post_init__(self):
        check(self)  # a run config's fields too


@dataclass(frozen=True)
class CipdConfig(_Detector):
    """Detector operating point.  Charge integrates over one sample period,
    1 / sample_rate.  gain_dispersion d is an optional gain-noise hook, off by
    default: each pulse's gain is drawn as g * Gamma(shape 1/d^2, scale d^2),
    which has mean g and fractional RMS d and is never negative."""

    eta: float = param(0.6, "quantum efficiency", ge=0.0, le=1.0)
    sample_rate: float = param(20.0, "sampling rate, Hz", gt=0.0)
    gain_dispersion: float = param(
        0.0, "fractional RMS gain noise; 0 = deterministic gain", ge=0.0, le=MAX_GAIN_DISPERSION)

    @property
    def dark_per_window(self):
        return self.dark_rate * (1.0 / self.sample_rate)


@dataclass(frozen=True)
class HistogramConfig(CipdConfig):
    """A cipd-histogram run: n_pulses pulses from a Poisson source of mean
    source_mean, or from source_pmf when given, histogrammed at bin_width."""

    source_mean: float = param(2.0, "Poisson mean photons per pulse", ge=0.0, le=MAX_POISSON_MEAN)
    source_pmf: tuple = param(None, "explicit photon-number pmf; overrides source_mean")
    n_pulses: int = param(2000, "number of light pulses", ge=1, le=MAX_PULSES)
    bin_width: float = param(DEFAULT_BIN_WIDTH_E, "histogram bin width, electrons", gt=0.0,
                             le=MAX_BIN_WIDTH_E)

    def __post_init__(self):
        super().__post_init__()
        pmf = self.source_pmf
        if pmf is not None and (min(pmf) < 0 or not math.isclose(np.sum(pmf), 1, abs_tol=1e-9)):
            raise ValueError(f"source_pmf: must be a pmf, got {pmf}")


@dataclass(frozen=True)
class ResolutionConfig(_Detector):
    """A cipd-resolution run: the readout noise that reaches target_snr, and the dark
    electrons over drift_duration_s, checked against drift_budget_e if given."""

    target_snr: float = param(4.0, "resolution target for required_noise", gt=0.0)
    drift_duration_s: float = param(1.0, "duration for the dark-drift estimate", ge=0.0)
    drift_budget_e: float = param(None, "dark-drift budget, electrons", ge=0.0)


class PulseRecords:
    """Column store of simulated pulses: one equal-length array per field."""

    def __init__(self, true_photons, photoelectrons, dark_electrons, output_charge):
        self.true_photons = np.asarray(true_photons, dtype=int)
        self.photoelectrons = np.asarray(photoelectrons, dtype=int)
        self.dark_electrons = np.asarray(dark_electrons, dtype=int)
        self.output_charge = np.asarray(output_charge, dtype=float)
        n = len(self.output_charge)
        if not (len(self.true_photons) == len(self.photoelectrons) == len(self.dark_electrons) == n):
            raise ValueError("column lengths differ")
        if np.any(self.photoelectrons > self.true_photons):
            raise ValueError("photoelectrons exceed true photons")
        if not np.all(np.isfinite(self.output_charge)):
            raise ValueError("non-finite output charge")

    def __len__(self):
        return len(self.output_charge)


@dataclass(frozen=True)
class Histogram:
    """Charge histogram with edges centered so that multiples of the bin
    width fall mid-bin, never on an edge (clusters at integer charges would
    otherwise straddle two bins)."""

    bin_edges: np.ndarray
    counts: np.ndarray
    n_events: int

    def __post_init__(self):
        if np.any(np.diff(self.bin_edges) <= 0):
            raise ValueError("bin edges must increase")
        if int(self.counts.sum()) != self.n_events:
            raise ValueError("counts do not sum to n_events")

    @property
    def centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def probability(self):
        return self.counts / self.n_events

    def scaled(self, factor):
        """Same counts on a rescaled axis (e.g. 1/gain for the
        input-referred photoelectron view)."""
        return Histogram(self.bin_edges * factor, self.counts, self.n_events)


def _poisson_counts(gen, lam, n):
    """n iid Poisson(lam) counts (int64).  Below _SCATTER_MAX_MEAN, each block
    of m pulses gets Poisson(lam * m) events thrown uniformly into its m cells,
    which gives the same law (Poissonization) at a cost per event, not per pulse."""
    if lam >= _SCATTER_MAX_MEAN:
        return gen.poisson(lam, size=n)
    counts = np.empty(n, dtype=np.int64)
    for start in range(0, n, _SCATTER_BLOCK):
        m = min(_SCATTER_BLOCK, n - start)
        cells = gen.integers(0, m, size=gen.poisson(lam * m))
        counts[start:start + m] = np.bincount(cells, minlength=m)
    return counts


def simulate_pulses(config, rng=None):
    """Run the pulse chain for a HistogramConfig: config.n_pulses pulses from a
    Poisson source of mean config.source_mean (LED light), or from
    config.source_pmf, a photon-number pmf indexed from 0 (e.g. [0, 1] for a
    deterministic one-photon source), when it is given.

    For a Poisson mean mu the photoelectrons are Poisson(eta * mu) and the
    lost photons an independent Poisson((1 - eta) * mu); photons are their
    sum.  A pmf source's photons are thinned binomially by eta.  The dark
    electrons are Poisson(dark_per_window) for both kinds."""
    if not config.dark_per_window <= MAX_POISSON_MEAN:  # also 0 e/s over an infinite window
        raise ValueError(f"dark_rate, sample_rate: {config.dark_rate!r} e/s over "
                         f"1/{config.sample_rate!r} s exceeds {MAX_POISSON_MEAN!r} electrons")
    gen, n_pulses = np.random.default_rng(rng), config.n_pulses
    if config.source_pmf is None:
        mu = config.source_mean
        pe = _poisson_counts(gen, config.eta * mu, n_pulses)
        photons = pe + _poisson_counts(gen, (1.0 - config.eta) * mu, n_pulses)
    else:
        pmf = np.asarray(config.source_pmf, dtype=float)
        photons = gen.choice(len(pmf), size=n_pulses, p=pmf / pmf.sum())
        pe = gen.binomial(photons, config.eta)
    dark = _poisson_counts(gen, config.dark_per_window, n_pulses)
    gain = config.gain
    if config.gain_dispersion > 0.0:
        # below 1e-150 the spread is invisible in doubles but 1/d^2 would overflow
        d2 = max(config.gain_dispersion, 1e-150) ** 2
        gain = config.gain * gen.gamma(1.0 / d2, d2, size=n_pulses)
    charge = gain * (pe + dark)
    if config.readout_noise > 0.0:
        charge = charge + config.readout_noise * gen.standard_normal(n_pulses)
    return PulseRecords(photons, pe, dark, np.asarray(charge, dtype=float))


def analytic_moments(config, source_mean):
    """Mean and variance of the output charge for a Poisson source.

    pe + dark is Poisson with rate lam = eta * mu + dark_rate * window, so
    mean = g * lam and var = g^2 * lam + readout^2, plus the gain-dispersion
    term g^2 * d^2 * E[(pe+dark)^2] when the hook is on.  A moment past the
    float range is inf.
    """
    lam = config.eta * source_mean + config.dark_per_window
    mean = config.gain * lam
    try:
        var = config.gain**2 * lam + config.readout_noise**2
        if config.gain_dispersion > 0.0:
            var += config.gain**2 * config.gain_dispersion**2 * (lam + lam**2)
    except OverflowError:  # a float's ** raises where * gives inf
        var = math.inf
    return mean, var


def histogram(records, bin_width=DEFAULT_BIN_WIDTH_E):
    """Bin output charges with edges offset half a width off the origin."""
    charges = (records.output_charge if isinstance(records, PulseRecords)
               else np.asarray(records, dtype=float))
    if charges.size == 0:
        raise ValueError("no records to histogram")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    lo, hi = np.floor(np.array([charges.min(), charges.max()]) / bin_width + 0.5)
    # hi - lo + 1 bins; `not <` also refuses an overflow to inf and a NaN width
    if not hi - lo < MAX_HISTOGRAM_BINS:
        raise ValueError(f"bin_width: {bin_width!r} splits the charge range into more "
                         f"than MAX_HISTOGRAM_BINS = {MAX_HISTOGRAM_BINS} bins")
    edges = (np.arange(hi - lo + 2) + (lo - 0.5)) * bin_width
    if not (np.diff(edges) > 0).all():  # charges too far out, or bins too fine, for doubles
        raise ValueError(f"bin_width: edges {bin_width!r} apart are not distinct doubles")
    counts, _ = np.histogram(charges, bins=edges)
    return Histogram(edges, counts, int(charges.size))


def _gaussian_smooth(y, sigma):
    """Gaussian smoothing with the kernel (radius 4 sigma), reflect edges and
    summation order of scipy's gaussian_filter1d, so the result is
    bit-identical to it."""
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = w / w.sum()
    n = len(y)
    padded = np.pad(y, r, mode="symmetric")
    out = y * w[r]
    pair = np.empty(n)  # one buffer for every tap: same operations, no temporaries
    for j in range(r, 0, -1):
        np.add(padded[r - j:r - j + n], padded[r + j:r + j + n], out=pair)
        pair *= w[r + j]
        out += pair
    return out


def _find_peaks(s, floor, distance):
    """Indices that scipy's find_peaks(s, height=floor, prominence=floor,
    distance=distance) returns, found by the same rules in the same order."""
    # a local maximum is a run of equal samples above both neighbouring runs;
    # a run at either end of s has only one neighbour and is never a peak
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:] - 1, len(s) - 1]
    top = s[starts]
    k = np.flatnonzero((top[1:-1] > top[:-2]) & (top[1:-1] > top[2:])) + 1
    peaks = (starts[k] + ends[k]) // 2
    peaks = peaks[s[peaks] >= floor]
    # highest first (scipy's non-stable argsort breaks ties), each kept peak
    # drops every other peak closer than distance
    keep = np.ones(len(peaks), dtype=bool)
    lo = np.searchsorted(peaks, peaks - distance, side="right")
    hi = np.searchsorted(peaks, peaks + distance)
    for j in np.argsort(s[peaks])[::-1]:
        if keep[j]:
            keep[lo[j]:hi[j]] = False
            keep[j] = True
    peaks = peaks[keep]
    # prominence: height over the higher of the two side minima, each taken
    # out to the nearest strictly higher sample or the end of s
    prominence = np.empty(len(peaks))
    for i, p in enumerate(peaks):
        bases = []
        for side in (s[p::-1], s[p:]):
            higher = np.flatnonzero(side > s[p])
            bases.append(side[:higher[0] if higher.size else None].min())
        prominence[i] = s[p] - max(bases)
    return peaks[prominence >= floor]


def peak_kernel_sigma(gain, bin_width, bins):
    """The peak finder's smoothing width, in bins, over a histogram of `bins` bins.
    A kernel radius of MAX_HISTOGRAM_BINS bins or more, or a radius times bins past
    MAX_SMOOTHING_WORK, is refused."""
    sigma = PEAK_SMOOTHING_GAIN_FRACTION * gain / bin_width
    if not 4.0 * sigma < MAX_HISTOGRAM_BINS:  # the kernel's radius, in bins; also inf
        raise ValueError("gain, bin_width: the peak kernel is wider than MAX_HISTOGRAM_BINS")
    radius = int(4.0 * sigma + 0.5)  # _gaussian_smooth's radius
    if radius * bins > MAX_SMOOTHING_WORK:
        raise ValueError(f"gain, bin_width: a peak kernel of radius {radius} over {bins} bins "
                         f"is more smoothing than MAX_SMOOTHING_WORK = {MAX_SMOOTHING_WORK:g}")
    return sigma


def _poisson_pmf(lam):
    """Poisson(lam) at 0 .. _FLOOR_COUNTS - 1: 0 where it underflows, NaN past 0 for lam = inf."""
    with np.errstate(divide="ignore", invalid="ignore"):  # lam = 0 or inf
        return np.exp(np.r_[0.0, np.cumsum(np.log(lam / np.arange(1, _FLOOR_COUNTS)))] - lam)


def fewest_bins(config):
    """A floor on the charge histogram's bin count, read from a HistogramConfig
    before any pulse is drawn.  Of the counts that fewest_bins uses, take the
    lowest k1 and the highest k2.  A draw lies more than z = sqrt(19) standard
    deviations to one side of its mean with probability at most 1/20
    (Cantelli), so, each except with probability below e^-18, some pulse of
    count k2 has a charge of at least g (1 - z d) k2 - z s, and some pulse of
    count k1 at most g (1 + z d) k1 + z s (gain g, gain dispersion d, readout
    noise s).  The bins span their difference over bin_width: the floor exceeds
    the drawn bins with probability below 1e-7.  It is capped at MAX_HISTOGRAM_BINS."""
    if config.source_pmf is None:
        p = _poisson_pmf(config.eta * config.source_mean + config.dark_per_window)
    else:  # thin the photon pmf (photons below _FLOOR_COUNTS) by Horner's rule in eta
        photons = config.source_pmf[:_FLOOR_COUNTS]
        pe = np.zeros(len(photons))
        for q in reversed(photons):
            pe[1:] = (1.0 - config.eta) * pe[1:] + config.eta * pe[:-1]
            pe[0] = (1.0 - config.eta) * pe[0] + q
        p = np.convolve(pe, _poisson_pmf(config.dark_per_window))
    k = np.flatnonzero(config.n_pulses * p[:_FLOOR_COUNTS] >= _FLOOR_PULSES)
    if k.size == 0:
        return 0
    z, d = math.sqrt(19.0), config.gain_dispersion
    spread = (config.gain * (max(1.0 - z * d, 0.0) * int(k[-1]) - (1.0 + z * d) * int(k[0]))
              - 2.0 * z * config.readout_noise)
    return int(min(max(spread / config.bin_width, 0.0), MAX_HISTOGRAM_BINS))


def detect_peaks(hist, gain):
    """Charge positions of resolved photon-number peaks.

    The probability histogram is smoothed with a Gaussian kernel of width
    PEAK_SMOOTHING_GAIN_FRACTION * gain, then peaks must clear both a height
    and a prominence floor of PEAK_THRESHOLD_FRACTION of the smoothed mode
    and sit at least half a gain apart.  The filters run in that order:
    height, then distance, then prominence.  The distance filter keeps the
    highest peak first; equal heights are taken in np.argsort's order.  The
    smoothing and the peak rules reproduce scipy's gaussian_filter1d and
    find_peaks bit for bit, without importing scipy.  A kernel radius of
    MAX_HISTOGRAM_BINS bins or more, or a radius times bins past
    MAX_SMOOTHING_WORK, is refused.
    """
    width = float(hist.bin_edges[1] - hist.bin_edges[0])
    sigma = peak_kernel_sigma(gain, width, len(hist.counts))
    smooth = _gaussian_smooth(hist.probability, sigma)
    floor = PEAK_THRESHOLD_FRACTION * smooth.max()
    distance = max(1, int(round(0.5 * gain / width)))
    return hist.centers[_find_peaks(smooth, floor, distance)]


def resolution_metric(config):
    """Charge separation of adjacent photon numbers over RMS readout noise."""
    if config.readout_noise == 0.0:
        warnings.warn("infinite resolution: readout noise is zero", RuntimeWarning)
        return math.inf
    return config.gain / config.readout_noise


def required_noise(config, target_snr):
    """Readout noise (e RMS) needed to reach a target resolution."""
    if target_snr <= 0:
        raise ValueError("target_snr must be positive")
    if config.gain / target_snr == math.inf:
        raise ValueError(f"gain, target_snr: {config.gain!r} / {target_snr!r} overflows")
    return config.gain / target_snr


def write_records_csv(records, path):
    fields = ["true_photons", "photoelectrons", "dark_electrons", "output_charge"]
    artifacts.write_csv(path, fields, [getattr(records, f) for f in fields])


def write_histogram(hist, out, stem, label):
    """<stem>.csv, one row per bin (left and right edge, count, probability),
    and <stem>.json (label, n_events and the three arrays) into directory `out`."""
    edges, counts, probability = map(artifacts.numbers, (hist.bin_edges, hist.counts,
                                                         hist.probability))
    artifacts.write_csv(out / f"{stem}.csv", ["bin_left", "bin_right", "count", "probability"],
                        [artifacts.Numbers(edges[:-1]), artifacts.Numbers(edges[1:]),
                         counts, probability])
    artifacts.write_json(out / f"{stem}.json", {
        "label": label,
        "n_events": int(hist.n_events),
        "bin_edges": edges,
        "counts": counts,
        "probability": probability,
    })
