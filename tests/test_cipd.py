"""Tests for the charge-integration detector signal chain."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.ndimage import gaussian_filter1d
from scipy.signal import find_peaks

from cvsim import cipd


def test_config_defaults_and_validation():
    cfg = cipd.CipdConfig()
    assert cfg.eta == 0.6
    assert cfg.gain == 10.0
    assert cfg.dark_rate == 1.0
    assert cfg.readout_noise == 7.0
    assert cfg.dark_per_window == pytest.approx(0.05)  # over one 1/sample_rate window
    assert cipd.CipdConfig(sample_rate=5.0).dark_per_window == 0.2
    for bad in (dict(eta=1.2), dict(eta=-0.1), dict(gain=0.5), dict(dark_rate=-1),
                dict(readout_noise=-1), dict(sample_rate=0), dict(gain_dispersion=-0.1),
                dict(gain=math.nan), dict(readout_noise=math.inf), dict(sample_rate=math.nan)):
        with pytest.raises(ValueError):
            cipd.CipdConfig(**bad)


def test_unit_chain_is_exact():
    # eta=1, gain=1, no dark, no noise, deterministic single photon source
    cfg = cipd.HistogramConfig(eta=1.0, gain=1.0, dark_rate=0.0, readout_noise=0.0,
                               source_pmf=[0.0, 1.0], n_pulses=500)
    rec = cipd.simulate_pulses(cfg, rng=2)
    assert np.all(rec.true_photons == 1)
    assert np.all(rec.photoelectrons == 1)
    assert np.all(rec.dark_electrons == 0)
    assert np.all(rec.output_charge == 1.0)


@pytest.mark.parametrize("mu", [0.5, 2.0])
def test_charge_moments_match_analytics(mu):
    cfg = cipd.CipdConfig()
    n = 100_000
    rec = cipd.simulate_pulses(cipd.HistogramConfig(source_mean=mu, n_pulses=n), rng=7)
    mean, var = cipd.analytic_moments(cfg, mu)
    lam = cfg.eta * mu + cfg.dark_per_window
    se_mean = math.sqrt(var / n)
    # Var(s^2) ~ (kappa4 + 2 sigma^4)/n with kappa4 = g^4 lam + 4 g^2 lam r^2
    # contributions folded in through the cumulant of the scaled Poisson
    kappa4 = cfg.gain**4 * lam
    se_var = math.sqrt((kappa4 + 2 * var**2) / n)
    assert rec.output_charge.mean() == pytest.approx(mean, abs=4 * se_mean)
    assert rec.output_charge.var() == pytest.approx(var, abs=4 * se_var)


def test_mean_monotone_in_eta_resolution_monotone_in_noise():
    etas = np.linspace(0.0, 1.0, 11)
    means = [cipd.analytic_moments(cipd.CipdConfig(eta=e), 2.0)[0] for e in etas]
    assert np.all(np.diff(means) >= 0)
    noises = np.linspace(0.5, 20.0, 40)
    res = [cipd.resolution_metric(cipd.CipdConfig(readout_noise=s)) for s in noises]
    assert np.all(np.diff(res) <= 0)
    # and the same ordering shows up in matched-seed simulations
    lo = cipd.simulate_pulses(cipd.HistogramConfig(eta=0.3, n_pulses=50_000), rng=11)
    hi = cipd.simulate_pulses(cipd.HistogramConfig(eta=0.9, n_pulses=50_000), rng=11)
    assert hi.output_charge.mean() > lo.output_charge.mean()


def test_binomial_thinning_composes_to_poisson():
    # the photoelectron marginal: Poisson(mu) photons thinned by eta must be
    # indistinguishable from a direct Poisson(eta*mu) draw, by a one-sample
    # chi-square against the pmf
    mu, n = 2.0, 100_000
    cfg = cipd.HistogramConfig(dark_rate=0.0, readout_noise=0.0, source_mean=mu, n_pulses=n)
    rec = cipd.simulate_pulses(cfg, rng=12345)
    pe = rec.photoelectrons
    kmax = pe.max()
    observed = np.bincount(pe, minlength=kmax + 1).astype(float)
    expected = stats.poisson.pmf(np.arange(kmax + 1), cfg.eta * mu) * n
    expected[-1] += stats.poisson.sf(kmax, cfg.eta * mu) * n
    # pool the sparse tail so every expected count is at least 5
    while expected[-1] < 5 and len(expected) > 2:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    p = stats.chi2.sf(chi2, df=len(expected) - 1)
    assert p > 0.01


def _chi2_p(samples, dist):
    """p-value of a one-sample chi-square of integer samples against a scipy
    discrete distribution, the tail pooled so every expected count is >= 5."""
    kmax = int(samples.max())
    observed = np.bincount(samples, minlength=kmax + 1).astype(float)
    expected = dist.pmf(np.arange(kmax + 1)) * len(samples)
    expected[-1] += dist.sf(kmax) * len(samples)
    while expected[-1] < 5 and len(expected) > 2:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    return stats.chi2.sf(chi2, df=len(expected) - 1)


def test_poisson_source_counts_have_the_thinned_joint_law():
    # photons ~ Poisson(mu), pe | photons = k ~ Binomial(k, eta), and dark
    # electrons ~ Poisson(dark_per_window) at a window mean with a tail
    mu, n = 2.5, 400_000
    cfg = cipd.HistogramConfig(dark_rate=40.0, readout_noise=0.0, source_mean=mu, n_pulses=n)
    rec = cipd.simulate_pulses(cfg, rng=8675309)
    assert _chi2_p(rec.true_photons, stats.poisson(mu)) > 0.01
    for k in range(1, 5):
        pe = rec.photoelectrons[rec.true_photons == k]
        assert _chi2_p(pe, stats.binom(k, cfg.eta)) > 0.01, k
    assert cfg.dark_per_window == 2.0
    assert _chi2_p(rec.dark_electrons, stats.poisson(cfg.dark_per_window)) > 0.01


def test_poisson_counts_shape_and_edge_cases():
    gen = np.random.default_rng(17)
    assert not cipd._poisson_counts(gen, 0.0, 3 * 65536 + 1).any()
    for n in (1, 65535, 65536, 65537, 3 * 65536 + 1):
        counts = cipd._poisson_counts(gen, 2.5, n)
        assert counts.shape == (n,) and counts.dtype == np.int64 and counts.min() >= 0
    # every cell of a block, the last one included, has mean lam
    small = np.array([cipd._poisson_counts(gen, 2.0, 3) for _ in range(20_000)])
    assert np.all(np.abs(small.mean(axis=0) - 2.0) <= 5 * math.sqrt(2.0 / 20_000))
    same =[cipd._poisson_counts(np.random.default_rng(5), 1.5, 70_000) for _ in range(2)]
    np.testing.assert_array_equal(*same)


@pytest.mark.parametrize("lam", [9.999, 10.0, 50.0])
def test_poisson_counts_mean_on_both_sides_of_the_switch(lam):
    n = 200_000
    counts = cipd._poisson_counts(np.random.default_rng(23), lam, n)
    assert abs(counts.mean() - lam) <= 5 * math.sqrt(lam / n)


def test_poisson_source_draws_no_per_pulse_count_below_the_switch():
    class Spy(np.random.Generator):
        def binomial(self, *args, **kwargs):
            raise AssertionError("a Poisson source draws no binomial")

        def poisson(self, lam, size=None):
            assert size is None or lam >= cipd._SCATTER_MAX_MEAN, (lam, size)
            return super().poisson(lam, size)

    for mu in (0.0, 2.5, 30.0):
        cipd.simulate_pulses(cipd.HistogramConfig(source_mean=mu, n_pulses=70_000),
                             rng=Spy(np.random.PCG64(1)))


def test_largest_source_mean_keeps_the_chain_finite():
    config = cipd.HistogramConfig(source_mean=cipd.MAX_POISSON_MEAN, n_pulses=3)
    rec = cipd.simulate_pulses(config, rng=4)
    assert np.all(rec.photoelectrons <= rec.true_photons)
    assert np.all(np.isfinite(rec.output_charge))


# a source: a Poisson mean, or a pmf of up to 8 photon numbers
SOURCES = st.one_of(
    st.floats(0.0, 30.0).map(lambda mu: {"source_mean": mu}),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).filter(lambda w: sum(w) > 0).map(
        lambda w: {"source_pmf": [x / sum(w) for x in w]}))
PULSES = settings(max_examples=80, deadline=None, database=None, derandomize=True)


@PULSES
@given(source=SOURCES, n_pulses=st.integers(1, 300), eta=st.floats(0.0, 1.0),
       gain=st.floats(1.0, 1e3),
       gain_dispersion=st.one_of(st.just(0.0), st.floats(0.0, cipd.MAX_GAIN_DISPERSION)),
       readout_noise=st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
       dark_rate=st.one_of(st.just(0.0), st.floats(0.0, 100.0)), seed=st.integers(0, 2**32 - 1))
def test_pulse_records_hold_for_any_histogram_config(source, seed, **detector):
    config = cipd.HistogramConfig(**source, **detector)
    rec = cipd.simulate_pulses(config, rng=seed)
    assert len(rec) == config.n_pulses
    assert np.all((0 <= rec.photoelectrons) & (rec.photoelectrons <= rec.true_photons))
    assert np.all(rec.dark_electrons >= 0)
    assert np.all(np.isfinite(rec.output_charge))
    again = cipd.simulate_pulses(config, rng=seed)
    for name in ("true_photons", "photoelectrons", "dark_electrons", "output_charge"):
        np.testing.assert_array_equal(getattr(again, name), getattr(rec, name))
    if config.readout_noise == 0.0 and config.gain_dispersion == 0.0:
        expected = config.gain * (rec.photoelectrons + rec.dark_electrons)
        assert rec.output_charge.tobytes() == expected.tobytes()


@PULSES
# Poisson means past the 4096 counts tabulated from 0, and pulses enough that
# counts near such a mean expect 20 pulses (from 1/sqrt(2 pi mean) / 20 pulses)
@given(source=st.one_of(SOURCES, st.floats(4096.0, 3e5).map(lambda mu: {"source_mean": mu})),
       n_pulses=st.one_of(st.integers(20, 3000), st.integers(30_000, 200_000)),
       eta=st.floats(0.0, 1.0), gain=st.floats(1.0, 300.0),
       gain_dispersion=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       readout_noise=st.one_of(st.just(0.0), st.floats(0.0, 30.0)),
       dark_rate=st.one_of(st.just(0.0), st.floats(0.0, 100.0)), bin_width=st.floats(0.05, 4.0),
       seed=st.integers(0, 2**32 - 1))
# a floor of 46,999 bins under the 47,001 drawn
@example(source={"source_pmf": [0.5, 0.0, 0.5]}, n_pulses=200, eta=1.0, gain=23500.0,
         gain_dispersion=0.0, readout_noise=0.1, dark_rate=0.0, bin_width=1.0, seed=5)
# counts 4869 to 5131 qualify
@example(source={"source_mean": 5000.0}, n_pulses=20_000, eta=1.0, gain=3.0,
         gain_dispersion=0.0, readout_noise=0.0, dark_rate=0.0, bin_width=1.0, seed=5)
# a gain dispersion past the 1/sqrt(19) that zeroed a Cantelli margin on the gain
@example(source={"source_mean": 2.0}, n_pulses=3000, eta=0.6, gain=30.0,
         gain_dispersion=0.3, readout_noise=1.0, dark_rate=0.0, bin_width=1.0, seed=5)
# past the largest mean whose counts can expect 20 of cipd.MAX_PULSES pulses
@example(source={"source_mean": 5e10}, n_pulses=3000, eta=1.0, gain=1.0,
         gain_dispersion=0.0, readout_noise=0.0, dark_rate=0.0, bin_width=1.0, seed=5)
def test_fewest_bins_is_a_floor_on_the_drawn_histogram(source, seed, **detector):
    config = cipd.HistogramConfig(**source, **detector)
    rec = cipd.simulate_pulses(config, rng=seed)
    # histogram()'s bin count, which it refuses past MAX_HISTOGRAM_BINS
    lo, hi = np.floor(np.array([rec.output_charge.min(), rec.output_charge.max()])
                      / config.bin_width + 0.5)
    if hi - lo < cipd.MAX_HISTOGRAM_BINS:
        assert len(cipd.histogram(rec, config.bin_width).counts) == hi - lo + 1
    assert cipd.fewest_bins(config) <= hi - lo + 1


def test_noiseless_integer_gain_grid():
    cfg = cipd.HistogramConfig(readout_noise=0.0, dark_rate=0.0, n_pulses=20_000)
    rec = cipd.simulate_pulses(cfg, rng=3)
    assert np.all(rec.output_charge % cfg.gain == 0.0)
    hist = cipd.histogram(rec)
    on_grid = np.isclose(hist.centers % cfg.gain, 0.0) | np.isclose(hist.centers % cfg.gain, cfg.gain)
    assert hist.counts[~on_grid].sum() == 0


def test_histogram_invariants():
    hist = cipd.histogram(np.array([10.0]), bin_width=1.0)
    assert hist.n_events == 1
    assert hist.counts.tolist() == [1]
    # exact multiples of the width land mid-bin, not on an edge
    assert hist.bin_edges[0] == 9.5 and hist.bin_edges[1] == 10.5
    assert hist.centers[0] == 10.0

    charges = np.array([0.0, 0.4, 9.9, 10.1, 20.0])
    hist = cipd.histogram(charges, bin_width=1.0)
    assert hist.counts.sum() == hist.n_events == 5
    assert np.all(np.diff(hist.bin_edges) > 0)
    assert hist.probability.sum() == pytest.approx(1.0)

    with pytest.raises(ValueError):
        cipd.histogram(np.array([]))
    with pytest.raises(ValueError):
        cipd.histogram(charges, bin_width=0.0)


@pytest.mark.parametrize("edges, counts, n_events, needle", [
    ([0.0, 1.0, 1.0], [1, 1], 2, "bin edges must increase"),
    ([0.0, 2.0, 1.0], [1, 1], 2, "bin edges must increase"),
    ([0.0, 1.0, 2.0], [1, 1], 3, "counts do not sum to n_events"),
])
def test_histogram_refuses_a_malformed_one(edges, counts, n_events, needle):
    with pytest.raises(ValueError, match=needle):
        cipd.Histogram(np.array(edges), np.array(counts), n_events)


def test_histogram_bin_cap():
    cap = cipd.MAX_HISTOGRAM_BINS
    assert cipd.histogram(np.array([0.0, cap - 1.0])).counts.size == cap
    # one bin more, and ranges numpy could not allocate at all (1e12 and 1e13
    # bins, an overflow to inf, a NaN width): refused before any allocation
    for charges, width in [([0.0, float(cap)], 1.0), ([0.0, 1e12], 1.0),
                           ([0.0, 1e4], 1e-9), ([0.0, 1.0], 1e-320), ([0.0, 1.0], math.nan)]:
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="bin_width"):
            cipd.histogram(np.array(charges), bin_width=width)


def test_peak_smoothing_work_is_bounded_inclusively(monkeypatch):
    # gain 10 at bin width 1: a kernel of radius 9 over 101 bins, 909 units of work
    hist = cipd.Histogram(np.arange(102) - 0.5, np.ones(101, dtype=np.int64), 101)
    monkeypatch.setattr(cipd, "MAX_SMOOTHING_WORK", 909)
    cipd.detect_peaks(hist, 10.0)
    monkeypatch.setattr(cipd, "MAX_SMOOTHING_WORK", 908)
    with pytest.raises(ValueError, match="^gain, bin_width: a peak kernel of radius 9 over 101 "):
        cipd.detect_peaks(hist, 10.0)


def test_peaks_merge_at_current_noise():
    cfg = cipd.HistogramConfig()
    rec = cipd.simulate_pulses(cfg, rng=0)
    peaks = cipd.detect_peaks(cipd.histogram(rec), cfg.gain)
    assert len(peaks) <= 1


def test_peaks_resolve_at_one_third_noise():
    cfg = cipd.HistogramConfig(readout_noise=7.0 / 3.0)
    rec = cipd.simulate_pulses(cfg, rng=0)
    peaks = cipd.detect_peaks(cipd.histogram(rec), cfg.gain)
    assert len(peaks) >= 3
    # each resolved peak sits on the photon-number charge grid
    offsets = np.abs(peaks / cfg.gain - np.round(peaks / cfg.gain))
    assert np.all(offsets <= 0.25)


# scipy is the test-only reference for the numpy peak detection
ORACLE = settings(max_examples=200, deadline=None, database=None, derandomize=True)


@ORACLE
@given(gain=st.floats(1.0, 40.0),
       readout_noise=st.one_of(st.just(0.0), st.floats(0.0, 15.0)),
       gain_dispersion=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
       bin_width=st.floats(0.05, 8.0), n_pulses=st.integers(1, 3000),
       source_mean=st.floats(0.0, 8.0), seed=st.integers(0, 2**32 - 1))
# one bin under a 72-bin kernel radius
@example(gain=40.0, readout_noise=0.0, gain_dispersion=0.0, bin_width=0.5, n_pulses=1,
         source_mean=0.0, seed=0)
def test_peak_detection_matches_scipy_on_simulated_histograms(
        gain, readout_noise, gain_dispersion, bin_width, n_pulses, source_mean, seed):
    config = cipd.HistogramConfig(gain=gain, readout_noise=readout_noise,
                                  gain_dispersion=gain_dispersion, source_mean=source_mean,
                                  n_pulses=n_pulses)
    hist = cipd.histogram(cipd.simulate_pulses(config, rng=seed), bin_width)
    width = float(hist.bin_edges[1] - hist.bin_edges[0])
    sigma = cipd.PEAK_SMOOTHING_GAIN_FRACTION * gain / width
    smooth = cipd._gaussian_smooth(hist.probability, sigma)
    assert smooth.tobytes() == gaussian_filter1d(hist.probability, sigma).tobytes()
    floor = cipd.PEAK_THRESHOLD_FRACTION * smooth.max()
    distance = max(1, int(round(0.5 * gain / width)))
    expected, _ = find_peaks(smooth, height=floor, prominence=floor, distance=distance)
    np.testing.assert_array_equal(cipd._find_peaks(smooth, floor, distance), expected)
    np.testing.assert_array_equal(cipd.detect_peaks(hist, gain), hist.centers[expected])


@ORACLE
@given(values=st.lists(st.integers(0, 4), min_size=1, max_size=40),
       floor=st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 4.0)),
       distance=st.integers(1, 6), sigma=st.floats(0.05, 25.0))
# two equal heights 2 apart: the argsort order decides which one stays
@example(values=[0, 3, 0, 3, 0, 1, 0, 0, 1, 0], floor=0.0, distance=3, sigma=1.0)
# plateaus of even length, and one at each end
@example(values=[2, 2, 0, 3, 3, 1, 3, 3, 3, 3, 0, 1, 1], floor=1.0, distance=1, sigma=0.3)
def test_peak_rules_match_scipy_on_plateaus_and_ties(values, floor, distance, sigma):
    # small integers give plateaus and equal heights; sigma up to 25 puts the
    # kernel radius (up to 100) past the array's length (at most 40)
    y = np.array(values, dtype=float)
    assert cipd._gaussian_smooth(y, sigma).tobytes() == gaussian_filter1d(y, sigma).tobytes()
    expected, _ = find_peaks(y, height=floor, prominence=floor, distance=distance)
    np.testing.assert_array_equal(cipd._find_peaks(y, floor, distance), expected)


def test_resolution_metric_values():
    assert cipd.resolution_metric(cipd.CipdConfig()) == pytest.approx(1.43, abs=0.005)
    snr = cipd.resolution_metric(cipd.CipdConfig(readout_noise=7.0 / 3.0))
    assert snr == pytest.approx(4.29, abs=0.005)
    assert snr > 4.0
    assert cipd.resolution_metric(cipd.CipdConfig(readout_noise=2.5)) == 4.0
    with pytest.warns(RuntimeWarning):
        assert cipd.resolution_metric(cipd.CipdConfig(readout_noise=0.0)) == math.inf


def test_required_noise_values():
    cfg = cipd.CipdConfig()
    assert cipd.required_noise(cfg, 4.0) == 2.5
    assert cipd.required_noise(cfg, 10.0 / 7.0) == pytest.approx(7.0)
    assert cipd.required_noise(cfg, math.inf) == 0.0
    with pytest.raises(ValueError):
        cipd.required_noise(cfg, 0.0)


def test_seed_determinism():
    cfg = cipd.HistogramConfig(n_pulses=1000)
    a = cipd.simulate_pulses(cfg, rng=5)
    b = cipd.simulate_pulses(cfg, rng=5)
    c = cipd.simulate_pulses(cfg, rng=6)
    np.testing.assert_array_equal(a.output_charge, b.output_charge)
    np.testing.assert_array_equal(a.true_photons, b.true_photons)
    assert not np.array_equal(a.output_charge, c.output_charge)


def test_records_container():
    rec = cipd.simulate_pulses(cipd.HistogramConfig(source_mean=1.0, n_pulses=100), rng=4)
    assert len(rec) == 100
    for column in (rec.true_photons, rec.photoelectrons, rec.dark_electrons):
        assert column.shape == (100,) and column.dtype.kind == "i"
    assert rec.output_charge.shape == (100,) and rec.output_charge.dtype == float
    assert np.all(rec.photoelectrons <= rec.true_photons)
    with pytest.raises(ValueError):
        cipd.PulseRecords([1], [2], [0], [5.0])  # pe > photons
    with pytest.raises(ValueError):
        cipd.PulseRecords([1, 2], [1, 1], [0, 0], [5.0])  # column lengths differ
    with pytest.raises(ValueError):
        cipd.PulseRecords([1], [1], [0], [math.nan])


def test_gain_dispersion_hook():
    base = cipd.CipdConfig()
    noisy = cipd.CipdConfig(gain_dispersion=0.1)
    m0, v0 = cipd.analytic_moments(base, 2.0)
    m1, v1 = cipd.analytic_moments(noisy, 2.0)
    assert m1 == m0
    assert v1 > v0
    n = 200_000
    rec = cipd.simulate_pulses(cipd.HistogramConfig(gain_dispersion=0.1, n_pulses=n), rng=8)
    se = math.sqrt(2 * v1**2 / n) * 2  # loose: dispersion fattens the tails
    assert rec.output_charge.var() == pytest.approx(v1, abs=4 * se)


@pytest.mark.parametrize("dispersion", [0.5, 3.0])
def test_dispersed_gain_never_negative(dispersion):
    # a gain of g(1 + d N(0,1)) goes negative for d of order 1
    cfg = cipd.HistogramConfig(gain_dispersion=dispersion, readout_noise=0.0)
    rec = cipd.simulate_pulses(cfg, rng=5)
    assert rec.output_charge.min() >= 0.0


def test_dispersed_gain_moments():
    cfg = cipd.CipdConfig(gain_dispersion=0.3)
    n = 100_000
    q = cipd.simulate_pulses(cipd.HistogramConfig(gain_dispersion=0.3, n_pulses=n),
                             rng=12).output_charge
    mean, var = cipd.analytic_moments(cfg, 2.0)
    mu4 = np.mean((q - q.mean()) ** 4)
    assert abs(q.mean() - mean) <= 5 * math.sqrt(var / n)
    assert abs(q.var() - var) <= 5 * math.sqrt((mu4 - q.var() ** 2) / n)


def test_writers_deterministic(tmp_path):
    rec = cipd.simulate_pulses(cipd.HistogramConfig(n_pulses=50), rng=9)
    hist = cipd.histogram(rec)
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
    cipd.write_histogram(hist, tmp_path / "a", 10.0)
    cipd.write_histogram(hist, tmp_path / "b", 10.0)
    for name in ("histogram_charge.csv", "histogram_charge.json", "histogram_pe.csv",
                 "histogram_pe.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    p1 = tmp_path / "a" / "histogram_charge.csv"
    header, *rows = p1.read_text().splitlines()
    assert header == "bin_left,bin_right,count,probability"
    left, right = np.array([row.split(",")[:2] for row in rows], dtype=float).T
    np.testing.assert_array_equal(left, hist.bin_edges[:-1])
    np.testing.assert_array_equal(right, hist.bin_edges[1:])

    # spans several write chunks
    many = cipd.simulate_pulses(cipd.HistogramConfig(n_pulses=20_000), rng=9)
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    cipd.write_records_csv(many, r1)
    cipd.write_records_csv(many, r2)
    assert r1.read_bytes() == r2.read_bytes()
    header, *rows = r1.read_text().splitlines()
    assert header == "true_photons,photoelectrons,dark_electrons,output_charge"
    back = list(zip(*(row.split(",") for row in rows)))
    for name, text in zip(header.split(","), back):
        column = getattr(many, name)
        np.testing.assert_array_equal(np.array(text, dtype=column.dtype), column)

    body = (tmp_path / "a" / "histogram_charge.json").read_text()
    assert body.endswith("\n")
    import json
    data = json.loads(body)
    assert data["label"] == "output charge (e)"
    assert data["n_events"] == 50
    assert sum(data["counts"]) == 50


@pytest.mark.parametrize("gain, bin_width", [(10.0, 0.7), (7.3, 0.7), (3e4, 70.0)])
def test_photoelectron_view_shares_the_charge_views_counts(tmp_path, gain, bin_width):
    hist = cipd.histogram(cipd.simulate_pulses(cipd.HistogramConfig(n_pulses=500, gain=gain),
                                               rng=4), bin_width=bin_width)
    cipd.write_histogram(hist, tmp_path, gain)
    charge, pe = ([row.split(",") for row in (tmp_path / f"histogram_{v}.csv").read_text()
                   .splitlines()] for v in ("charge", "pe"))
    assert charge[0] == pe[0] == ["bin_left", "bin_right", "count", "probability"]
    assert [row[2:] for row in pe] == [row[2:] for row in charge]  # the same text, byte for byte
    referred = hist.bin_edges * (1.0 / gain)
    left, right = np.array([row[:2] for row in pe[1:]], dtype=float).T
    assert left.tobytes() == referred[:-1].tobytes() and right.tobytes() == referred[1:].tobytes()
    import json
    views = [json.loads((tmp_path / f"histogram_{v}.json").read_text()) for v in ("charge", "pe")]
    assert views[1]["label"] == "input-referred photoelectrons"
    assert np.array(views[1]["bin_edges"]).tobytes() == referred.tobytes()
    for key in ("n_events", "counts", "probability"):
        assert views[1][key] == views[0][key]


def test_colliding_photoelectron_edges_are_refused_before_any_file_opens(tmp_path):
    # two edges one double apart near 1.5 e, which 1/3 maps onto one double
    hist = cipd.Histogram(np.array([1.5, math.nextafter(1.5, 2.0)]), np.array([1]), 1)
    with pytest.raises(ValueError, match="bin edges must increase"):
        cipd.write_histogram(hist, tmp_path, 3.0)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sigma", [225.0, 230.7])
def test_wide_smoothing_matches_scipy(sigma):
    # kernel radius 900 and more over a long histogram-sized array, so
    # interior samples and both reflected edges see the full kernel
    y = np.random.default_rng(4).random(33769)
    assert int(4.0 * sigma + 0.5) >= 900
    assert cipd._gaussian_smooth(y, sigma).tobytes() == gaussian_filter1d(y, sigma).tobytes()
