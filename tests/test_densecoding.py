"""Tests for sideband dense coding."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cvsim import cli, gaussian
from cvsim import densecoding as dc

SQ_VAR = 0.31547867224009657     # e^{-2r}/2 at the default r
EPR_BEAM_DB = 0.4451046744531254  # 10*log10(cosh 2r)
TONE_PEAK_DB = 8.376488656338806  # 10*log10((SQ_VAR + 2.5^2/2)/0.5)


def test_build_epr_correlations():
    st = dc.build_epr()
    ux = np.array([1.0, 0.0, -1.0, 0.0])
    up = np.array([0.0, 1.0, 0.0, 1.0])
    assert math.isclose(ux @ st.cov @ ux, 2 * SQ_VAR, rel_tol=1e-12)
    assert math.isclose(up @ st.cov @ up, 2 * SQ_VAR, rel_tol=1e-12)


def test_decoded_means_golden():
    # convention lock: encoding (am, pm) on beam 0 decodes to
    # x_minus = -am/sqrt(2), p_plus = +pm/sqrt(2)
    sent = dc.encode(dc.build_epr(), 0.7, -0.4, transmittance=0.0)
    x_minus, p_plus = dc.bell_measure(sent)
    assert math.isclose(x_minus.mean, -0.7 / math.sqrt(2), rel_tol=1e-12)
    assert math.isclose(p_plus.mean, -0.4 / math.sqrt(2), rel_tol=1e-12)


def test_bell_floor_minus_two_db():
    x_minus, p_plus = dc.bell_measure(dc.build_epr())
    assert abs(x_minus.power_db() + 2.0) < 1e-12
    assert abs(p_plus.power_db() + 2.0) < 1e-12
    assert math.isclose(x_minus.variance, SQ_VAR, rel_tol=1e-12)


def test_encoding_never_touches_variances():
    plain = dc.bell_measure(dc.build_epr())
    coded = dc.bell_measure(dc.encode(dc.build_epr(), 1.9, -2.4, transmittance=0.0))
    assert plain[0].variance == coded[0].variance
    assert plain[1].variance == coded[1].variance


def test_mirror_encode_decodes_identically():
    ideal = dc.bell_measure(dc.encode(dc.build_epr(), 0.7, -0.4, transmittance=0.0))
    mirror = dc.bell_measure(dc.encode(dc.build_epr(), 0.7, -0.4, transmittance=0.01))
    assert math.isclose(ideal[0].mean, mirror[0].mean, rel_tol=1e-12)
    assert math.isclose(ideal[1].mean, mirror[1].mean, rel_tol=1e-12)
    # 1% of vacuum mixed in lifts the floor slightly, toward (not past) shot
    assert mirror[0].variance > ideal[0].variance
    assert mirror[0].variance < 0.5


def test_bell_measure_rejects_single_mode():
    with pytest.raises(ValueError):
        dc.bell_measure(gaussian.vacuum(1))


def test_two_tone_plan_layout():
    plan = dc.two_tone_plan()
    freqs = np.array([b.frequency_hz for b in plan.bins])
    assert freqs.size == 33 and freqs[0] == 0.8e6 and freqs[-1] == 1.6e6
    am = [b for b in plan.bins if b.am_amplitude > 0]
    pm = [b for b in plan.bins if b.pm_amplitude > 0]
    assert len(am) == 1 and am[0].frequency_hz == 1.3e6
    assert len(pm) == 1 and pm[0].frequency_hz == 1.1e6


def test_plan_validation():
    b = dc.SidebandBin(1e6, dc.DEFAULT_R, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        dc.SidebandPlan(())
    with pytest.raises(ValueError):
        dc.SidebandPlan((b, b))  # not strictly increasing
    with pytest.raises(ValueError):
        dc.SidebandBin(1e6, dc.DEFAULT_R, 0.0, 0.0, 1.4)
    with pytest.raises(ValueError, match="am_amplitude"):
        dc.SidebandBin(1e6, dc.DEFAULT_R, math.nan, 0.0, 1.0)


def test_spectrum_analytic():
    spectra = dc.run_spectrum(dc.two_tone_plan())
    shot, epr, bell = spectra["shot"], spectra["epr"], spectra["bell"]
    # shot trace is 0 dB everywhere by construction
    assert np.abs(shot.x_power_db).max() == 0.0
    assert np.abs(shot.p_power_db).max() == 0.0
    # one EPR beam alone is flat and anti-squeezed
    assert np.abs(epr.x_power_db - EPR_BEAM_DB).max() < 1e-12
    assert np.abs(epr.p_power_db - EPR_BEAM_DB).max() < 1e-12
    i_am = int(np.argmin(np.abs(bell.frequency_hz - 1.3e6)))
    i_pm = int(np.argmin(np.abs(bell.frequency_hz - 1.1e6)))
    # tones appear only in their own quadrature, on a -2 dB floor
    assert abs(bell.x_power_db[i_am] - TONE_PEAK_DB) < 1e-9
    assert abs(bell.p_power_db[i_pm] - TONE_PEAK_DB) < 1e-9
    quiet = np.ones(bell.frequency_hz.size, bool)
    quiet[[i_am, i_pm]] = False
    assert np.abs(bell.x_power_db[quiet] + 2.0).max() < 1e-12
    assert np.abs(bell.p_power_db[quiet] + 2.0).max() < 1e-12
    # cross-talk: the wrong-quadrature power at a tone bin equals the floor
    assert abs(bell.p_power_db[i_am] + 2.0) < 1e-12
    assert abs(bell.x_power_db[i_pm] + 2.0) < 1e-12


def test_crosstalk_below_minus_80_db():
    sent = dc.encode(dc.build_epr(), 2.5, 0.0, transmittance=0.0)
    x_minus, p_plus = dc.bell_measure(sent)
    # AM tone leaks exactly nothing into p: tone power under 1e-8 of shot
    assert p_plus.mean ** 2 < 1e-8 * gaussian.VACUUM_VAR
    sent = dc.encode(dc.build_epr(), 0.0, 2.5, transmittance=0.0)
    x_minus, p_plus = dc.bell_measure(sent)
    assert x_minus.mean ** 2 < 1e-8 * gaussian.VACUUM_VAR


def test_floor_rises_with_loss():
    floors = []
    for eta in (1.0, 0.8, 0.5, 0.2, 0.0):
        sent = gaussian.loss(dc.build_epr(), 0, eta)
        x_minus, _ = dc.bell_measure(sent)
        floors.append(x_minus.power_db())
    assert all(b > a for a, b in zip(floors, floors[1:]))
    assert floors[0] == pytest.approx(-2.0, abs=1e-12)
    # full loss leaves vacuum mixed with the anti-squeezed survivor:
    # (0.5 + cosh(2r)/2)/2 = 0.52698, i.e. +0.228 dB
    assert floors[-1] == pytest.approx(0.22825214260717042, abs=1e-9)


def test_spectrum_monte_carlo_within_4_sigma():
    plan = dc.two_tone_plan(n_bins=5)
    n = 40_000
    analytic = dc.run_spectrum(plan)
    sampled = dc.run_spectrum(plan, n_samples=n, seed=99)
    for label in ("shot", "epr", "bell"):
        for axis in ("x_power_db", "p_power_db"):
            got = getattr(sampled[label], axis)
            want = getattr(analytic[label], axis)
            for i in range(len(plan.bins)):
                var = 0.5 * 10 ** (want[i] / 10.0)  # linear power = var + mean^2
                # conservative: SE of (var_hat + mean_hat^2) <= sqrt(2*P^2 + 4*P*var)/sqrt(n)
                se = math.sqrt(2 * var**2 + 4 * var * var) / math.sqrt(n)
                got_lin = 0.5 * 10 ** (got[i] / 10.0)
                assert abs(got_lin - var) < 4 * se + 1e-12


def sampled_moments(mean, var, n, z, chi2):
    """Sample mean and ddof=1 variance of n draws from N(mean, var), from their
    exact joint law: mean + sqrt(var/n) Z and var X/(n-1), given Z ~ N(0, 1)
    and X ~ chi^2(n-1) independent."""
    return mean + math.sqrt(var / n) * z, var * (chi2 / (n - 1))


def circuit_spectrum(plan, n_samples=0, seed=None, mirror_transmittance=0.0):
    """Oracle: every bin through the circuit itself, (shot, epr, bell) x (x, p) x bin.

    The Bell receiver is encode -> loss -> bell_measure on the bin's own tones;
    the shot and EPR receivers homodyne the vacuum and one beam of the pair.
    Sampled runs draw from one generator seeded with `seed`: every Z, then every
    X, each shaped (receiver, bin, x/p); `sampled_moments` turns draw [t, i, q]
    into that receiver's sample moments.
    """
    mc = n_samples > 0
    if mc:
        gen, shape = np.random.default_rng(seed), (3, len(plan.bins), 2)
        normal, chi2 = gen.standard_normal(shape), gen.chisquare(n_samples - 1, shape)
    power = np.empty((3, 2, len(plan.bins)))
    for i, b in enumerate(plan.bins):
        epr = dc.build_epr(b.squeezing_r)
        sent = dc.encode(epr, b.am_amplitude, b.pm_amplitude, mirror_transmittance)
        sent = gaussian.loss(sent, 0, b.loss_eta)
        receivers = ((dc._homodyne_xp, gaussian.vacuum(1)), (dc._homodyne_xp, epr),
                     (dc.bell_measure, sent))
        for t, (measure, state) in enumerate(receivers):
            for q, res in enumerate(measure(state, 0, None)):
                mean, var = (sampled_moments(res.mean, res.variance, n_samples,
                                             normal[t, i, q], chi2[t, i, q])
                             if mc else (res.mean, res.variance))
                power[t, q, i] = gaussian.noise_power_db(var + mean * mean)
    return power


def as_array(spectra):
    return np.array([[s.x_power_db, s.p_power_db] for s in spectra.values()])


tones = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))
transmittances = st.one_of(st.just(0.0), st.floats(1e-4, 0.5))


@st.composite
def mixed_plans(draw):
    """Hand-built plans whose bins draw r and eta from a few values each."""
    rs = draw(st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=3))
    etas = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    bins = tuple(dc.SidebandBin(1e6 + 1e3 * i, draw(st.sampled_from(rs)), draw(tones),
                                draw(tones), draw(st.sampled_from(etas)))
                 for i in range(draw(st.integers(1, 12))))
    return dc.SidebandPlan(bins)


two_tone_plans = st.builds(
    dc.two_tone_plan, n_bins=st.integers(5, 60), r=st.floats(-1.5, 1.5),
    amplitude=tones, loss_eta=st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.one_of(mixed_plans(), two_tone_plans), transmittances,
       st.sampled_from([0, 0, 50]), st.integers(0, 2 ** 32))
def test_spectrum_matches_the_circuit_bin_by_bin(plan, transmittance, n_samples, seed):
    got = as_array(dc.run_spectrum(plan, n_samples=n_samples, seed=seed,
                                   mirror_transmittance=transmittance))
    want = circuit_spectrum(plan, n_samples, seed, transmittance)
    assert np.abs(got - want).max() <= 1e-12


def test_bundled_spectrum_equals_the_circuit_exactly(monkeypatch, tmp_path):
    # the plan and arguments the CLI builds from the bundled scenario, analytic and seeded
    calls, run = [], dc.run_spectrum

    def recording(plan, **kw):
        calls.append((plan, kw))
        return run(plan, **kw)

    monkeypatch.setattr(dc, "run_spectrum", recording)
    scenario = Path(__file__).resolve().parent.parent / "scenarios" / "dense_coding_spectrum.json"
    assert cli.main(["run", str(scenario), "--output-dir", str(tmp_path / "out")]) == 0
    (plan, kw), = calls
    assert kw["n_samples"] > 0
    for n_samples in (0, kw["n_samples"]):
        args = dict(kw, n_samples=n_samples)
        assert np.array_equal(as_array(run(plan, **args)), circuit_spectrum(plan, **args))


def test_sampled_moments_follow_the_law_of_explicit_samples():
    # the exact draw against n explicit normal draws, in mean and in variance
    n, repeats, mean, var = 50, 4000, 0.3, 1.7
    exact_gen, explicit_gen = np.random.default_rng(2024), np.random.default_rng(2025)
    draws = zip(exact_gen.standard_normal(repeats), exact_gen.chisquare(n - 1, repeats))
    exact = np.array([sampled_moments(mean, var, n, z, chi2) for z, chi2 in draws])
    samples = explicit_gen.normal(mean, math.sqrt(var), (repeats, n))
    explicit = np.column_stack([samples.mean(axis=1), samples.var(axis=1, ddof=1)])
    for k in (0, 1):
        assert stats.ks_2samp(exact[:, k], explicit[:, k]).pvalue >= 1e-3


def test_spectrum_at_a_huge_sample_count_is_finite_and_near_analytic():
    # the cost does not grow with n_samples: 10**12 samples per bin, three bins
    n = 10 ** 12
    plan = dc.SidebandPlan(tuple(dc.SidebandBin(1e6 + 1e3 * i, dc.DEFAULT_R, am, pm, 0.9)
                                 for i, (am, pm) in enumerate(((0.0, 0.0), (2.5, 0.0),
                                                               (0.0, 2.5)))))
    got = as_array(dc.run_spectrum(plan, n_samples=n, seed=5))
    want = as_array(dc.run_spectrum(plan))
    assert np.isfinite(got).all()
    power, got_lin = 0.5 * 10 ** (want / 10.0), 0.5 * 10 ** (got / 10.0)
    se = np.sqrt(6 * power ** 2) / math.sqrt(n)  # as in the 4-sigma test above
    assert np.all(np.abs(got_lin - power) < 4 * se + 1e-12)


@pytest.mark.parametrize("n_samples", [-1, 1])
def test_spectrum_rejects_unusable_sample_counts(n_samples):
    plan = dc.two_tone_plan(n_bins=5)
    with pytest.raises(ValueError, match="n_samples"):
        dc.run_spectrum(plan, n_samples=n_samples, seed=1)


def test_states_built_do_not_grow_with_bins(monkeypatch):
    built, post_init = [], gaussian.GaussianState.__post_init__

    def counting(state):
        built.append(state)
        post_init(state)

    monkeypatch.setattr(gaussian.GaussianState, "__post_init__", counting)
    counts = []
    for n_bins in (33, 1001):
        plan = dc.two_tone_plan(n_bins)
        built.clear()
        dc.run_spectrum(plan)
        counts.append(len(built))
    # the vacuum, one EPR pair and three circuit probes: fewer states than bins
    assert counts[0] == counts[1] < 33


def test_spectrum_monte_carlo_deterministic():
    plan = dc.two_tone_plan(n_bins=4)
    a = dc.run_spectrum(plan, n_samples=500, seed=7)
    b = dc.run_spectrum(plan, n_samples=500, seed=7)
    c = dc.run_spectrum(plan, n_samples=500, seed=8)
    assert np.array_equal(a["bell"].x_power_db, b["bell"].x_power_db)
    assert not np.array_equal(a["bell"].x_power_db, c["bell"].x_power_db)


def test_sampled_spectrum_draws_from_one_generator(monkeypatch):
    generators, spawned, default_rng = [], [], np.random.default_rng

    def counting_rng(*args):
        generators.append(args)
        return default_rng(*args)

    class CountingSeedSequence(np.random.SeedSequence):
        def spawn(self, n_children):
            spawned.append(n_children)
            return super().spawn(n_children)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    plan, n = dc.two_tone_plan(n_bins=1001), 20_000
    got = as_array(dc.run_spectrum(plan, n_samples=n, seed=3))
    assert len(generators) == 1 and spawned == []
    want = as_array(dc.run_spectrum(plan))
    freqs = np.array([b.frequency_hz for b in plan.bins])
    quiet = np.ones(got.shape, bool)  # (receiver, x/p, bin)
    quiet[2, 0, np.argmin(np.abs(freqs - dc.AM_FREQUENCY_HZ))] = False
    quiet[2, 1, np.argmin(np.abs(freqs - dc.PM_FREQUENCY_HZ))] = False
    for t in range(3):
        assert np.unique(got[t][quiet[t]]).size == quiet[t].sum()
    # a quiet bin's sampled/analytic power depends on its (Z, X) draw alone:
    # a draw shared across bins or receivers would repeat a ratio to roundoff
    ratio = np.sort(10 ** ((got - want)[quiet] / 10.0))
    assert np.diff(ratio).min() > 1e-12
    # the benchmark's pooled statistic: each quiet Bell bin is ~N(0, sigma) in dB
    sigma = 10.0 / math.log(10.0) * math.sqrt(2.0 / (n - 1))
    for q in range(2):
        offsets = (got[2, q] - want[2, q])[quiet[2, q]]
        assert abs(offsets.sum() / (sigma * math.sqrt(offsets.size))) <= 4.0


def test_phase_sweep_traces():
    angles = dc.DEFAULT_SWEEP_ANGLES
    shot = dc.phase_sweep("shot", angles)
    # flat at 0 dB up to cos^2+sin^2 roundoff
    assert np.abs(shot.power_db).max() < 1e-12
    epr = dc.phase_sweep("epr", angles)
    assert epr.power_db.max() - epr.power_db.min() < 1e-9
    assert np.abs(epr.power_db - EPR_BEAM_DB).max() < 1e-9
    sq = dc.phase_sweep("squeezed", angles)
    assert abs(sq.power_db.min() + 2.0) < 1e-12
    assert abs(sq.power_db.max() - 2.0) < 1e-12
    assert sq.power_db.argmin() == 0
    assert angles[sq.power_db.argmax()] == pytest.approx(math.pi / 2)
    with pytest.raises(ValueError):
        dc.phase_sweep("thermal")


def test_csv_and_json_outputs(tmp_path):
    plan = dc.two_tone_plan(n_bins=5)
    spectra = dc.run_spectrum(plan)
    dc.write_spectra(spectra, tmp_path)
    csv_path = tmp_path / "spectra.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "frequency_hz,shot_x_db,shot_p_db,epr_x_db,epr_p_db,bell_x_db,bell_p_db"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == plan.bins[0].frequency_hz
    assert float(first[5]) == spectra["bell"].x_power_db[0]

    json_path = tmp_path / "spectra.json"
    doc = json.loads(json_path.read_text())
    labels = [t["label"] for t in doc["traces"]]
    assert labels == ["shot", "epr", "bell"]
    assert doc["traces"][2]["x_power_db"] == [float(v) for v in spectra["bell"].x_power_db]

    # byte-identical rewrite
    again = tmp_path / "again"
    again.mkdir()
    dc.write_spectra(spectra, again)
    for name in ("spectra.csv", "spectra.json"):
        assert (again / name).read_bytes() == (tmp_path / name).read_bytes()

    # a non-finite power is refused before either file is opened
    bell = spectra["bell"]
    spectra["bell"] = dc.NoiseSpectrum("bell", bell.frequency_hz,
                                       np.where(np.arange(5) == 2, np.nan, bell.x_power_db),
                                       bell.p_power_db)
    nan_dir = tmp_path / "nan"
    nan_dir.mkdir()
    with pytest.raises(ValueError):
        dc.write_spectra(spectra, nan_dir)
    assert list(nan_dir.iterdir()) == []


def test_phase_sweep_outputs(tmp_path):
    traces = [dc.phase_sweep(k) for k in ("shot", "epr", "squeezed")]
    dc.write_phase_sweep(traces, tmp_path)
    lines = (tmp_path / "phase_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "phase_rad,shot_db,epr_db,squeezed_db"
    assert len(lines) == 65
    doc = json.loads((tmp_path / "phase_sweep.json").read_text())
    assert [t["label"] for t in doc["traces"]] == ["shot", "epr", "squeezed"]
