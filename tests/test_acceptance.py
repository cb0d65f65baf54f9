"""Acceptance gate: one test per headline claim, at its stated tolerance.

Run `pytest tests/test_acceptance.py -v` for the per-criterion pass/fail
lines; each test also prints its measured numbers (visible with -s or on
failure).
"""

import math
import time

import numpy as np
import pytest

from cvsim import cipd, cubicphase, densecoding, fock, gaussian


def quadrature_wavefunction(state, x):
    """psi(x) = sum_n c_n phi_n(x) for a one-mode state, in complex arithmetic."""
    return state @ fock.hermite_functions(len(state), x)


def _report(num, name, detail):
    print(f"criterion {num:02d} ({name}): PASS: {detail}")


def test_criterion_01_bell_measurement_squeezing_recovery():
    t0 = time.perf_counter()
    r = gaussian.r_for_noise_db(2.0)
    epr = densecoding.build_epr(r)
    x_minus, p_plus = densecoding.bell_measure(epr)
    db_x = x_minus.power_db()
    db_p = p_plus.power_db()
    assert db_x == pytest.approx(-2.0, abs=0.01)
    assert db_p == pytest.approx(-2.0, abs=0.01)

    n = 100_000
    xs, ps = densecoding.bell_measure(epr, n_samples=n, rng=np.random.default_rng(17))
    mc_x = 10.0 * math.log10(np.mean(xs.samples**2) / gaussian.VACUUM_VAR)
    mc_p = 10.0 * math.log10(np.mean(ps.samples**2) / gaussian.VACUUM_VAR)
    four_sigma_db = 4.0 * (10.0 / math.log(10.0)) * math.sqrt(2.0 / n)
    assert mc_x == pytest.approx(-2.0, abs=four_sigma_db)
    assert mc_p == pytest.approx(-2.0, abs=four_sigma_db)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "bell measurement squeezing recovery",
            f"analytic {db_x:+.4f}/{db_p:+.4f} dB, MC {mc_x:+.3f}/{mc_p:+.3f} dB "
            f"(4 sigma = {four_sigma_db:.3f} dB), {elapsed:.2f} s")


def test_criterion_02_epr_phase_independence():
    angles = np.linspace(0.0, math.pi, 64, endpoint=False)
    sweep = densecoding.phase_sweep(angles)
    epr = sweep["epr"]
    spread = float(epr.power_db.max() - epr.power_db.min())
    assert spread <= 0.05

    sq = sweep["squeezed"]
    lo = float(sq.power_db.min())
    hi = float(sq.power_db.max())
    assert lo == pytest.approx(-2.0, abs=0.02)
    assert hi == pytest.approx(+2.0, abs=0.02)
    _report(2, "EPR phase independence",
            f"EPR spread {spread:.2e} dB over 64 angles; squeezed spans "
            f"{lo:+.4f} to {hi:+.4f} dB")


def test_criterion_03_dense_coding_decoding():
    t0 = time.perf_counter()
    plan = densecoding.two_tone_plan(densecoding.SpectrumConfig())
    traces = densecoding.run_spectrum(plan)
    bell = traces["bell"]
    freqs = np.array([b.frequency_hz for b in plan.bins])
    i_am = int(np.argmin(np.abs(freqs - densecoding.AM_FREQUENCY_HZ)))
    i_pm = int(np.argmin(np.abs(freqs - densecoding.PM_FREQUENCY_HZ)))
    quiet = [i for i in range(len(freqs)) if i not in (i_am, i_pm)]

    floor_x = bell.x_power_db[quiet]
    floor_p = bell.p_power_db[quiet]
    assert np.abs(floor_x + 2.0).max() <= 0.01
    assert np.abs(floor_p + 2.0).max() <= 0.01

    # tones rise in their own quadrature only
    assert bell.x_power_db[i_am] > -2.0 + 5.0
    assert bell.p_power_db[i_pm] > -2.0 + 5.0

    # cross-talk: excess linear power in the wrong quadrature vs shot units
    floor_lin = 10 ** (-2.0 / 10.0)
    leak_am = 10 ** (bell.p_power_db[i_am] / 10.0) - floor_lin
    leak_pm = 10 ** (bell.x_power_db[i_pm] / 10.0) - floor_lin
    crosstalk = max(abs(leak_am), abs(leak_pm))
    assert crosstalk < 1e-8  # -80 dB
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, "dense coding decoding",
            f"AM bin x {bell.x_power_db[i_am]:+.2f} dB / PM bin p "
            f"{bell.p_power_db[i_pm]:+.2f} dB over a {floor_x.mean():+.3f} dB floor, "
            f"cross-talk excess {crosstalk:.1e} (< 1e-8), {elapsed:.2f} s")


def test_criterion_04_tmsv_photon_statistics():
    r, dim = 0.25, 20
    st = fock.tmsv(r, dim)
    pmf = (np.abs(st) ** 2).sum(axis=0)  # the marginal of mode 1
    lam = math.tanh(r) ** 2
    analytic = (1.0 - lam) * lam ** np.arange(dim)
    tail = 1.0 - analytic.sum()
    tv = 0.5 * (np.abs(pmf - analytic).sum() + tail)
    assert tv < 1e-8
    _report(4, "TMSV photon statistics",
            f"total variation vs geometric = {tv:.2e} at dim {dim}")


def test_criterion_05_cubic_phase_operator_checks():
    t0 = time.perf_counter()
    gamma, dim, pad = 0.05, 20, 20
    op = fock.cubic_phase_op(gamma, dim, pad=pad)
    unit = op.diagnostics["interior_unitarity"]
    assert unit <= 1e-8

    x = fock.position_op(dim)
    comm = op.matrix @ x - x @ op.matrix
    keep = dim - min(pad, dim // 2)
    comm_norm = float(np.linalg.norm(comm[:keep, :keep]))
    assert comm_norm <= 1e-6

    st = fock.squeeze_op(-0.3, dim).apply(fock.vacuum_state(dim))
    out = op.apply(st)
    grid = np.linspace(-6.0, 6.0, 2048)
    psi_in = quadrature_wavefunction(st, grid)
    psi_out = quadrature_wavefunction(out, grid)
    window = np.abs(grid) <= 2.0
    dphi = np.unwrap(np.angle(psi_out / psi_in))[window]
    resid = dphi - gamma * grid[window] ** 3
    resid -= resid.mean()
    phase_resid = float(np.abs(resid).max())
    assert phase_resid <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(5, "cubic phase operator checks",
            f"interior unitarity {unit:.1e}, [U,x] interior {comm_norm:.1e}, "
            f"phase residual {phase_resid:.1e} rad on |x|<=2, {elapsed:.2f} s")


def test_criterion_06_qnd_heisenberg_relation():
    resid = fock.qnd_heisenberg_residual(1.0, 16)
    assert resid <= 1e-6
    _report(6, "QND Heisenberg relation",
            f"||U'x2U - (x2 + x1)|| interior = {resid:.2e} at dim 16")


def test_criterion_07_gate_circuit_properties():
    config = cubicphase.CubicGateConfig()
    target = fock.vacuum_state(config.dim)
    resource = cubicphase.prepare_ancilla(config)
    pmf = (np.abs(resource) ** 2).sum(axis=0)  # the marginal of the counted arm

    # conditional-state normalization after both measurements
    worst = 0.0
    completeness = 0.0
    from scipy.integrate import simpson
    for n, p in enumerate(pmf):
        if p < 1e-14:
            completeness += p
            continue
        count = fock.photon_count(resource, outcome=n)
        worst = max(worst, abs(np.linalg.norm(count.conditional) - 1.0))
        anc = fock.squeeze_op(config.correction_s, config.dim).apply(count.conditional)
        joint = cubicphase.couple(target, anc, config)
        grid, dens = cubicphase.homodyne_density(joint, config)
        completeness += p * simpson(dens, x=grid)
    joint = cubicphase.couple(
        target, fock.photon_count(resource, outcome=1).conditional, config)
    for x in (-1.0, 0.0, 1.4):
        _, cond = cubicphase.readout_and_condition(joint, config, fixed_x=x)
        worst = max(worst, abs(np.linalg.norm(cond) - 1.0))
    assert worst <= 1e-8
    assert abs(completeness - 1.0) <= 1e-6

    # collapse to the exact TMSV count law when the gate knobs are off
    plain = cubicphase.CubicGateConfig(
        displacement_alpha=0.0, correction_s=0.0, coupling_g=0.0)
    pmf0 = (np.abs(cubicphase.prepare_ancilla(plain)) ** 2).sum(axis=0)
    lam = math.tanh(plain.squeezing_r) ** 2
    geo = lam ** np.arange(plain.dim)
    geo /= geo.sum()
    oracle_err = float(np.abs(pmf0 - geo).max())
    assert oracle_err <= 1e-12

    # byte-exact seed determinism of a full run record
    a = cubicphase.run_gate(config, seed=42).to_json()
    b = cubicphase.run_gate(config, seed=42).to_json()
    assert a == b
    _report(7, "gate circuit properties",
            f"norm defect {worst:.1e}, completeness defect "
            f"{abs(completeness - 1.0):.1e}, collapse oracle {oracle_err:.1e}, "
            f"records byte-identical")


def test_criterion_08_cipd_resolution_arithmetic():
    t0 = time.perf_counter()
    config = cipd.CipdConfig()
    snr = cipd.resolution_metric(config)
    assert snr == pytest.approx(1.43, abs=0.01)
    assert cipd.required_noise(config, 4.0) == pytest.approx(2.5, abs=1e-12)

    merged = cipd.simulate_pulses(cipd.HistogramConfig(), rng=0)
    peaks_now = cipd.detect_peaks(cipd.histogram(merged), config.gain)
    assert len(peaks_now) <= 1

    improved = cipd.CipdConfig(readout_noise=7.0 / 3.0)
    resolved = cipd.simulate_pulses(cipd.HistogramConfig(readout_noise=7.0 / 3.0), rng=0)
    peaks = cipd.detect_peaks(cipd.histogram(resolved), improved.gain)
    assert len(peaks) >= 3
    offsets = np.abs(peaks / improved.gain - np.round(peaks / improved.gain))
    assert np.all(offsets <= 0.25)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(8, "CIPD resolution arithmetic",
            f"S/N {snr:.3f}, required noise 2.5 e; peaks {len(peaks_now)} at "
            f"7 e vs {len(peaks)} at 7/3 e (grid offsets <= {offsets.max():.2f} "
            f"gain), {elapsed:.2f} s")


def test_criterion_09_cipd_moment_oracle():
    config = cipd.CipdConfig()
    n = 100_000
    details = []
    for mu, seed in ((0.5, 31), (2.0, 32)):
        rec = cipd.simulate_pulses(cipd.HistogramConfig(source_mean=mu, n_pulses=n), rng=seed)
        mean, var = cipd.analytic_moments(config, mu)
        lam = config.eta * mu + config.dark_per_window
        se_mean = math.sqrt(var / n)
        se_var = math.sqrt((config.gain**4 * lam + 2 * var**2) / n)
        got_mean = rec.output_charge.mean()
        got_var = rec.output_charge.var()
        assert got_mean == pytest.approx(mean, abs=4 * se_mean)
        assert got_var == pytest.approx(var, abs=4 * se_var)
        details.append(f"mu={mu}: mean {got_mean:.2f}/{mean:.2f}, "
                       f"var {got_var:.1f}/{var:.1f}")
    _report(9, "CIPD moment oracle", "; ".join(details))


def test_criterion_10_cross_backend_consistency():
    dim = 40
    s, alpha = 0.3, 0.9 - 0.4j

    g_state = gaussian.squeezed_vacuum(s)
    f_state = fock.squeeze_op(s, dim).apply(fock.vacuum_state(dim))
    f_mean, f_cov = fock.quadrature_moments(f_state)
    mean_err = float(np.abs(f_mean - g_state.mean).max())
    cov_err = float(np.abs(f_cov - g_state.cov).max())
    assert mean_err <= 1e-6 and cov_err <= 1e-6

    g_disp = gaussian.displace(gaussian.vacuum(1), 0, alpha)
    f_disp = fock.displacement_op(alpha, dim).apply(fock.vacuum_state(dim))
    fd_mean, fd_cov = fock.quadrature_moments(f_disp)
    disp_mean_err = float(np.abs(fd_mean - g_disp.mean).max())
    disp_cov_err = float(np.abs(fd_cov - g_disp.cov).max())
    assert disp_mean_err <= 1e-6 and disp_cov_err <= 1e-6
    _report(10, "cross backend consistency",
            f"squeeze moments within {max(mean_err, cov_err):.1e}, "
            f"displacement within {max(disp_mean_err, disp_cov_err):.1e}")
