"""Tests for the measurement-induced cubic phase gate pipeline."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from cvsim import cubicphase as cp
from cvsim import fock

# Reference run at the default configuration, frozen from the first validated
# execution of this implementation (seed 7).  The config digest pins the
# configuration these numbers belong to.
REF_DIGEST = "c8ae0156ee2fb93b"
REF_COUNT_N = 1
REF_COUNT_P = 0.33804740439016645
REF_HOMODYNE_X = 1.1668902653746362
REF_GAMMA_FIT = 0.030686372446843437
REF_PHASE_RESIDUAL = 0.011557824618824777
REF_CUBIC_OVERLAP = 0.661422326819703

# Forced-count variant (post_select_n=3, seed 11).
REF3_COUNT_P = 0.10058508531422211
REF3_HOMODYNE_X = -0.916788225751257
REF3_GAMMA_FIT = -0.0587103993375785
REF3_PHASE_RESIDUAL = 0.015374389498070967


def test_config_validation():
    with pytest.raises(ValueError):
        cp.CubicGateConfig(dim=6)
    with pytest.raises(ValueError):
        cp.CubicGateConfig(homodyne_which="both")
    with pytest.raises(ValueError):
        cp.CubicGateConfig(post_select_n=99)
    with pytest.raises(ValueError, match="coupling_g"):
        cp.run_gate(cp.CubicGateConfig(coupling_g=float("nan")))
    with pytest.raises(ValueError, match="displacement_alpha"):
        cp.CubicGateConfig(displacement_alpha=complex(0.5, float("inf")))
    with pytest.raises(ValueError, match="squeezing_r"):
        cp.CubicGateConfig(squeezing_r=-20.0)
    # sizes are refused on construction, before any dim^3 work
    with pytest.raises(ValueError, match="dim \\+ qnd_pad"):
        cp.CubicGateConfig(dim=200)
    with pytest.raises(ValueError, match="dim \\+ qnd_pad"):
        cp.CubicGateConfig(dim=64, qnd_pad=80)
    with pytest.raises(ValueError, match="qnd_pad"):
        cp.CubicGateConfig(qnd_pad=-3)
    for points in (1, cp.MAX_GRID_POINTS + 1):
        with pytest.raises(ValueError, match="grid_points"):
            cp.CubicGateConfig(grid_points=points)
    cp.CubicGateConfig(dim=85, grid_points=cp.MAX_GRID_POINTS)  # the largest allowed


@pytest.mark.parametrize("which", ["ancilla", "target"])
@pytest.mark.parametrize("count", [0, 1, 2])
def test_real_parameters_leave_the_target_real(which, count):
    # with r, alpha, s and g real, D(alpha), S(s), the coupling and the Hermite
    # functions are real matrices, so the induced phase comes from arg alpha
    size = abs(0.5 + 1j)
    cfg = cp.CubicGateConfig(displacement_alpha=complex(size, 0.0), post_select_n=count,
                             homodyne_which=which)
    assert np.abs(cp.run_gate(cfg, seed=7).conditional_target.imag).max() <= 1e-15
    turned = dataclasses.replace(cfg, displacement_alpha=complex(0.0, size))
    assert np.abs(cp.run_gate(turned, seed=7).conditional_target.imag).max() > 1e-2


def test_config_digest_pins_configuration():
    cfg = cp.CubicGateConfig()
    assert cfg.digest() == REF_DIGEST
    assert cp.CubicGateConfig(coupling_g=0.5).digest() != REF_DIGEST
    # digest is insensitive to how the config object was built
    assert cp.CubicGateConfig(dim=16).digest() == REF_DIGEST


def test_resource_mean_photon():
    # displaced TMSV arm: <n> = sinh^2 r + |alpha|^2
    cfg = cp.CubicGateConfig()
    pmf = (np.abs(cp.prepare_ancilla(cfg)) ** 2).sum(axis=0)
    mean = float(np.arange(cfg.dim) @ pmf)
    expect = np.sinh(cfg.squeezing_r) ** 2 + abs(cfg.displacement_alpha) ** 2
    assert mean == pytest.approx(expect, abs=1e-8)


def test_count_distribution_collapses_to_geometric():
    # alpha = 0 strips the displacement: the counted arm of a TMSV is
    # geometric in photon number with ratio tanh(r)^2
    cfg = cp.CubicGateConfig(displacement_alpha=0.0, correction_s=0.0, coupling_g=0.0)
    pmf = (np.abs(cp.prepare_ancilla(cfg)) ** 2).sum(axis=0)
    lam = np.tanh(cfg.squeezing_r) ** 2
    geo = lam ** np.arange(cfg.dim)
    geo /= geo.sum()
    np.testing.assert_allclose(pmf, geo, atol=1e-12)


def test_g_zero_leaves_target_untouched():
    cfg = cp.CubicGateConfig(coupling_g=0.0, correction_s=0.0)
    rec = cp.run_gate(cfg, seed=3)
    target = fock.vacuum_state(cfg.dim)
    fid = abs(np.vdot(target, rec.conditional_target)) ** 2
    assert fid == pytest.approx(1.0, abs=1e-10)
    assert abs(rec.diagnostics["gamma_fit"]) < 1e-12


def test_reference_run_reproduces():
    rec = cp.run_gate(cp.CubicGateConfig(), seed=7)
    assert rec.config.digest() == REF_DIGEST
    assert rec.count_n == REF_COUNT_N
    assert rec.count_probability == pytest.approx(REF_COUNT_P, rel=1e-12)
    assert rec.homodyne_x == pytest.approx(REF_HOMODYNE_X, rel=1e-12)
    d = rec.diagnostics
    assert d["gamma_fit"] == pytest.approx(REF_GAMMA_FIT, rel=1e-9)
    assert d["phase_residual"] == pytest.approx(REF_PHASE_RESIDUAL, rel=1e-9)
    assert d["cubic_overlap"] == pytest.approx(REF_CUBIC_OVERLAP, rel=1e-9)
    assert d["target_norm_defect"] <= 1e-12


def test_forced_count_run_reproduces():
    rec = cp.run_gate(cp.CubicGateConfig(post_select_n=3), seed=11)
    assert rec.count_n == 3
    assert rec.count_probability == pytest.approx(REF3_COUNT_P, rel=1e-12)
    assert rec.homodyne_x == pytest.approx(REF3_HOMODYNE_X, rel=1e-12)
    assert rec.diagnostics["gamma_fit"] == pytest.approx(REF3_GAMMA_FIT, rel=1e-9)
    assert rec.diagnostics["phase_residual"] == pytest.approx(REF3_PHASE_RESIDUAL, rel=1e-9)


def test_references_reproduce_after_a_dim32_run():
    cp.run_gate(cp.CubicGateConfig(dim=32), seed=1)
    test_reference_run_reproduces()
    test_forced_count_run_reproduces()


def test_second_gate_run_diagonalises_nothing(monkeypatch):
    # what depends only on (dim, grid, workspace, s) is built once per
    # process, and the displacement takes its eigenpairs from x's cached
    # ones: a second run with a new alpha and r diagonalises nothing and
    # tabulates Hermite functions only at the outcome x_m
    cfg = cp.CubicGateConfig(dim=32)
    cp.run_gate(cfg, seed=1)
    eighs, tables = [], []
    eigh, hermite = np.linalg.eigh, fock.hermite_functions
    monkeypatch.setattr(np.linalg, "eigh", lambda h: eighs.append(h) or eigh(h))
    monkeypatch.setattr(fock, "hermite_functions",
                        lambda n, x: tables.append(np.size(x)) or hermite(n, x))
    alpha = 0.3 - 0.8j
    cp.run_gate(dataclasses.replace(cfg, displacement_alpha=alpha, squeezing_r=0.4), seed=2)
    assert eighs == []
    assert tables == [1]


def test_table_cache_stays_at_its_bound():
    info = fock._cached_hermite_table.cache_info
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fock.TruncationWarning)  # the small cutoffs
        for dim in range(8, 9 + info().maxsize):
            cp.run_gate(cp.CubicGateConfig(dim=dim), seed=1)
    assert info().currsize == info().maxsize


def test_run_gate_deterministic():
    cfg = cp.CubicGateConfig()
    a = cp.run_gate(cfg, seed=42).to_json()
    b = cp.run_gate(cfg, seed=42).to_json()
    c = cp.run_gate(cfg, seed=43).to_json()
    assert a == b
    assert a != c


def test_record_json_round_trip():
    rec = cp.run_gate(cp.CubicGateConfig(), seed=7)
    data = json.loads(rec.to_json())
    amps = np.array([complex(re, im) for re, im in data["conditional_target"]])
    np.testing.assert_array_equal(amps, rec.conditional_target)
    assert data["count_n"] == rec.count_n
    assert data["config"]["dim"] == 16


def test_outcome_completeness():
    # summing P(n) * integral of the homodyne density over all count outcomes
    # must recover unity; truncation keeps a small bite out of it
    cfg = cp.CubicGateConfig()
    target = fock.vacuum_state(cfg.dim)
    resource = cp.prepare_ancilla(cfg)
    pmf = (np.abs(resource) ** 2).sum(axis=0)  # the marginal of the counted arm
    total = 0.0
    for n, p in enumerate(pmf):
        if p < 1e-14:
            total += p
            continue
        count = fock.photon_count(resource, outcome=n)
        anc = fock.squeeze_op(cfg.correction_s, cfg.dim).apply(count.conditional)
        joint = cp.couple(target, anc, cfg)
        grid, dens = cp.homodyne_density(joint, cfg)
        total += p * simpson(dens, x=grid)
    assert abs(total - 1.0) <= 1e-6


def test_conditional_states_normalized():
    cfg = cp.CubicGateConfig()
    target = fock.vacuum_state(cfg.dim)
    resource = cp.prepare_ancilla(cfg)
    pmf = (np.abs(resource) ** 2).sum(axis=0)  # the marginal of the counted arm
    for n, p in enumerate(pmf):
        if p < 1e-14:
            continue
        count = fock.photon_count(resource, outcome=n)
        assert abs(np.linalg.norm(count.conditional) - 1.0) <= 1e-8
    joint = cp.couple(target, fock.photon_count(resource, outcome=1).conditional, cfg)
    for x in (-2.0, -0.5, 0.0, 0.7, 1.9):
        _, cond = cp.readout_and_condition(joint, cfg, fixed_x=x)
        assert abs(np.linalg.norm(cond) - 1.0) <= 1e-8


def test_conditioning_matches_position_route():
    # independent construction of the conditioned target: the QND coupling
    # then projection onto <x_m| leaves psi_t(x) * chi(x_m - g x) up to
    # normalization.  Agreement improves with the cutoff.
    defects = []
    for dim, pad in ((16, None), (24, None), (32, None), (64, 64)):
        cfg = cp.CubicGateConfig(dim=dim, qnd_pad=pad, post_select_n=2)
        target = np.eye(cfg.dim)[1]
        resource = cp.prepare_ancilla(cfg)
        anc = fock.squeeze_op(cfg.correction_s, cfg.dim).apply(
            fock.photon_count(resource, outcome=2).conditional)
        joint = cp.couple(target, anc, cfg)
        x_m = 0.8
        _, cond = cp.readout_and_condition(joint, cfg, fixed_x=x_m)
        grid = fock.default_grid(cfg.dim)
        basis = fock.hermite_functions(cfg.dim, grid)
        psi_t = target @ basis
        chi = anc @ fock.hermite_functions(cfg.dim, x_m - cfg.coupling_g * grid)
        direct = psi_t * chi
        direct = direct / np.sqrt(simpson(np.abs(direct) ** 2, x=grid))
        psi_cond = cond @ basis
        defects.append(1.0 - abs(simpson(psi_cond.conj() * direct, x=grid)))
    assert defects[0] <= 3e-6
    assert defects[1] <= 5e-9
    assert defects[2] <= 1e-11
    assert defects[3] <= 1e-12


def _joint(cfg, seed):
    """A coupled joint state whose target has complex amplitudes on the lower
    half of the cutoff."""
    rng = np.random.default_rng(seed)
    half = cfg.dim // 2
    amps = np.zeros(cfg.dim, dtype=complex)
    amps[:half] = rng.normal(size=half) + 1j * rng.normal(size=half)
    anc = fock.squeeze_op(cfg.correction_s, cfg.dim).apply(
        fock.photon_count(cp.prepare_ancilla(cfg), outcome=1).conditional)
    return cp.couple(fock._normalized(amps), anc, cfg)


@pytest.mark.parametrize("which", ["ancilla", "target"])
@pytest.mark.parametrize("dim, pad", [(16, None), (32, None), (64, 64)])
def test_homodyne_density_matches_complex_oracle(dim, pad, which):
    # the real-table readout against sum_k |sum_b C[k, b] phi_b(x)|^2 taken
    # in complex arithmetic; a sum of squares never goes negative, which the
    # inverse-CDF sampler's non-decreasing CDF relies on
    cfg = cp.CubicGateConfig(dim=dim, qnd_pad=pad, homodyne_which=which)
    joint = _joint(cfg, seed=dim)
    grid, dens = cp.homodyne_density(joint, cfg)
    assert np.array_equal(grid, fock.default_grid(dim, n_points=cfg.grid_points))
    c = joint if which == "ancilla" else joint.T
    proj = c @ fock.hermite_functions(dim, grid).astype(complex)
    expect = np.sum(np.abs(proj) ** 2, axis=0)
    assert np.abs(dens - expect).max() <= 1e-14
    assert (dens >= 0.0).all()


def test_wavefunction_on_a_real_table_matches_complex_product():
    cfg = cp.CubicGateConfig(dim=24)
    joint = _joint(cfg, seed=3)
    grid = fock.default_grid(cfg.dim)
    table = fock._hermite_table(cfg.dim, grid)
    assert table.dtype == np.float64
    with pytest.raises(ValueError):
        table[0] = 0.0
    basis = fock.hermite_functions(cfg.dim, grid).astype(complex)
    # strided views, a stack of states, and fewer levels than the table has
    for amps in (joint.T, joint[:, 3], joint.T[5], joint[2, :12]):
        psi = fock._wavefunction(amps, table)
        expect = amps @ basis[: amps.shape[-1]]
        assert psi.shape == expect.shape
        assert np.abs(psi - expect).max() <= 1e-15


def test_phase_fit_recovers_synthetic_cubic():
    # project exp(i gamma x^3) * vacuum onto the Fock basis and check the
    # fit finds gamma without help from the gate machinery
    gamma = 0.05
    dim = 16
    grid = fock.default_grid(dim, n_points=4096)
    basis = fock.hermite_functions(dim, grid)
    psi0 = basis[0]
    curved = np.exp(1j * gamma * grid**3) * psi0
    amps = simpson(basis * curved[None, :], x=grid)
    fit, resid = cp.fit_cubic_phase(fock.vacuum_state(dim), amps)
    assert fit == pytest.approx(gamma, abs=1e-4)
    assert resid <= 1e-3


def test_phase_fit_skips_a_node_on_the_grid():
    # |1> vanishes at x = 0, a point of the fit grid: the phase there is
    # undefined and must not be divided out
    target = np.eye(16)[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit, _ = cp.fit_cubic_phase(target, fock.cubic_phase_op(0.05, 16).apply(target))
    assert fit == pytest.approx(0.05, abs=1e-3)


def test_homodyne_density_matches_moments():
    # with g = 0 the joint is a product, so the homodyned mode's density must
    # carry the corrected ancilla's quadrature moments
    cfg = cp.CubicGateConfig(coupling_g=0.0, post_select_n=1)
    resource = cp.prepare_ancilla(cfg)
    anc = fock.squeeze_op(cfg.correction_s, cfg.dim).apply(
        fock.photon_count(resource, outcome=1).conditional)
    joint = cp.couple(fock.vacuum_state(cfg.dim), anc, cfg)
    grid, dens = cp.homodyne_density(joint, cfg)
    total = simpson(dens, x=grid)
    mean = simpson(grid * dens, x=grid) / total
    var = simpson(grid**2 * dens, x=grid) / total - mean**2
    m, c = fock.quadrature_moments(anc)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert mean == pytest.approx(m[0], abs=1e-8)
    assert var == pytest.approx(c[0, 0], abs=1e-8)


def test_excess_kurtosis_flags_gaussians():
    assert abs(cp.excess_kurtosis_x(fock.vacuum_state(12))) < 1e-7
    sq = fock.squeeze_op(0.3, 24).apply(fock.vacuum_state(24))
    assert abs(cp.excess_kurtosis_x(sq)) < 1e-6
    # |1> is strongly platykurtic in x
    assert cp.excess_kurtosis_x(np.eye(12)[1]) < -0.5


def test_excess_kurtosis_of_number_states_is_exact():
    # <x^4> = 3/4 (2n^2 + 2n + 1) and <x^2> = n + 1/2 for |n>
    for n in range(6):
        expect = 0.75 * (2 * n * n + 2 * n + 1) / (n + 0.5) ** 2 - 3.0
        assert abs(cp.excess_kurtosis_x(np.eye(12)[n]) - expect) <= 1e-12


def quadrature_wavefunction(state, x):
    """psi(x) = sum_n c_n phi_n(x) for a one-mode state, in complex arithmetic."""
    return state @ fock.hermite_functions(len(state), x)


def _simpson_overlap(target_in, target_out, gamma):
    grid = fock.default_grid(max(len(target_in), len(target_out)))
    psi_in = quadrature_wavefunction(fock._normalized(target_in), grid)
    psi_out = quadrature_wavefunction(fock._normalized(target_out), grid)
    ref = np.exp(1j * gamma * grid**3) * psi_in
    ov = simpson(psi_out.conj() * ref, x=grid)
    nn = simpson(np.abs(psi_out) ** 2, x=grid) * simpson(np.abs(ref) ** 2, x=grid)
    return float(abs(ov) ** 2 / nn)


def _simpson_kurtosis(state):
    grid = fock.default_grid(len(state))
    dens = np.abs(quadrature_wavefunction(fock._normalized(state), grid)) ** 2
    total = simpson(dens, x=grid)
    mu = simpson(grid * dens, x=grid) / total
    m2 = simpson((grid - mu) ** 2 * dens, x=grid) / total
    m4 = simpson((grid - mu) ** 4 * dens, x=grid) / total
    return float(m4 / m2**2 - 3.0)


def test_diagnostics_match_simpson_on_the_default_grid():
    # the trapezoid overlap and the grid-free kurtosis agree with Simpson's
    # rule on the default grid for the seed-7 reference run
    cfg = cp.CubicGateConfig()
    rec = cp.run_gate(cfg, seed=7)
    d = rec.diagnostics
    ref = _simpson_overlap(fock.vacuum_state(cfg.dim), rec.conditional_target, d["gamma_fit"])
    assert abs(d["cubic_overlap"] - ref) <= 1e-12
    ancilla = fock.photon_count(cp.prepare_ancilla(cfg), outcome=rec.count_n).conditional
    assert abs(d["ancilla_excess_kurtosis"] - _simpson_kurtosis(ancilla)) <= 1e-12


def test_homodyne_target_switch():
    # homodyning the target instead leaves a conditioned ancilla output
    cfg = cp.CubicGateConfig(homodyne_which="target", post_select_n=1)
    rec = cp.run_gate(cfg, seed=5)
    assert rec.conditional_target.shape == (cfg.dim,)
    assert abs(np.linalg.norm(rec.conditional_target) - 1.0) <= 1e-10
    # conditioning on the target's x translates the ancilla in x by g * x_m:
    # chi(y - ... ) keeps its shape, so kurtosis-type diagnostics still apply
    assert np.isfinite(rec.diagnostics["gamma_fit"])


def test_run_funnels_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cp.run_gate(cp.CubicGateConfig(), seed=7)


def test_an_outcome_of_zero_density_is_refused():
    cfg = cp.CubicGateConfig(dim=8)
    with pytest.raises(ValueError, match=r"homodyne outcome x=0\.5 has zero density"):
        cp.readout_and_condition(np.zeros((cfg.dim, cfg.dim)), cfg, fixed_x=0.5)
