"""Tests for the truncated Fock-space layer.

Every one-mode operator is built as exp(-iH) from eigenpairs of its
generator: the displacement and the cubic phase from x's one cached
eigendecomposition, the squeeze from its own.  Where an operator has a
closed-form matrix element (displacement), that build is checked against the
analytic expression as an independent route; scipy's expm of the same
truncated generators is kept here as a second reference.
"""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.linalg import expm
from scipy.special import factorial, gammaln, genlaguerre

from cvsim import fock

R2DB = 0.2302585092994046          # e^{-2r} = 10^{-0.2}
TMSV_P0 = 0.9488002397025415       # 1/cosh^2(r)
TMSV_P1 = 0.04857834484294133      # P0 * tanh^2(r)
SINH2_R = 0.053962634235326705     # sinh^2(r)


def geometric_pmf(r, dim):
    lam = math.tanh(r)
    p = (1 - lam**2) * lam ** (2 * np.arange(dim))
    return p


def coherent_state(alpha, dim):
    """Truncated coherent state |alpha> (alpha != 0), renormalised."""
    n = np.arange(dim)
    log_amp = n * np.log(complex(alpha)) - 0.5 * gammaln(n + 1.0) - 0.5 * abs(alpha) ** 2
    return fock._normalized(np.exp(log_amp))


def quadrature_wavefunction(state, x):
    """psi(x) = sum_n c_n phi_n(x) for a one-mode state, in complex arithmetic."""
    return state @ fock.hermite_functions(len(state), x)


def probabilities(state, mode=0):
    """Photon-number distribution of one mode (the marginal, for two modes)."""
    p = np.abs(state) ** 2
    return p if p.ndim == 1 else p.sum(axis=1 - mode)


def mean_photon(state, mode=0):
    return float(probabilities(state, mode) @ np.arange(len(state)))


def displacement_exact(alpha, dim):
    """Closed-form matrix elements <m|D(alpha)|n> (Laguerre form)."""
    d = np.zeros((dim, dim), dtype=complex)
    aa = abs(alpha) ** 2
    for m in range(dim):
        for n in range(dim):
            if m >= n:
                poly = genlaguerre(n, m - n)(aa)
                d[m, n] = (
                    math.sqrt(factorial(n) / factorial(m))
                    * alpha ** (m - n) * math.exp(-0.5 * aa) * poly
                )
            else:
                poly = genlaguerre(m, n - m)(aa)
                d[m, n] = (
                    math.sqrt(factorial(m) / factorial(n))
                    * (-alpha.conjugate()) ** (n - m) * math.exp(-0.5 * aa) * poly
                )
    return d


def test_ladder_algebra():
    a = fock.annihilation(12)
    comm = a @ a.conj().T - a.conj().T @ a
    # [a, a^dag] = 1 except at the truncation corner
    assert np.allclose(comm[:11, :11], np.eye(12)[:11, :11])
    x, p = fock.position_op(12), fock.momentum_op(12)
    assert np.allclose((x @ p - p @ x)[:11, :11], 1j * np.eye(12)[:11, :11], atol=1e-12)


def test_tmsv_marginal_is_geometric():
    st = fock.tmsv(R2DB, 20)
    pmf = probabilities(st, 0)
    want = geometric_pmf(R2DB, 20)
    assert abs(pmf[0] - TMSV_P0) < 1e-10
    assert abs(pmf[1] - TMSV_P1) < 1e-10
    assert 0.5 * np.abs(pmf - want).sum() < 1e-8  # total-variation distance
    assert math.isclose(np.linalg.norm(st), 1.0, abs_tol=1e-12)
    # both marginals identical (perfect photon-number correlation)
    assert np.allclose(probabilities(st, 0), probabilities(st, 1), atol=1e-15)


def test_tmsv_truncation_warning():
    with pytest.warns(fock.TruncationWarning):
        fock.tmsv(1.5, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fock.tmsv(R2DB, 20)  # tail ~ 1e-26, must stay quiet


def test_photon_count_conditional_on_tmsv():
    st = fock.tmsv(R2DB, 20)
    res = fock.photon_count(st, outcome=1)
    assert res.n == 1
    assert abs(res.probability - TMSV_P1) < 1e-10
    want = np.zeros(20)
    want[1] = 1.0
    assert np.allclose(np.abs(res.conditional), want, atol=1e-12)


def test_photon_count_impossible_outcome():
    st = fock.tmsv(R2DB, 20)
    # displace nothing: odd-offdiagonal outcomes keep zero probability on |n><n|
    amps = np.zeros((6, 6), dtype=complex)
    amps[0, 0] = 1.0
    with pytest.raises(ValueError):
        fock.photon_count(amps, outcome=3)
    with pytest.raises(ValueError):
        fock.photon_count(st, outcome=25)


def test_photon_count_sampling_frequencies():
    st = fock.tmsv(R2DB, 20)
    rng = np.random.default_rng(17)
    draws = np.array([fock.photon_count(st, rng=rng).n for _ in range(4000)])
    pmf = probabilities(st, 1)
    for n in (0, 1, 2):
        se = math.sqrt(pmf[n] * (1 - pmf[n]) / draws.size)
        assert abs((draws == n).mean() - pmf[n]) < 4 * se


def test_displacement_against_closed_form():
    alpha = 0.8 + 0.35j
    dim = 30
    op = fock.displacement_op(alpha, dim)
    exact = displacement_exact(alpha, dim)
    # interior agreement; the truncated-generator build deviates only near the
    # truncation corner
    k = dim - dim // 2
    assert np.abs(op.matrix[:k, :k] - exact[:k, :k]).max() < 1e-10


@pytest.mark.parametrize("dim, cubic_dim, cubic_pad", [(16, 16, 8), (32, 20, 20), (64, 32, 16)])
def test_one_mode_builder_matches_references(dim, cubic_dim, cubic_pad):
    alpha, s, gamma = 0.5 + 1j, 0.15, 0.05
    a = fock.annihilation(dim)
    ad = a.conj().T
    d_ref = expm(alpha * ad - alpha.conjugate() * a)
    s_ref = expm(0.5 * s * (a @ a - ad @ ad))
    assert np.abs(fock.displacement_op(alpha, dim).matrix - d_ref).max() <= 1e-13
    assert np.abs(fock.squeeze_op(s, dim).matrix - s_ref).max() <= 1e-13
    # the cubic phase as V diag(e^{i gamma xi^3}) V^H from the x eigenbasis
    xi, v, _, _ = fock._quadrature_eigh(cubic_dim + cubic_pad)
    c_ref = ((v * np.exp(1j * gamma * xi ** 3)) @ v.conj().T)[:cubic_dim, :cubic_dim]
    op = fock.cubic_phase_op(gamma, cubic_dim, cubic_pad)
    assert np.abs(op.matrix - c_ref).max() <= 1e-13
    # and independently of that eigenbasis, as expm of the workspace x^3, cropped
    x = fock.position_op(cubic_dim + cubic_pad)
    c_expm = expm(1j * gamma * x @ x @ x)[:cubic_dim, :cubic_dim]
    assert np.abs(op.matrix - c_expm).max() <= 1e-13


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(dim=st.integers(8, 64), size=st.floats(0.0, 1.0, exclude_max=True),
       phase=st.floats(-math.pi, math.pi))
def test_displacement_matches_expm(dim, size, phase):
    # |alpha|^2 up to dim/4, the bound above which displacement_op warns
    alpha = size * math.sqrt(dim / 4.0) * complex(math.cos(phase), math.sin(phase))
    a = fock.annihilation(dim)
    d_ref = expm(alpha * a.conj().T - alpha.conjugate() * a)
    assert np.abs(fock.displacement_op(alpha, dim).matrix - d_ref).max() <= 1e-12


def test_zero_generators_give_the_identity():
    for op in (fock.displacement_op(0.0, 12), fock.squeeze_op(0.0, 12),
               fock.cubic_phase_op(0.0, 12)):
        assert np.array_equal(op.matrix, np.eye(12))


def test_displacement_is_exactly_unitary():
    op = fock.displacement_op(1.1 - 0.4j, 25)
    eye = op.matrix.conj().T @ op.matrix
    assert np.abs(eye - np.eye(25)).max() < 1e-12
    inv = fock.displacement_op(-(1.1 - 0.4j), 25)
    assert np.abs((inv.matrix @ op.matrix) - np.eye(25)).max() < 1e-12


def test_displacement_makes_coherent_state():
    op = fock.displacement_op(1.0, 30)
    st = op.apply(fock.vacuum_state(30))
    # |<0|alpha>|^2 = e^{-1}
    assert abs(abs(st[0]) ** 2 - math.exp(-1.0)) < 1e-12
    want = coherent_state(1.0, 30)
    assert np.abs(st - want).max() < 1e-10
    assert abs(mean_photon(st) - 1.0) < 1e-10


def test_displacement_truncation_warning():
    with pytest.warns(fock.TruncationWarning):
        fock.displacement_op(3.0, 12)


def test_displacement_past_the_float_range():
    # |alpha|^2 is past the float range from |alpha| ~ 1.34e154: it still warns
    with pytest.warns(fock.TruncationWarning):
        op = fock.displacement_op(1e200, 16)
    assert np.isfinite(op.matrix).all()
    # alpha sqrt(n) is past it too: refused by name before the eigensolver
    with pytest.warns(fock.TruncationWarning), pytest.raises(ValueError, match="^alpha: "):
        fock.displacement_op(1e308, 16)


def test_displaced_tmsv_mean_photon():
    st = fock.tmsv(R2DB, 20)
    alpha = 1.2
    st = fock.displacement_op(alpha, 20).apply(st, mode=1)
    assert abs(mean_photon(st, 1) - (SINH2_R + alpha**2)) < 1e-6
    # the other arm keeps the thermal photon number sinh^2 r
    assert abs(mean_photon(st, 0) - SINH2_R) < 1e-10
    assert math.isclose(np.linalg.norm(st), 1.0, abs_tol=1e-12)


def test_squeeze_op_variances():
    for s in (0.3, -0.3):
        st = fock.squeeze_op(s, 40).apply(fock.vacuum_state(40))
        mean, cov = fock.quadrature_moments(st)
        assert np.allclose(mean, 0, atol=1e-12)
        assert abs(cov[0, 0] - 0.5 * math.exp(-2 * s)) < 1e-10
        assert abs(cov[1, 1] - 0.5 * math.exp(2 * s)) < 1e-10
        assert abs(cov[0, 1]) < 1e-12
        # squeezed vacuum has even-photon support only
        assert np.abs(st[1::2]).max() < 1e-14


def test_squeeze_warning_small_dim():
    # the check runs on every call, outside the operator cache
    for s, dim in ((2.5, 10), (50.0, 16), (50.0, 16)):
        with pytest.warns(fock.TruncationWarning):
            fock.squeeze_op(s, dim)


def test_cached_arrays_refuse_writes():
    grid = fock.default_grid(16)
    table = fock._hermite_table(16, grid)
    assert fock._hermite_table(16, grid.copy()) is table  # keyed on the grid's contents
    assert np.array_equal(table, fock.hermite_functions(16, grid))
    for a in (table, *fock._quadrature_eigh(24), fock.qnd_coupling_op(1.0, 16).x_rows,
              fock.squeeze_op(0.15, 16).matrix):
        with pytest.raises(ValueError):
            a[0] = 0


def test_coupling_is_shared_and_read_only():
    # cached per (g, dim, workspace): a second call returns the same object,
    # so nothing may change it through the object a caller holds
    u = fock.qnd_coupling_op(0.75, 16, pad=4)
    assert fock.qnd_coupling_op(0.75, 16, pad=4) is u
    assert fock.qnd_coupling_op(0.0, 8) is fock.qnd_coupling_op(-0.0, 8)
    cube = fock._grid_cube(fock.default_grid(16))
    assert np.array_equal(cube, fock.default_grid(16) ** 3)
    for a in (u.phase, u.x_rows, u.p_rows, cube, fock.qnd_coupling_op(0.0, 8).phase):
        with pytest.raises(ValueError):
            a[0] = 0
    with pytest.raises(TypeError):
        u.diagnostics["interior_unitarity"] = 1.0
    assert u.diagnostics["interior_unitarity"] <= 1e-12


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(nmax=st.integers(1, 128), x=st.floats(-60.0, 60.0))
@example(nmax=1, x=0.5)
@example(nmax=2, x=-60.0)
def test_hermite_functions_at_a_scalar(nmax, x):
    # the readout evaluates the outcome x_m on a scalar: the same recurrence
    # on numpy scalars, bit for bit what a one-point grid gives
    at_x = fock.hermite_functions(nmax, x)
    assert at_x.shape == (nmax,)
    assert np.array_equal(at_x, fock.hermite_functions(nmax, np.array([x]))[:, 0])


def test_unitaries_preserve_norm():
    st = coherent_state(0.7 + 0.1j, 30)
    for op in (fock.displacement_op(0.5j, 30), fock.squeeze_op(0.4, 30)):
        assert abs(np.linalg.norm(op.apply(st)) - 1.0) < 1e-12
    # the coupling is workspace-built, so norm preservation holds to the
    # cutoff-leakage level of the input, not to machine precision
    amps = np.zeros((16, 16), dtype=complex)
    amps[0, 0] = 1.0
    u = fock.qnd_coupling_op(1.0, 16)
    assert abs(np.linalg.norm(u.apply(amps)) - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# cubic phase


def test_cubic_phase_identity_at_zero():
    op = fock.cubic_phase_op(0.0, 14)
    assert np.array_equal(op.matrix, np.eye(14))


def test_cubic_phase_interior_unitarity():
    op = fock.cubic_phase_op(0.05, 20, pad=20)
    assert op.diagnostics["interior_unitarity"] <= 1e-8


def test_cubic_phase_commutes_with_position():
    # [exp(i gamma x^3), x] = 0; on truncated matrices this survives on the
    # interior block (margin min(pad, dim//2))
    dim, pad = 20, 20
    op = fock.cubic_phase_op(0.05, dim, pad=pad).matrix
    x = fock.position_op(dim)
    comm = op @ x - x @ op
    k = dim - min(pad, dim // 2)
    assert np.linalg.norm(comm[:k, :k]) < 1e-6


def test_cubic_phase_profile_on_broad_gaussian():
    # anti-squeezed vacuum (x-variance 0.911) picks up the phase gamma*x^3;
    # the +-6 grid is inside the cutoff range on purpose (the phase is
    # pointwise, so the grid need not hold the whole norm)
    gamma, dim = 0.05, 20
    st = fock.squeeze_op(-0.3, dim).apply(fock.vacuum_state(dim))
    out = fock.cubic_phase_op(gamma, dim, pad=dim).apply(st)
    grid = np.linspace(-6, 6, 2048)
    psi_in = quadrature_wavefunction(st, grid)
    psi_out = quadrature_wavefunction(out, grid)
    window = np.abs(grid) <= 2.0
    dphi = np.unwrap(np.angle(psi_out / psi_in))[window]
    resid = dphi - gamma * grid[window] ** 3
    resid -= resid.mean()
    assert np.abs(resid).max() < 1e-3


def test_cubic_phase_alias_warning():
    with pytest.warns(fock.TruncationWarning):
        fock.cubic_phase_op(0.3, 20)


# ---------------------------------------------------------------------------
# QND coupling


def test_qnd_identity_at_zero():
    op = fock.qnd_coupling_op(0.0, 8)
    assert np.array_equal(op.matrix, np.eye(64))


def test_qnd_matches_dense_exponential_small_dim():
    # the eigenbasis block build must equal expm of the kron generator
    dim, g = 6, 0.7
    op = fock.qnd_coupling_op(g, dim, pad=0)
    x = fock.position_op(dim)
    p = fock.momentum_op(dim)
    dense = expm(-1j * g * np.kron(x, p))
    assert np.abs(op.matrix - dense).max() < 1e-12


def test_qnd_heisenberg_relation():
    resid = fock.qnd_heisenberg_residual(1.0, 16, pad=48)
    assert resid <= 1e-6


def test_qnd_commutes_with_signal_position():
    dim = 16
    u = fock.qnd_coupling_op(1.0, dim).matrix
    x1 = np.kron(fock.position_op(dim), np.eye(dim))
    comm = u @ x1 - x1 @ u
    # truncation only corrupts the last number-state row/col of each factor
    interior = comm.reshape(dim, dim, dim, dim)[: dim - 1, : dim - 1, : dim - 1, : dim - 1]
    assert np.abs(interior).max() < 1e-10


def test_qnd_displaces_target_by_signal():
    # couple |x ~ coherent(alpha real)> with vacuum: target mean x gains g<x1>
    dim, g = 20, 0.8
    sig = coherent_state(1.0, dim)  # <x1> = sqrt(2)
    tgt = fock.vacuum_state(dim)
    out = fock.qnd_coupling_op(g, dim, pad=12).apply(np.outer(sig, tgt))
    mean1, _ = fock.quadrature_moments(out, mode=1)
    assert abs(mean1[0] - g * math.sqrt(2.0)) < 1e-6
    mean0, cov0 = fock.quadrature_moments(out, mode=0)
    assert abs(mean0[0] - math.sqrt(2.0)) < 1e-6  # signal x untouched


def test_qnd_workspace_cap():
    with pytest.raises(ValueError):
        fock.qnd_coupling_op(1.0, 100, pad=100)
    with pytest.raises(ValueError, match="qnd_pad"):
        fock.qnd_coupling_op(1.0, 16, pad=-3)
    with pytest.raises(ValueError, match="qnd_pad"):
        fock.qnd_heisenberg_residual(1.0, 16, pad=-3)
    with pytest.raises(ValueError, match="dim \\+ qnd_pad"):
        fock.qnd_heisenberg_residual(1.0, 40, pad=120)  # workspace 160


def test_qnd_heisenberg_default_pad_fits_the_workspace():
    # the default pad 3*dim is capped at QND_WORKSPACE_LIMIT - dim (88 here)
    resid = fock.qnd_heisenberg_residual(1.0, 40)
    assert math.isfinite(resid) and resid <= 1e-6


def _qnd_reference(g, dim, pad, amps):
    """exp(-i g x1 p2) on the joint amplitudes by explicit exponentials: one
    expm(-i g xi_k p) per x1 eigenvalue on the workspace, or at pad 0 the
    expm of the Kronecker generator."""
    if pad == 0:
        gen = np.kron(fock.position_op(dim), fock.momentum_op(dim))
        return (expm(-1j * g * gen) @ amps.reshape(-1)).reshape(dim, dim)
    w = dim + pad
    xi, v = np.linalg.eigh(fock.position_op(w))
    p = fock.momentum_op(w)
    blocks = np.array([expm(-1j * g * k * p)[:dim, :dim] for k in xi])
    vd = v[:dim]
    return np.einsum("mk,nk,kab,nb->ma", vd, vd.conj(), blocks, amps)


@pytest.mark.parametrize("pad", [12, 0])
def test_qnd_factored_apply_matches_expm_reference(pad):
    dim, g = 24, 0.9
    rng = np.random.default_rng(11)
    amps = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    amps /= np.linalg.norm(amps)
    out = fock.qnd_coupling_op(g, dim, pad=pad).apply(amps)
    assert np.abs(out - _qnd_reference(g, dim, pad, amps)).max() < 1e-12


@pytest.mark.parametrize("workspace", [8, 48, 128])
def test_quadrature_eigh_gives_p_from_x(workspace):
    xi, v, pi, w = fock._quadrature_eigh(workspace)
    eye = np.eye(workspace)
    assert np.array_equal(pi, -xi)
    assert np.linalg.norm(fock.momentum_op(workspace) @ w - w * pi) <= 1e-12
    assert np.linalg.norm(w.conj().T @ w - eye) <= 1e-12
    # W = D^H V, and p = -D^H x D exactly, with D = diag(i^n)
    d = np.array([1.0, 1j, -1.0, -1j])[np.arange(workspace) % 4]
    assert np.array_equal(w, d.conj()[:, None] * v)
    x = fock.position_op(workspace)
    assert np.array_equal(fock.momentum_op(workspace), -(d.conj()[:, None] * x * d))


def test_qnd_interior_unitarity_closed_form():
    dim, pad = 8, 4
    eye = np.eye(dim)
    # on a factor far from orthonormal the closed form is the explicit norm
    rng = np.random.default_rng(3)
    a = rng.normal(size=(dim, dim + pad)) + 1j * rng.normal(size=(dim, dim + pad))
    aa = a @ a.conj().T
    explicit = np.linalg.norm(np.kron(aa, aa) - np.eye(dim * dim))
    assert fock._product_gram_defect(a) == pytest.approx(explicit, rel=1e-12)
    # on the operator's own factor (a rounding-level defect) the explicit
    # Gram defect is formed as E (x) A + I (x) E so that it is not lost to
    # cancellation against the identity; W_d is V_d with a phase on each row
    op = fock.qnd_coupling_op(1.0, dim, pad=pad)
    aa = op.x_rows @ op.x_rows.conj().T
    e = aa - eye
    explicit = np.linalg.norm(np.kron(e, aa) + np.kron(eye, e))
    unit = op.diagnostics["interior_unitarity"]
    assert unit == pytest.approx(explicit, rel=1e-9)
    assert unit < 1e-13


def test_gate_dim_64_keeps_target_normalized():
    from cvsim import cubicphase
    record = cubicphase.run_gate(cubicphase.CubicGateConfig(dim=64), seed=7)
    assert record.diagnostics["target_norm_defect"] <= 1e-12


# ---------------------------------------------------------------------------
# wavefunctions / homodyne


def test_hermite_orthonormality_on_default_grid():
    dim = 24
    grid = fock.default_grid(dim)
    basis = fock.hermite_functions(dim, grid)
    gram = simpson(basis[:, None, :] * basis[None, :, :], x=grid, axis=-1)
    assert np.abs(gram - np.eye(dim)).max() < 1e-6


def test_wavefunction_known_shapes():
    grid = np.linspace(-5, 5, 1001)
    vac = quadrature_wavefunction(fock.vacuum_state(10), grid)
    assert np.allclose(vac, math.pi ** -0.25 * np.exp(-0.5 * grid**2), atol=1e-12)
    one = quadrature_wavefunction(np.eye(10)[1], grid)
    assert abs(one[500]) < 1e-12  # node at the origin
    psi = quadrature_wavefunction(coherent_state(1.0, 40), grid)
    xbar = simpson(grid * np.abs(psi) ** 2, x=grid)
    assert abs(xbar - math.sqrt(2.0)) < 2e-5  # grid truncation at |x|=5


def test_coarse_grid_warning():
    # phi_{dim-1} needs a spacing below pi/sqrt(2*dim)
    with pytest.warns(fock.TruncationWarning, match="phi_15"):
        fock.default_grid(16, n_points=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fock.default_grid(16, n_points=48)  # spacing 0.37 < 0.56
        fock.default_grid(85)


def test_grid_sampler_moments():
    n = 120_000
    grid = fock.default_grid(12)

    def draws(state, seed):
        dens = np.abs(quadrature_wavefunction(state, grid)) ** 2
        return fock._sample_grid_density(grid, dens, np.random.default_rng(seed).uniform(size=n))

    # vacuum: Var(x) = 1/2
    xs = draws(fock.vacuum_state(12), 3)
    assert abs(xs.mean()) < 4 * math.sqrt(0.5 / n)
    assert abs(xs.var() - 0.5) < 4 * 0.5 * math.sqrt(2.0 / n) + 0.01
    # |1>: <x^2> = 3/2
    xs = draws(np.eye(12)[1], 4)
    assert abs((xs**2).mean() - 1.5) < 0.02


# ---------------------------------------------------------------------------
# convergence harness: dim N vs 2N agree on the first N/2 amplitudes


def _test_states(dim):
    sup = np.zeros(dim, dtype=complex)
    sup[0] = sup[2] = 1 / math.sqrt(2)
    return [fock.vacuum_state(dim), np.eye(dim)[1], sup]


@pytest.mark.parametrize("build", [
    lambda d: fock.displacement_op(0.7 + 0.2j, d),
    lambda d: fock.squeeze_op(0.3, d),
    lambda d: fock.cubic_phase_op(0.05, d, pad=d),
])
def test_one_mode_convergence(build):
    n = 16
    with warnings.catch_warnings():
        # the small-dim build may legitimately flag its tail weight
        warnings.simplefilter("ignore", fock.TruncationWarning)
        op_n, op_2n = build(n), build(2 * n)
    for st_n, st_2n in zip(_test_states(n), _test_states(2 * n)):
        out_n = op_n.apply(st_n)[: n // 2]
        out_2n = op_2n.apply(st_2n)[: n // 2]
        assert np.abs(out_n - out_2n).max() < 1e-6


def test_qnd_convergence():
    n = 12
    make = lambda d: np.outer(coherent_state(0.6, d), coherent_state(0.3j, d))
    out_n = fock.qnd_coupling_op(1.0, n).apply(make(n))[: n // 2, : n // 2]
    out_2n = fock.qnd_coupling_op(1.0, 2 * n).apply(make(2 * n))[: n // 2, : n // 2]
    assert np.abs(out_n - out_2n).max() < 1e-6


# ---------------------------------------------------------------------------
# cross-checks against the Gaussian layer


def test_moments_match_gaussian_layer():
    from cvsim import gaussian
    # squeezed vacuum
    mean_f, cov_f = fock.quadrature_moments(
        fock.squeeze_op(0.3, 40).apply(fock.vacuum_state(40)))
    sg = gaussian.squeezed_vacuum(0.3, 0.0)
    assert np.abs(mean_f - sg.mean).max() < 1e-6
    assert np.abs(cov_f - sg.cov).max() < 1e-6
    # displaced vacuum
    mean_f, cov_f = fock.quadrature_moments(
        fock.displacement_op(0.9 - 0.4j, 40).apply(fock.vacuum_state(40)))
    dg = gaussian.displace(gaussian.vacuum(1), 0, 0.9 - 0.4j)
    assert np.abs(mean_f - dg.mean).max() < 1e-6
    assert np.abs(cov_f - dg.cov).max() < 1e-6


def test_tmsv_reduced_cov_matches_epr_beam():
    from cvsim import gaussian
    st = fock.tmsv(R2DB, 24)
    _, cov_f = fock.quadrature_moments(st, mode=0)
    epr = gaussian.beamsplitter_op(2, 0, 1, 0.5).apply(
        gaussian.tensor(gaussian.squeezed_vacuum(R2DB, 0.0),
                        gaussian.squeezed_vacuum(R2DB, math.pi / 2)))
    assert np.abs(cov_f - epr.mode_cov(0)).max() < 1e-8


@pytest.mark.parametrize("dim", [8, 16])
def test_moments_exact_at_the_cutoff(dim):
    # x^2 and p^2 reach one level above the state: <dim-1| x^2 |dim-1> = dim - 1/2
    _, cov = fock.quadrature_moments(np.eye(dim)[dim - 1])
    assert np.abs(cov - (dim - 0.5) * np.eye(2)).max() <= 1e-12
    # a superposition reaching the top level against its grid moments: the
    # rotated quadrature x cos t + p sin t is x in the state with amplitudes
    # c_n e^{-i n t}, and its variance is (cos t, sin t) cov (cos t, sin t)^T
    amps = np.zeros(dim, dtype=complex)
    amps[[0, dim - 2, dim - 1]] = [0.6, 0.48j, 0.64 * np.exp(0.3j)]
    mean, cov = fock.quadrature_moments(amps)
    grid = fock.default_grid(dim)
    for t in (0.0, math.pi / 2, math.pi / 4):
        rotated = amps * np.exp(-1j * t * np.arange(dim))
        dens = np.abs(quadrature_wavefunction(rotated, grid)) ** 2
        m1, m2 = (fock._grid_integral(grid, grid ** k * dens)[-1] for k in (1, 2))
        u = np.array([math.cos(t), math.sin(t)])
        assert m1 == pytest.approx(u @ mean, abs=1e-10)
        assert m2 - m1 ** 2 == pytest.approx(u @ cov @ u, abs=1e-10)


@pytest.mark.parametrize("call, message", [
    (lambda: fock._normalized(np.zeros(3)), "cannot normalize the zero vector"),
    (lambda: fock.FockOperator(np.zeros((2, 3))), "operator matrix must be square"),
    (lambda: fock.FockOperator(np.eye(3)).apply(np.ones(4)), "operator/state cutoff mismatch"),
    (lambda: fock.qnd_coupling_op(0.5, 4).apply(np.ones(4)),
     "cannot apply a two-mode operator to a one-mode state"),
    (lambda: fock.qnd_coupling_op(0.5, 4).apply(np.ones((5, 5))), "operator/state cutoff mismatch"),
    (lambda: fock.tmsv(-1.01 * fock.MAX_SQUEEZING_R, 4),
     rf"\|r\| > {fock.MAX_SQUEEZING_R} is not supported \(got r="),
    (lambda: fock.photon_count(fock.vacuum_state(4)), "photon_count expects a two-mode state"),
    (lambda: fock.photon_count(np.ones((3, 3))), r"state is not normalized \(total probability 9\.0"),
    (lambda: fock.qnd_coupling_op(0.5, 1), "need dim >= 2"),
    # the cubic phase's workspace pad, refused before any build
    (lambda: fock.cubic_phase_op(0.05, 16, pad=-3), "^qnd_pad: must be >= 0, got -3$"),
    (lambda: fock.cubic_phase_op(0.05, 16, pad=-20), "^qnd_pad: must be >= 0, got -20$"),
    (lambda: fock.cubic_phase_op(0.05, 16, pad=1500),
     r"^dim, qnd_pad: QND workspace dim \+ qnd_pad = 16 \+ 1500 per mode exceeds the limit"),
])
def test_refusals_name_the_fault(call, message):
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        call()
    assert time.perf_counter() - t0 < 0.1
