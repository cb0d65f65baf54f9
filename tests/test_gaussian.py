"""Tests for the Gaussian-state layer.

Frozen expected values are derived by hand from the covariance formalism
(vacuum variance 1/2 conventions); derivations noted next to each constant.
"""

import math

import numpy as np
import pytest
from scipy.linalg import block_diag

from cvsim import gaussian as g

# e^{-2r} = 10^{-0.2}: the squeezing that puts the squeezed quadrature at -2 dB
R2DB = 0.2302585092994046

# 0.5 * 10^{-0.2} and 0.5 * 10^{+0.2}
SQ_VAR = 0.31547867224009657
ANTISQ_VAR = 0.7924465962305568

# single EPR beam variance cosh(2r)/2 and its dB value
EPR_BEAM_VAR = 0.5539626342353268
EPR_BEAM_DB = 0.4451046744531254


def rotate(state, mode, theta):
    """a -> e^{i theta} a on one mode, as a SymplecticOp with a rotation2 block."""
    s = np.eye(2 * state.num_modes)
    s[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = g.rotation2(theta)
    return g.SymplecticOp(s).apply(state)


def purity(state):
    """Tr rho^2 = 1/sqrt(det(2V)) for Gaussian states."""
    return 1.0 / math.sqrt(np.linalg.det(2.0 * state.cov))


def random_state(rng, num_modes=2):
    """Random pure Gaussian state: squeezed vacua, rotated, mixed on splitters, displaced."""
    sq = [g.squeezed_vacuum(rng.uniform(-0.8, 0.8), rng.uniform(0, math.pi)) for _ in range(num_modes)]
    st = g.tensor(*sq)
    for mode in range(num_modes):
        st = rotate(st, mode, rng.uniform(0, 2 * math.pi))
    for _ in range(3):
        a, b = rng.choice(num_modes, size=2, replace=False)
        st = g.beamsplitter_op(num_modes, a, b, rng.uniform(0.2, 0.8),
                               rng.uniform(0, 2 * math.pi)).apply(st)
    for mode in range(num_modes):
        st = g.displace(st, mode, complex(rng.normal(), rng.normal()))
    return st


def epr_pair(r=R2DB):
    """x-squeezed + p-squeezed on a 50:50 splitter."""
    st = g.tensor(g.squeezed_vacuum(r, 0.0), g.squeezed_vacuum(r, math.pi / 2))
    return g.beamsplitter_op(2, 0, 1, 0.5).apply(st)


def test_vacuum():
    st = g.vacuum(2)
    assert np.allclose(st.mean, 0)
    assert np.allclose(st.cov, 0.5 * np.eye(4))
    assert math.isclose(purity(st), 1.0, abs_tol=1e-12)


def test_squeezed_vacuum_variances():
    st = g.squeezed_vacuum(R2DB, 0.0)
    assert math.isclose(st.cov[0, 0], SQ_VAR, rel_tol=1e-12)
    assert math.isclose(st.cov[1, 1], ANTISQ_VAR, rel_tol=1e-12)
    assert math.isclose(g.noise_power_db(st.cov[0, 0]), -2.0, abs_tol=1e-12)
    assert math.isclose(g.noise_power_db(st.cov[1, 1]), 2.0, abs_tol=1e-12)
    # squeezing along p instead
    stp = g.squeezed_vacuum(R2DB, math.pi / 2)
    assert math.isclose(stp.cov[1, 1], SQ_VAR, rel_tol=1e-12)
    assert math.isclose(stp.cov[0, 0], ANTISQ_VAR, rel_tol=1e-12)
    # pure state at any r
    assert math.isclose(purity(st), 1.0, abs_tol=1e-12)


def test_squeezed_vacuum_angle_matches_rotation():
    for theta in (0.3, 1.1, 2.7):
        direct = g.squeezed_vacuum(0.4, theta)
        rotated = rotate(g.squeezed_vacuum(0.4, 0.0), 0, theta)
        assert np.allclose(direct.cov, rotated.cov, atol=1e-12)


def test_extreme_squeezing_rejected():
    with pytest.raises(ValueError):
        g.squeezed_vacuum(10.5)
    with pytest.raises(ValueError):
        g.squeezed_vacuum(-11.0)


def test_unphysical_cov_rejected():
    with pytest.raises(ValueError):
        g.GaussianState(np.zeros(2), 0.1 * np.eye(2))
    with pytest.raises(ValueError):
        g.GaussianState(np.zeros(2), np.array([[0.5, 0.3], [0.1, 0.5]]))


def test_beamsplitter_is_symplectic():
    rng = np.random.default_rng(7)
    w = g.omega(2)
    for _ in range(25):
        op = g.beamsplitter_op(2, 0, 1, rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        s = op.matrix
        assert np.abs(s.T @ w @ s - w).max() < 1e-12


def test_beamsplitter_inverse_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(10):
        st = random_state(rng)
        t = rng.uniform(0.1, 0.9)
        phi = rng.uniform(0, 2 * math.pi)
        split = g.beamsplitter_op(2, 0, 1, t, phi).apply(st)
        out = g.beamsplitter_op(2, 0, 1, t, phi + math.pi).apply(split)
        assert np.allclose(out.mean, st.mean, atol=1e-12)
        assert np.allclose(out.cov, st.cov, atol=1e-12)


def test_beamsplitter_conserves_energy():
    # passive optics: total mean photon number is invariant
    rng = np.random.default_rng(3)
    for _ in range(10):
        st = random_state(rng)
        out = g.beamsplitter_op(2, 0, 1, rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)).apply(st)
        def energy(s):
            return np.trace(s.cov) + s.mean @ s.mean
        assert math.isclose(energy(st), energy(out), rel_tol=1e-12)


def test_epr_correlations():
    st = epr_pair()
    # Var(x1 - x2) = Var(p1 + p2) = e^{-2r}
    ux = np.array([1.0, 0.0, -1.0, 0.0])
    up = np.array([0.0, 1.0, 0.0, 1.0])
    assert math.isclose(ux @ st.cov @ ux, 2 * SQ_VAR, rel_tol=1e-12)
    assert math.isclose(up @ st.cov @ up, 2 * SQ_VAR, rel_tol=1e-12)
    # each beam alone is thermal with variance cosh(2r)/2, same at every LO angle
    for mode in (0, 1):
        for theta in np.linspace(0, math.pi, 7):
            res = g.homodyne(st, mode, theta)
            assert math.isclose(res.variance, EPR_BEAM_VAR, rel_tol=1e-10)
    assert math.isclose(g.noise_power_db(EPR_BEAM_VAR), EPR_BEAM_DB, abs_tol=1e-12)
    assert np.allclose(st.mean, 0)


def test_displace_moves_mean_only():
    st = g.squeezed_vacuum(0.5, 0.3)
    out = g.displace(st, 0, 1.0 + 2.0j)
    assert np.allclose(out.cov, st.cov)
    assert np.allclose(out.mean, [math.sqrt(2), 2 * math.sqrt(2)])
    # displacements add
    out2 = g.displace(g.displace(st, 0, 0.3 - 0.1j), 0, 0.7 + 2.1j)
    assert np.allclose(out2.mean, out.mean, atol=1e-12)


def test_mirror_displace_approximates_displacement():
    t = 0.01
    target = 0.8 + 0.5j
    st = g.mirror_displace(g.vacuum(1), 0, target / math.sqrt(t), t)
    want = np.array([math.sqrt(2) * target.real, math.sqrt(2) * target.imag])
    # exact for a zero-mean input; sqrt(1-T) attenuation only touches the input mean
    assert np.allclose(st.mean, want, atol=1e-12)
    coh = g.displace(g.vacuum(1), 0, 1.5)
    out = g.mirror_displace(coh, 0, target / math.sqrt(t), t)
    ideal = g.displace(coh, 0, target)
    assert np.abs(out.mean - ideal.mean).max() <= 0.005 * np.abs(ideal.mean).max()


def test_mirror_displace_contracts_cov():
    t = 0.01
    st = g.squeezed_vacuum(R2DB, 0.0)
    out = g.mirror_displace(st, 0, 0.0, t)
    assert np.allclose(out.cov, (1 - t) * st.cov + t * 0.5 * np.eye(2), atol=1e-14)


def test_loss_channel():
    st = g.squeezed_vacuum(R2DB, 0.0)
    out = g.loss(st, 0, 0.5)
    # 0.5 * 0.31548 + 0.25, i.e. -0.886 dB
    assert math.isclose(out.cov[0, 0], 0.4077393361200483, rel_tol=1e-12)
    assert math.isclose(g.noise_power_db(out.cov[0, 0]), -0.8858739286964148, abs_tol=1e-12)
    # eta = 1 is the identity, eta = 0 is vacuum replacement
    same = g.loss(st, 0, 1.0)
    assert np.allclose(same.cov, st.cov) and np.allclose(same.mean, st.mean)
    vac = g.loss(g.displace(st, 0, 2.0), 0, 0.0)
    assert np.allclose(vac.cov, 0.5 * np.eye(2), atol=1e-14)
    assert np.allclose(vac.mean, 0, atol=1e-14)


def test_loss_scales_cross_correlations():
    st = epr_pair()
    eta = 0.7
    out = g.loss(st, 0, eta)
    assert np.allclose(out.cov[:2, 2:], math.sqrt(eta) * st.cov[:2, 2:], atol=1e-14)
    assert np.allclose(out.cov[2:, 2:], st.cov[2:, 2:], atol=1e-14)


def test_loss_never_creates_purity():
    rng = np.random.default_rng(19)
    for _ in range(20):
        st = random_state(rng)
        out = g.loss(st, int(rng.integers(2)), rng.uniform(0, 1))
        assert purity(out) <= 1.0 + 1e-10
        assert purity(out) <= max(purity(st), 1.0) + 1e-10


def test_homodyne_analytic():
    res = g.homodyne(g.vacuum(1), 0)
    assert res.mean == 0.0 and math.isclose(res.variance, 0.5)
    st = g.displace(g.squeezed_vacuum(R2DB, 0.0), 0, 1.0 + 1.0j)
    rx = g.homodyne(st, 0, 0.0)
    rp = g.homodyne(st, 0, math.pi / 2)
    assert math.isclose(rx.mean, math.sqrt(2), rel_tol=1e-12)
    assert math.isclose(rx.variance, SQ_VAR, rel_tol=1e-12)
    assert math.isclose(rp.mean, math.sqrt(2), rel_tol=1e-12)
    assert math.isclose(rp.variance, ANTISQ_VAR, rel_tol=1e-12)


@pytest.mark.parametrize("make", [
    lambda: g.vacuum(1),
    lambda: g.squeezed_vacuum(R2DB, 0.0),
    lambda: g.displace(g.vacuum(1), 0, 1.2 - 0.7j),
])
def test_homodyne_sampling_matches_analytic(make):
    # 4-sigma consistency of sample mean and variance against the marginal
    st = make()
    n = 200_000
    res = g.homodyne(st, 0, 0.0, n_samples=n, rng=42)
    se_mean = math.sqrt(res.variance / n)
    assert abs(res.samples.mean() - res.mean) < 4 * se_mean
    se_var = res.variance * math.sqrt(2.0 / (n - 1))
    assert abs(res.samples.var(ddof=1) - res.variance) < 4 * se_var


def test_homodyne_sampling_epr_correlated_mode():
    st = epr_pair()
    n = 150_000
    res = g.homodyne(st, 1, 0.4, n_samples=n, rng=np.random.default_rng(5))
    se_var = res.variance * math.sqrt(2.0 / (n - 1))
    assert abs(res.samples.var(ddof=1) - res.variance) < 4 * se_var


def test_condition_on_homodyne_epr():
    st = epr_pair()
    out = g.condition_on_homodyne(st, 1, 0.0, outcome=1.3)
    # conditional variance (V1 V2 - C^2)/V2 = 0.25/cosh(2r) * 2, and the
    # conditional mean is (C/V2) * outcome with C = sinh(2r)/2
    assert math.isclose(out.cov[0, 0], 0.45129397643415503, rel_tol=1e-10)
    assert math.isclose(out.mean[0], 0.43050550209839716 * 1.3, rel_tol=1e-10)
    assert out.num_modes == 1
    # conditioning is a valid state and never increases the measured-quadrature variance
    assert out.cov[0, 0] <= st.cov[0, 0] + 1e-12


def test_condition_reduces_to_marginal_when_uncorrelated():
    st = g.tensor(g.squeezed_vacuum(0.3, 0.2), g.vacuum(1))
    out = g.condition_on_homodyne(st, 1, 0.7, outcome=2.0)
    assert np.allclose(out.cov, st.cov[:2, :2], atol=1e-14)
    assert np.allclose(out.mean, st.mean[:2], atol=1e-14)


def test_symplectic_validation():
    with pytest.raises(ValueError):
        g.SymplecticOp(np.diag([2.0, 1.0]))  # not symplectic
    with pytest.raises(ValueError):
        g.beamsplitter_op(2, 0, 1, 1.5)
    with pytest.raises(ValueError):
        g.beamsplitter_op(2, 1, 1, 0.5)


def test_symplectic_preserves_purity_and_uncertainty():
    rng = np.random.default_rng(31)
    for _ in range(15):
        st = random_state(rng)
        op = g.beamsplitter_op(2, 0, 1, rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        out = op.apply(st)
        assert math.isclose(purity(out), purity(st), rel_tol=1e-10)
        m = out.cov.astype(complex) + 0.5j * g.omega(out.num_modes)
        assert np.linalg.eigvalsh(m).min() > -1e-9


def test_tensor_over_mixed_mode_counts():
    # 1 + 2 + 1 modes: the covariance is scipy's block_diag exactly, the mean
    # the concatenation
    parts = [
        g.squeezed_vacuum(0.4, 0.1),
        g.beamsplitter_op(2, 0, 1, 0.3, 0.9).apply(
            g.displace(random_state(np.random.default_rng(29)), 1, 0.2 - 0.6j)),
        g.displace(g.vacuum(1), 0, 0.5j),
    ]
    st = g.tensor(*parts)
    assert st.num_modes == 4
    assert np.array_equal(st.cov, block_diag(*[p.cov for p in parts]))
    assert np.array_equal(st.mean, np.concatenate([p.mean for p in parts]))


def test_noise_power_db_roundtrip():
    assert g.noise_power_db(0.5) == 0.0
    for db in (-2.0, 0.0, 3.5):
        assert math.isclose(g.noise_power_db(0.5 * 10.0 ** (db / 10.0)), db, abs_tol=1e-12)


def test_equal_variances_give_equal_db_at_every_position():
    # numbers() formats each distinct dB once, so a quiet bin's variance must give
    # the same bits wherever it sits in an array, and as a scalar
    variances = np.random.default_rng(33).uniform(0.01, 100.0, 1001)
    assert np.array_equal(g.noise_power_db(variances), [g.noise_power_db(v) for v in variances])
    for v in (0.5, variances[0], 0.5 * math.exp(2 * R2DB), 0.5 * math.exp(-2 * 7.5)):
        assert (g.noise_power_db(np.full(1001, v)) == g.noise_power_db(v)).all()


def test_r_for_noise_db():
    r = g.r_for_noise_db(2.0)
    assert math.isclose(r, R2DB, rel_tol=1e-12)
    assert math.isclose(math.exp(-2 * r), 10 ** -0.2, rel_tol=1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda: g.GaussianState(np.zeros(2), np.eye(4)), r"shape mismatch: mean \(2,\), cov \(4, 4\)"),
    (lambda: g.GaussianState(np.zeros(3), 0.5 * np.eye(3)), "mean length must be 2\\*num_modes"),
    (lambda: g.SymplecticOp(np.eye(3)), "symplectic matrix must be 2M x 2M"),
    (lambda: g.SymplecticOp(np.eye(4)).apply(g.vacuum(1)), "operator and state mode counts differ"),
    (lambda: g.vacuum(0), "need at least one mode"),
    (lambda: g.loss(g.vacuum(1), 0, 1.5), r"transmission must be in \[0, 1\], got 1\.5"),
    (lambda: g.mirror_displace(g.vacuum(1), 0, 1.0, 1.0),
     r"mirror transmittance must be in \(0, 1\), got 1\.0"),
    (lambda: g.condition_on_homodyne(g.vacuum(1), 0, 0.0, 0.0),
     "conditioning needs at least two modes"),
])
def test_refusals_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()
