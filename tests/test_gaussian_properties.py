"""Property tests of the Gaussian layer over random states and parameters.

States are thermal squeezed states (so mixed ones are covered too) on one to
three modes, mixed on random splitters and displaced.  Every operation must
return a state that satisfies V + i*Omega/2 >= 0; splitters and rotations
must keep purity and the symplectic eigenvalues; the channels and
displacements must match their closed forms block by block.  The Fock
layer's D(alpha) S(s)|0> must carry the moments of the matching Gaussian state.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsim import fock
from cvsim import gaussian as g

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)

angles = st.floats(0.0, 2 * math.pi)
amplitudes = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@st.composite
def states(draw, min_modes=1):
    n = draw(st.integers(min_modes, 3))
    modes = []
    for _ in range(n):
        sq = g.squeezed_vacuum(draw(st.floats(-1.0, 1.0)), draw(angles))
        modes.append(g.GaussianState(sq.mean, draw(st.floats(1.0, 3.0)) * sq.cov))
    state = g.tensor(*modes)
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        a, b = draw(st.permutations(range(n)))[:2]
        state = g.beamsplitter_op(n, a, b, draw(st.floats(0.0, 1.0)), draw(angles)).apply(state)
    for mode in range(n):
        state = g.displace(state, mode, draw(amplitudes))
    return state


def rotate(state, mode, theta):
    """a -> e^{i theta} a on one mode, as a SymplecticOp with a rotation2 block."""
    s = np.eye(2 * state.num_modes)
    s[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = g.rotation2(theta)
    return g.SymplecticOp(s).apply(state)


def purity(state):
    """Tr rho^2 = 1/sqrt(det(2V)) for Gaussian states."""
    return 1.0 / math.sqrt(np.linalg.det(2.0 * state.cov))


def uncertainty_margin(state):
    """Smallest eigenvalue of V + i*Omega/2."""
    return np.linalg.eigvalsh(state.cov.astype(complex) + 0.5j * g.omega(state.num_modes)).min()


def symplectic_eigenvalues(state):
    return np.sort(np.abs(np.linalg.eigvals(1j * g.omega(state.num_modes) @ state.cov)))


def blocks(state, mode):
    """(mode block, cross rows to the other modes, mode mean, other means)."""
    i = slice(2 * mode, 2 * mode + 2)
    rest = np.ones(state.mean.size, dtype=bool)
    rest[i] = False
    return (state.cov[i, i], state.cov[i][:, rest], state.mean[i], state.mean[rest],
            state.cov[np.ix_(rest, rest)])


@PROPERTY
@given(states(), st.data())
def test_every_operation_keeps_the_uncertainty_relation(state, data):
    mode = data.draw(st.integers(0, state.num_modes - 1))
    outs = [
        rotate(state, mode, data.draw(angles)),
        g.displace(state, mode, data.draw(amplitudes)),
        g.loss(state, mode, data.draw(st.floats(0.0, 1.0))),
        g.mirror_displace(state, mode, data.draw(amplitudes),
                          data.draw(st.floats(1e-6, 1.0, exclude_max=True))),
    ]
    if state.num_modes > 1:
        other = data.draw(st.sampled_from([m for m in range(state.num_modes) if m != mode]))
        outs.append(g.beamsplitter_op(state.num_modes, mode, other,
                                      data.draw(st.floats(0.0, 1.0)),
                                      data.draw(angles)).apply(state))
        outs.append(g.condition_on_homodyne(state, mode, data.draw(angles),
                                            data.draw(st.floats(-3.0, 3.0))))
    for out in outs:
        assert uncertainty_margin(out) > -1e-10


@PROPERTY
@given(states(min_modes=2), st.floats(0.0, 1.0), angles, angles)
def test_splitters_and_rotations_are_symplectic(state, t, phase, theta):
    nu = symplectic_eigenvalues(state)
    split = g.beamsplitter_op(state.num_modes, 0, 1, t, phase).apply(state)
    rotated = rotate(state, 1, theta)
    for out in (split, rotated):
        assert math.isclose(purity(out), purity(state), rel_tol=1e-9)
        assert np.allclose(symplectic_eigenvalues(out), nu, rtol=1e-9, atol=1e-12)
    back = g.beamsplitter_op(state.num_modes, 0, 1, t, phase + math.pi).apply(split)
    assert np.allclose(back.mean, state.mean, atol=1e-11)
    assert np.allclose(back.cov, state.cov, atol=1e-11)


@PROPERTY
@given(states(), st.data(), st.floats(0.0, 1.0), amplitudes,
       st.floats(1e-6, 1.0, exclude_max=True))
def test_channels_and_displacements_match_closed_forms(state, data, eta, alpha, t):
    mode = data.draw(st.integers(0, state.num_modes - 1))
    v, c, m, rest_m, rest_v = blocks(state, mode)
    shift = math.sqrt(2.0) * np.array([alpha.real, alpha.imag])
    eye = np.eye(2)
    expected = {
        # V -> eta V + (1 - eta)/2, cross and mean scaled by sqrt(eta)
        "loss": (g.loss(state, mode, eta),
                 eta * v + (1 - eta) * 0.5 * eye, math.sqrt(eta) * c, math.sqrt(eta) * m),
        # the same with keep 1 - T, plus a sqrt(T) share of the bright beam
        "mirror": (g.mirror_displace(state, mode, alpha, t),
                   (1 - t) * v + t * 0.5 * eye, math.sqrt(1 - t) * c,
                   math.sqrt(1 - t) * m + math.sqrt(t) * shift),
        "displace": (g.displace(state, mode, alpha), v, c, m + shift),
    }
    for name, (out, v_out, c_out, m_out) in expected.items():
        got = blocks(out, mode)
        for have, want in zip(got, (v_out, c_out, m_out, rest_m, rest_v)):
            assert np.allclose(have, want, rtol=1e-12, atol=1e-12), name


@PROPERTY
@given(st.floats(-0.5, 0.5), st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_fock_displaced_squeezed_vacuum_matches_gaussian_moments(s, alpha):
    dim = 40
    with warnings.catch_warnings():
        warnings.simplefilter("error", fock.TruncationWarning)  # none fires here
        squeezed = fock.squeeze_op(s, dim).apply(fock.vacuum_state(dim))
        mean, cov = fock.quadrature_moments(fock.displacement_op(alpha, dim).apply(squeezed))
    want = g.displace(g.squeezed_vacuum(s), 0, alpha)
    assert np.abs(mean - want.mean).max() <= 1e-6
    assert np.abs(cov - want.cov).max() <= 1e-6
