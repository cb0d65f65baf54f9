"""Gaussian states and Gaussian operations.

Conventions used throughout the package:

    hbar = 1,  x = (a + a^dag)/sqrt(2),  p = (a - a^dag)/(i sqrt(2)),  [x, p] = i

so the vacuum has Var(x) = Var(p) = 1/2.  Quadratures are ordered
(x1, p1, x2, p2, ...) and the symplectic form is Omega = diag of [[0, 1], [-1, 0]]
blocks.  Noise powers in dB are relative to this shot-noise unit:
10*log10(V / 0.5).

Every operation (symplectic unitaries, displacements, and the loss and
mirror channels that mix in vacuum) is one Gaussian map r -> X r + d with
added noise Y: mean -> X mean + d, V -> X V X^T + Y (Weedbrook et al., Rev.
Mod. Phys. 84, 621 (2012)), computed by `_gaussian_map`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VACUUM_VAR = 0.5

# Largest |r| squeezed_vacuum, fock.tmsv and the gate accept: e^{2r}
# overflows any sensible use well before this, and a typo like r=23 for 0.23 fails loudly.
MAX_SQUEEZING_R = 10.0

_SYMMETRY_TOL = 1e-10
_UNCERTAINTY_TOL = 1e-9
_SYMPLECTIC_TOL = 1e-10


def omega(num_modes):
    """Symplectic form for the interleaved (x1, p1, x2, p2, ...) ordering."""
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * num_modes, 2 * num_modes))
    for k in range(num_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = w
    return out


def rotation2(theta):
    """2x2 phase-space rotation: a -> e^{i theta} a."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _quadratures(modes):
    """Indices (x_m, p_m, ...) of the given modes' quadratures, in order."""
    return np.array([[2 * m, 2 * m + 1] for m in modes], dtype=int).reshape(-1)


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GaussianState:
    """Gaussian state of M modes: mean vector (2M,) and covariance matrix (2M, 2M).

    Validated on construction: cov must be symmetric and satisfy the
    uncertainty relation V + i*Omega/2 >= 0 (up to numerical tolerance).
    Instances are immutable; operations return new states.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _readonly(self.mean)
        cov = _readonly(self.cov)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError(f"shape mismatch: mean {mean.shape}, cov {cov.shape}")
        if mean.size % 2 != 0 or mean.size == 0:
            raise ValueError("mean length must be 2*num_modes")
        scale = max(1.0, np.abs(cov).max())
        if np.abs(cov - cov.T).max() > _SYMMETRY_TOL * scale:
            raise ValueError("covariance matrix is not symmetric")
        m = cov.astype(complex) + 0.5j * omega(mean.size // 2)
        lam = np.linalg.eigvalsh(m)
        if lam.min() < -_UNCERTAINTY_TOL:
            raise ValueError(
                f"covariance violates the uncertainty relation "
                f"(min eigenvalue of V + i*Omega/2 is {lam.min():.3e})"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def num_modes(self):
        return self.mean.size // 2

    def mode_mean(self, mode):
        """(x, p) mean of one mode."""
        return self.mean[2 * mode : 2 * mode + 2].copy()

    def mode_cov(self, mode):
        """2x2 covariance block of one mode."""
        return self.cov[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2].copy()


@dataclass(frozen=True)
class SymplecticOp:
    """Gaussian unitary: quadratures map as r -> S r.

    S is checked against S^T Omega S = Omega on construction.
    """

    matrix: np.ndarray

    def __post_init__(self):
        s = _readonly(self.matrix)
        n = s.shape[0]
        if s.shape != (n, n) or n % 2 != 0:
            raise ValueError("symplectic matrix must be 2M x 2M")
        w = omega(n // 2)
        if np.abs(s.T @ w @ s - w).max() > _SYMPLECTIC_TOL:
            raise ValueError("matrix is not symplectic")
        object.__setattr__(self, "matrix", s)

    def apply(self, state):
        if state.mean.size != self.matrix.shape[0]:
            raise ValueError("operator and state mode counts differ")
        return _gaussian_map(state, None, self.matrix)


@dataclass(frozen=True)
class HomodyneResult:
    """Outcome statistics of homodyning one mode at LO angle theta.

    The measured quadrature is x_theta = x cos(theta) + p sin(theta);
    `samples` is None for the analytic branch.
    """

    mean: float
    variance: float
    samples: np.ndarray = None

    def power_db(self):
        return noise_power_db(self.variance)


# ---------------------------------------------------------------------------
# state constructors


def vacuum(num_modes=1):
    n = int(num_modes)
    if n < 1:
        raise ValueError("need at least one mode")
    return GaussianState(np.zeros(2 * n), VACUUM_VAR * np.eye(2 * n))


def squeezed_vacuum(r, theta=0.0):
    """Single-mode squeezed vacuum: variance e^{-2r}/2 along angle theta.

    theta = 0 squeezes x, theta = pi/2 squeezes p.  |r| > MAX_SQUEEZING_R
    is rejected as a parameter error.
    """
    if abs(r) > MAX_SQUEEZING_R:
        raise ValueError(f"|r| > {MAX_SQUEEZING_R} is not supported (got r={r})")
    rot = rotation2(theta)
    v = rot @ np.diag([math.exp(-2.0 * r), math.exp(2.0 * r)]) @ rot.T * VACUUM_VAR
    return GaussianState(np.zeros(2), v)


def tensor(*states):
    """Tensor product of Gaussian states (block-diagonal covariance)."""
    mean = np.concatenate([s.mean for s in states])
    cov = np.zeros((mean.size, mean.size))
    i = 0
    for s in states:
        cov[i : i + s.mean.size, i : i + s.mean.size] = s.cov
        i += s.mean.size
    return GaussianState(mean, cov)


def r_for_noise_db(db):
    """Squeezing parameter giving a noise floor of -db: e^{-2r} = 10^{-db/10}."""
    return db * math.log(10.0) / 20.0


# ---------------------------------------------------------------------------
# Gaussian maps


def _gaussian_map(state, mode, x=None, d=0.0, y=0.0):
    """The state after r -> X r + d with added noise Y: mean -> X mean + d,
    V -> X V X^T + Y.  X, d and Y act on one mode's (x, p) slice and the
    other modes are untouched (the cross blocks pick up X on one side), or
    on all quadratures when mode is None.  X = None is the identity."""
    i = slice(None) if mode is None else slice(2 * mode, 2 * mode + 2)
    mean, cov = state.mean.copy(), state.cov.copy()
    if x is not None:
        mean[i] = x @ mean[i]
        cov[i, :] = x @ cov[i, :]
        cov[:, i] = cov[:, i] @ x.T
    mean[i] += d
    cov[i, i] += y
    return GaussianState(mean, cov)


def beamsplitter_op(num_modes, mode_a, mode_b, transmittance, phase=0.0):
    """Beamsplitter as a SymplecticOp on modes (a, b) of an M-mode system.

    Convention: a -> sqrt(T) a + sqrt(1-T) e^{i phase} b,
                b -> -sqrt(1-T) e^{-i phase} a + sqrt(T) b.
    The inverse is the same splitter with phase + pi.
    """
    t = float(transmittance)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmittance must be in [0, 1], got {t}")
    if mode_a == mode_b:
        raise ValueError("beamsplitter needs two distinct modes")
    ct, st = math.sqrt(t), math.sqrt(1.0 - t)
    block = np.block([[ct * np.eye(2), st * rotation2(phase)],
                      [-st * rotation2(-phase), ct * np.eye(2)]])
    s = np.eye(2 * num_modes)
    idx = _quadratures((mode_a, mode_b))
    s[np.ix_(idx, idx)] = block
    return SymplecticOp(s)


def displace(state, mode, alpha):
    """Ideal displacement: adds sqrt(2)*(Re alpha, Im alpha) to one mode's mean."""
    alpha = complex(alpha)
    return _gaussian_map(state, mode, d=math.sqrt(2.0) * np.array([alpha.real, alpha.imag]))


def loss(state, mode, eta):
    """Pure loss channel of transmission eta on one mode.

    V_mode -> eta V + (1-eta)/2, cross blocks scale by sqrt(eta),
    mean scales by sqrt(eta).
    """
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {eta}")
    return _gaussian_map(state, mode, math.sqrt(eta) * np.eye(2),
                         y=(1.0 - eta) * VACUUM_VAR * np.eye(2))


def mirror_displace(state, mode, bright_alpha, transmittance):
    """Displacement by reflection off an almost-fully-reflective mirror.

    The signal keeps amplitude sqrt(1-T); a bright coherent beam alpha_b leaks
    through the T port and shifts the mean by sqrt(T)*sqrt(2)*(Re, Im) alpha_b.
    Covariance is contracted toward vacuum: V -> (1-T) V + T/2.  Choosing
    alpha_b = alpha_target / sqrt(T) reproduces displace() up to the sqrt(1-T)
    attenuation of the input (0.5% amplitude at T = 1%).
    """
    t = float(transmittance)
    if not 0.0 < t < 1.0:
        raise ValueError(f"mirror transmittance must be in (0, 1), got {t}")
    keep, b = 1.0 - t, complex(bright_alpha)  # 1 - keep need not equal t in floats
    return _gaussian_map(state, mode, math.sqrt(keep) * np.eye(2),
                         math.sqrt(2.0 * t) * np.array([b.real, b.imag]),
                         (1.0 - keep) * VACUUM_VAR * np.eye(2))


# ---------------------------------------------------------------------------
# homodyne


def _quad_direction(angle):
    return np.array([math.cos(angle), math.sin(angle)])


def homodyne(state, mode, angle=0.0, n_samples=0, rng=None):
    """Homodyne one mode at LO angle theta (x_theta = x cos + p sin).

    Returns the analytic marginal mean/variance; if n_samples > 0, also draws
    that many samples from the marginal (requires rng or a seed).
    """
    u = _quad_direction(angle)
    mu = float(u @ state.mode_mean(mode))
    var = float(u @ state.mode_cov(mode) @ u)
    samples = None
    if n_samples:
        gen = np.random.default_rng(rng)
        samples = gen.normal(mu, math.sqrt(var), size=int(n_samples))
    return HomodyneResult(mean=mu, variance=var, samples=samples)


def condition_on_homodyne(state, mode, angle, outcome):
    """State of the remaining modes after homodyning `mode` with result `outcome`.

    Standard Gaussian conditioning on the measured quadrature u^T r_B:
        mean' = mean_A + C u (m - u^T mean_B) / (u^T B u)
        V'    = A - (C u)(C u)^T / (u^T B u)
    """
    n = state.num_modes
    if n < 2:
        raise ValueError("conditioning needs at least two modes")
    ai = _quadratures(m for m in range(n) if m != mode)
    bi = _quadratures((mode,))
    a = state.cov[np.ix_(ai, ai)]
    b = state.cov[np.ix_(bi, bi)]
    c = state.cov[np.ix_(ai, bi)]
    u = _quad_direction(angle)
    cu = c @ u
    denom = float(u @ b @ u)
    mean = state.mean[ai] + cu * (outcome - u @ state.mean[bi]) / denom
    cov = a - np.outer(cu, cu) / denom
    return GaussianState(mean, cov)


# ---------------------------------------------------------------------------
# units


def noise_power_db(variance):
    """Noise power relative to shot noise, 10*log10(V / 0.5), of a number or of each
    value of an array."""
    return 10.0 * np.log10(np.asarray(variance, dtype=float) / VACUUM_VAR)

