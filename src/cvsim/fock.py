"""Truncated Fock-space simulator.

Same quadrature conventions as the Gaussian layer (x = (a + a^dag)/sqrt(2),
vacuum variance 1/2).  States live in a photon-number cutoff `dim`.

Operators are built in one of two ways.  The displacement D(alpha) and the
squeeze S(s) are exponentials of their generators truncated to `dim`: exactly
unitary at the cutoff, and accurate wherever the state stays clear of it.
Functions of one quadrature -- the cubic phase exp(i gamma x^3) and the QND
coupling exp(-i g x1 p2) -- come from the eigendecompositions x = V diag(xi) V^H
and p = W diag(pi) W^H on an enlarged workspace (dim + pad), restricted back to
`dim`, so that the retained block is an accurate restriction of the
infinite-dimensional operator rather than the exponential of a truncated
generator.  Each records the unitarity defect of its workspace build on the
retained block in `diagnostics`.  The QND coupling is kept in factored form
and applied without forming its (dim^2) x (dim^2) matrix.

Truncation trouble is reported through TruncationWarning, never silently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm


class TruncationWarning(UserWarning):
    """Raised (as a warning) when a cutoff is too small for the requested op/state."""


# workspace per mode above which qnd_coupling_op and qnd_heisenberg_residual
# refuse to run.  A run only applies the coupling in factored form (memory
# workspace^2); the limit bounds the dense (dim^2) x (dim^2) `.matrix` built on
# demand and the residual's workspace^3 array of conjugated blocks.
QND_WORKSPACE_LIMIT = 128

# phase-aliasing guard for the cubic gate: the phase slope at the edge of the
# truncated position range grows like gamma * dim^{3/2}
CUBIC_ALIAS_LIMIT = 10.0


def annihilation(dim):
    a = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    a[n - 1, n] = np.sqrt(n)
    return a


def position_op(dim):
    a = annihilation(dim)
    return (a + a.conj().T) / math.sqrt(2.0)


def momentum_op(dim):
    a = annihilation(dim)
    return (a - a.conj().T) / (1j * math.sqrt(2.0))


def _readonly_complex(a):
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FockState:
    """Pure state in a truncated Fock basis.

    One mode: amps[n].  Two modes: amps[n1, n2] (square).  States are not
    forced to unit norm; use normalized() where that matters.
    """

    amps: np.ndarray

    def __post_init__(self):
        a = _readonly_complex(self.amps)
        if a.ndim not in (1, 2):
            raise ValueError("amps must be 1-D (one mode) or 2-D (two modes)")
        if a.ndim == 2 and a.shape[0] != a.shape[1]:
            raise ValueError("two-mode amplitudes must be square (same cutoff per mode)")
        object.__setattr__(self, "amps", a)

    @property
    def num_modes(self):
        return self.amps.ndim

    @property
    def dim(self):
        return self.amps.shape[0]

    def norm(self):
        return float(np.linalg.norm(self.amps))

    def normalized(self):
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockState(self.amps / n)

    def probabilities(self, mode=0):
        """Photon-number distribution of one mode (marginal for two-mode states)."""
        p = np.abs(self.amps) ** 2
        if self.num_modes == 1:
            return p
        return p.sum(axis=1 - mode)

    def mean_photon(self, mode=0):
        return float(self.probabilities(mode) @ np.arange(self.dim))

    def reduced_density(self, mode=0):
        """Reduced density matrix of one mode."""
        if self.num_modes == 1:
            return np.outer(self.amps, self.amps.conj())
        c = self.amps
        if mode == 0:
            return c @ c.conj().T
        return c.T @ c.conj()


@dataclass(frozen=True)
class FockOperator:
    """Matrix operator on one truncated mode.

    `diagnostics` carries build-quality numbers (e.g. the workspace unitarity
    defect on the retained block for workspace-built operators).
    """

    matrix: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    num_modes = 1

    def __post_init__(self):
        m = _readonly_complex(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def apply(self, state, mode=0):
        """Act on a one-mode state, or on mode `mode` of a two-mode state."""
        if self.dim != state.dim:
            raise ValueError("operator/state cutoff mismatch")
        if state.num_modes == 1 or mode == 0:
            return FockState(self.matrix @ state.amps)
        return FockState(state.amps @ self.matrix.T)


@dataclass(frozen=True)
class QNDCoupling:
    """The coupling exp(-i g x1 p2) on `dim` levels per mode, in factored form.

    With x = V diag(xi) V^H and p = W diag(pi) W^H on the workspace, the
    workspace operator is sum_k |v_k><v_k| (x) W diag(e^{-i g xi_k pi}) W^H, and
    its retained block maps joint amplitudes C[n1, n2] to
        V_d ((V_d^H C W_d^*) * e^{-i g xi pi^T}) W_d^T,
    V_d and W_d being the first `dim` rows of V and W.  One apply costs
    O(workspace^2 dim); the (dim^2) x (dim^2) matrix exists only when
    `matrix` is read.
    """

    x_rows: np.ndarray  # V_d, (dim, workspace)
    p_rows: np.ndarray  # W_d, (dim, workspace)
    phase: np.ndarray   # e^{-i g xi_k pi_j}, (workspace, workspace)
    diagnostics: dict = field(default_factory=dict)
    num_modes = 2

    @property
    def dim(self):
        """Per-mode cutoff."""
        return self.x_rows.shape[0]

    def apply(self, state):
        if state.num_modes != 2:
            raise ValueError("cannot apply a two-mode operator to a one-mode state")
        if self.dim != state.dim:
            raise ValueError("operator/state cutoff mismatch")
        inner = (self.x_rows.conj().T @ state.amps @ self.p_rows.conj()) * self.phase
        return FockState(self.x_rows @ inner @ self.p_rows.T)

    @property
    def matrix(self):
        """Dense form, row = n1*dim + n2: the factored map applied to every
        basis state.  Built on each read; runs never need it."""
        d = self.dim
        blocks = np.einsum("aj,kj,bj->kab", self.p_rows, self.phase, self.p_rows.conj())
        mat = np.einsum("mk,nk,kab->manb", self.x_rows, self.x_rows.conj(), blocks,
                        optimize=True)
        return mat.reshape(d * d, d * d)


@dataclass(frozen=True)
class PhotonCountResult:
    n: int
    probability: float
    conditional: FockState


# ---------------------------------------------------------------------------
# states


def vacuum_state(dim):
    a = np.zeros(dim, dtype=complex)
    a[0] = 1.0
    return FockState(a)


def number_state(n, dim):
    if not 0 <= n < dim:
        raise ValueError(f"need 0 <= n < dim, got n={n}, dim={dim}")
    a = np.zeros(dim, dtype=complex)
    a[n] = 1.0
    return FockState(a)


def coherent_state(alpha, dim):
    """Truncated coherent state, renormalized."""
    if alpha == 0:
        return vacuum_state(dim)
    from scipy.special import gammaln
    n = np.arange(dim)
    log_amp = n * np.log(complex(alpha)) - 0.5 * gammaln(n + 1.0) - 0.5 * abs(alpha) ** 2
    return FockState(np.exp(log_amp)).normalized()


def tmsv(r, dim):
    """Two-mode squeezed vacuum: amps[n, n] = tanh^n(r)/cosh(r), renormalized.

    The discarded tail carries weight tanh(r)^{2 dim}; a TruncationWarning is
    raised when that exceeds 1e-10.
    """
    if abs(r) > 10.0:
        raise ValueError(f"|r| > 10 is not supported (got r={r})")
    lam = math.tanh(r)
    tail = abs(lam) ** (2 * dim)
    if tail > 1e-10:
        warnings.warn(
            f"tmsv cutoff dim={dim} keeps only 1-{tail:.2e} of the state at r={r}",
            TruncationWarning,
        )
    c = lam ** np.arange(dim) / math.cosh(r)
    amps = np.zeros((dim, dim), dtype=complex)
    np.fill_diagonal(amps, c)
    return FockState(amps).normalized()


# ---------------------------------------------------------------------------
# measurement


def photon_count(state, mode=1, rng=None, outcome=None):
    """Ideal photon-number measurement of one mode of a two-mode state.

    Either draws the outcome (rng) or evaluates a fixed one (outcome=n).
    Returns the outcome, its probability, and the normalized conditional
    state of the remaining mode.
    """
    if state.num_modes != 2:
        raise ValueError("photon_count expects a two-mode state")
    pmf = state.probabilities(mode)
    total = pmf.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-8):
        raise ValueError(f"state is not normalized (total probability {total:.6f})")
    if outcome is None:
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        outcome = int(gen.choice(state.dim, p=pmf / total))
    else:
        outcome = int(outcome)
        if not 0 <= outcome < state.dim:
            raise ValueError(f"outcome {outcome} outside the cutoff {state.dim}")
    prob = float(pmf[outcome])
    if prob <= 1e-15:
        raise ValueError(f"outcome n={outcome} has zero probability")
    cond = state.amps[:, outcome] if mode == 1 else state.amps[outcome, :]
    return PhotonCountResult(outcome, prob, FockState(cond / math.sqrt(prob)))


# ---------------------------------------------------------------------------
# operators


def displacement_op(alpha, dim):
    """D(alpha) = expm(alpha a^dag - alpha* a): exactly unitary at any cutoff."""
    alpha = complex(alpha)
    if abs(alpha) ** 2 > dim / 4.0:
        warnings.warn(
            f"displacement |alpha|^2 = {abs(alpha)**2:.2f} is large for dim={dim}; "
            "the displaced state will be clipped",
            TruncationWarning,
        )
    a = annihilation(dim)
    return FockOperator(expm(alpha * a.conj().T - alpha.conjugate() * a))


def squeeze_op(s, dim):
    """S(s) = expm(s/2 (a^2 - a^dag^2)); s > 0 squeezes x: Var_x -> e^{-2s}/2."""
    s = float(s)
    if math.tanh(abs(s)) ** dim > 1e-10:
        warnings.warn(
            f"squeeze s={s} at dim={dim} leaves tail weight above 1e-10",
            TruncationWarning,
        )
    a = annihilation(dim)
    return FockOperator(expm(0.5 * s * (a @ a - a.conj().T @ a.conj().T)))


def _quadrature_eigh(workspace):
    """x = V diag(xi) V^H and p = W diag(pi) W^H on a `workspace`-level space;
    returns (xi, V, pi, W).  Every workspace-built operator here is a
    function of these factors."""
    xi, v = np.linalg.eigh(position_op(workspace))
    pi, w = np.linalg.eigh(momentum_op(workspace))
    return xi, v, pi, w


def _block_interior_defect(w_full, dim):
    """Unitarity defect of a workspace-built unitary, restricted to the kept block."""
    prod = w_full.conj().T @ w_full
    return float(np.linalg.norm(prod[:dim, :dim] - np.eye(dim)))


def _product_gram_defect(a, b):
    """||(a a^H) (x) (b b^H) - I||_F without forming the Kronecker product.

    With E = a a^H - I, B = b b^H and F = B - I the difference is
    E (x) B + I (x) F, whose squared norm is
        ||E||^2 ||B||^2 + n ||F||^2 + 2 Re(tr E^H tr B^H F),   n = rows of a;
    no term is a difference of near-equal large numbers.
    """
    n = a.shape[0]
    e = a @ a.conj().T - np.eye(n)
    bb = b @ b.conj().T
    f = bb - np.eye(b.shape[0])
    sq = (np.linalg.norm(e) ** 2 * np.linalg.norm(bb) ** 2 + n * np.linalg.norm(f) ** 2
          + 2.0 * (np.trace(e).conjugate() * np.vdot(bb, f)).real)
    return math.sqrt(max(sq, 0.0))


def cubic_phase_op(gamma, dim, pad=None):
    """exp(i gamma x^3) = V diag(e^{i gamma xi^3}) V^H at workspace dim+pad,
    truncated to dim.

    The truncated block of a unitary is not itself unitary; what is checked
    (and stored in diagnostics['interior_unitarity']) is the defect of the
    workspace operator on the retained block, which measures how well the
    returned matrix represents the infinite-dimensional operator there.
    """
    gamma = float(gamma)
    if pad is None:
        pad = dim // 2
    if gamma == 0.0:
        return FockOperator(np.eye(dim, dtype=complex), diagnostics={"interior_unitarity": 0.0})
    if gamma * dim ** 1.5 > CUBIC_ALIAS_LIMIT:
        warnings.warn(
            f"gamma*dim^(3/2) = {gamma * dim**1.5:.2f} risks phase aliasing across "
            "the truncated position range",
            TruncationWarning,
        )
    xi, v, _, _ = _quadrature_eigh(dim + pad)
    full = (v * np.exp(1j * gamma * xi ** 3)) @ v.conj().T
    defect = _block_interior_defect(full, dim)
    return FockOperator(full[:dim, :dim], diagnostics={"interior_unitarity": defect})


def qnd_coupling_op(g, dim, pad=None):
    """Two-mode coupling exp(-i g x1 p2): in the Heisenberg picture
    x2 -> x2 + g*x1 while x1 (and p2) are untouched.

    Built exactly on a (dim+pad)-per-mode workspace from the eigenbases of x1
    and p2 and restricted to dim per mode; see QNDCoupling.
    diagnostics['interior_unitarity'] is the Gram defect of that restriction,
    ||(V_d V_d^H) (x) (W_d W_d^H) - I||_F.
    """
    g = float(g)
    if dim < 2:
        raise ValueError("need dim >= 2")
    if pad is None:
        pad = dim // 2
    w = dim + pad
    if w > QND_WORKSPACE_LIMIT:
        raise ValueError(
            f"workspace {w} per mode exceeds the limit {QND_WORKSPACE_LIMIT} "
            f"(dim={dim}, pad={pad})"
        )
    if g == 0.0:
        eye = np.eye(dim)
        return QNDCoupling(eye, eye, np.ones((dim, dim)), {"interior_unitarity": 0.0})
    xi, v, pi, wv = _quadrature_eigh(w)
    v, wv = v[:dim], wv[:dim]
    defect = _product_gram_defect(v, wv)
    return QNDCoupling(v, wv, np.exp(-1j * g * np.outer(xi, pi)),
                       {"interior_unitarity": defect})


def qnd_heisenberg_residual(g, dim, pad=None):
    """Residual of U^dag x2 U = x2 + g*x1 for the dim-cutoff coupling,
    measured on the interior block (margin min(pad, dim//2) per mode).

    The conjugation is evaluated at the (dim+pad) workspace from the same
    factors used to build the operator: with T_k = W diag(e^{-i g xi_k pi}) W^H
    and X = W^H x W, T_k^H x T_k = W (X * e^{i g xi_k (pi_i - pi_j)}) W^H
    (truncating first and then conjugating would measure truncation noise,
    not the coupling).  Edge rows of any truncated operator cannot satisfy
    the relation, hence the margin.  Returns the Frobenius norm of the
    interior residual.
    """
    if pad is None:
        pad = 3 * dim
    w = dim + pad
    if w > QND_WORKSPACE_LIMIT:
        raise ValueError(f"workspace {w} exceeds the limit {QND_WORKSPACE_LIMIT}")
    keep = dim - min(pad, dim // 2)
    xi, v, pi, wv = _quadrature_eigh(w)
    x = position_op(w)
    shift = np.exp(1j * g * xi[:, None, None] * (pi[:, None] - pi[None, :]))
    rows = wv[:keep]
    resid = rows @ ((wv.conj().T @ x @ wv) * shift) @ rows.conj().T
    resid -= x[:keep, :keep] + g * xi[:, None, None] * np.eye(keep)
    vk = v[:keep, :]
    interior = np.einsum("mk,nk,kab->manb", vk, vk.conj(), resid, optimize=True)
    return float(np.linalg.norm(interior.reshape(keep * keep, keep * keep)))


# ---------------------------------------------------------------------------
# wavefunctions and homodyne


def hermite_functions(nmax, x):
    """Harmonic-oscillator eigenfunctions phi_0..phi_{nmax-1} on a grid.

    Stable two-term recurrence:
        phi_0 = pi^{-1/4} exp(-x^2/2)
        phi_{n+1} = sqrt(2/(n+1)) x phi_n - sqrt(n/(n+1)) phi_{n-1}
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax, x.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if nmax > 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, nmax - 1):
        out[n + 1] = math.sqrt(2.0 / (n + 1)) * x * out[n] - math.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


def default_grid(dim, n_points=2048, margin=3.0):
    """Position grid wide enough for every basis state below the cutoff
    (classical turning point sqrt(2*dim) plus a Gaussian tail margin)."""
    half = math.sqrt(2.0 * dim) + margin
    return np.linspace(-half, half, n_points)


def quadrature_wavefunction(state, x):
    """psi(x) = sum_n c_n phi_n(x) for a one-mode state."""
    if state.num_modes != 1:
        raise ValueError("quadrature_wavefunction expects a one-mode state")
    x = np.asarray(x, dtype=float)
    if x.size and np.abs(x).max() < math.sqrt(2.0 * state.dim):
        warnings.warn(
            f"grid reaches only |x| <= {np.abs(x).max():.2f} but the cutoff "
            f"supports structure out to {math.sqrt(2.0 * state.dim):.2f}; "
            "norms on this grid will come up short",
            TruncationWarning,
        )
    basis = hermite_functions(state.dim, x)
    return state.amps @ basis


def homodyne_fock(state, n_samples, rng=None, grid=None):
    """Draw x-quadrature samples from |psi(x)|^2 by inverse-CDF on a grid."""
    if grid is None:
        grid = default_grid(state.dim)
    psi = quadrature_wavefunction(state.normalized(), grid)
    dens = np.abs(psi) ** 2
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
    cdf /= cdf[-1]
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    u = gen.uniform(size=int(n_samples))
    return np.interp(u, cdf, grid)


def quadrature_moments(state, mode=0):
    """Mean (x, p) and 2x2 covariance of one mode, from the reduced density matrix."""
    rho = state.reduced_density(mode)
    rho = rho / np.trace(rho).real
    d = rho.shape[0]
    x = position_op(d)
    p = momentum_op(d)
    ex = np.trace(rho @ x).real
    ep = np.trace(rho @ p).real
    exx = np.trace(rho @ x @ x).real
    epp = np.trace(rho @ p @ p).real
    exp_sym = 0.5 * np.trace(rho @ (x @ p + p @ x)).real
    mean = np.array([ex, ep])
    cov = np.array([[exx - ex * ex, exp_sym - ex * ep],
                    [exp_sym - ex * ep, epp - ep * ep]])
    return mean, cov
