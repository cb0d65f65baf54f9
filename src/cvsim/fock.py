"""Truncated Fock-space simulator.

Same quadrature conventions as the Gaussian layer (x = (a + a^dag)/sqrt(2),
vacuum variance 1/2).  States live in a photon-number cutoff `dim`.

Every one-mode operator -- displacement D(alpha), squeeze S(s) and cubic
phase exp(i gamma x^3) -- is exp(-i H) of a Hermitian H, built by one helper
from one eigendecomposition of H and restricted to `dim`, with the unitarity
defect of that build on the retained block in `diagnostics`.  D and S take H
truncated to `dim`: exactly unitary at the cutoff, and accurate wherever the
state stays clear of it.  The cubic phase takes H = -gamma x^3 on an enlarged
workspace (dim + pad), so that the retained block is an accurate restriction
of the infinite-dimensional operator.  The QND coupling exp(-i g x1 p2) comes
from one eigendecomposition x = V diag(xi) V^H of such a workspace, p's
eigenbasis being V with a phase on each row; it is kept in factored form and
applied without forming its (dim^2) x (dim^2) matrix.

Quadrature moments are exact for the truncated state: x and p move the level
by one, so they act on the state padded by one level.  One trapezoid rule
integrates over a position grid: it is the CDF of the one inverse-CDF grid
sampler, which the cubic gate's readout calls, and it gives the gate's
reference overlap.

Truncation trouble is reported through TruncationWarning, never silently.

What a gate run rebuilds unchanged from run to run is built once per process,
in small LRU caches, and shared read-only: Hermite tables per (nmax, grid
contents), the QND workspace's eigenbasis per workspace and its Gram defect
per (dim, workspace), and the squeeze operator per (s, dim).  A dim-32 gate
run retains about 1.4 MB; the table cache's bound keeps it under about 90 MB
at its worst case (four 16384-point tables at dim 85).  Every warning check
runs outside the caches, on each call.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np


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

    `diagnostics` carries build-quality numbers (the unitarity defect of the
    build on the retained block, 'interior_unitarity').
    """

    matrix: np.ndarray
    diagnostics: dict = field(default_factory=dict)

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

    With x = V diag(xi) V^H on the workspace, p = W diag(pi) W^H where
    pi = -xi and W = diag((-i)^n) V, so one eigendecomposition gives both.  The
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
        gen = np.random.default_rng(rng)
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


def _unitary(h, dim):
    """exp(-i h) for a Hermitian workspace matrix h, restricted to its first
    `dim` levels.  A truncated unitary is not unitary: diagnostics
    ['interior_unitarity'] is the defect of the workspace unitary on the
    retained block, i.e. how well the block represents the full operator."""
    lam, v = np.linalg.eigh(h)
    full = (v * np.exp(-1j * lam)) @ v.conj().T
    cols = full[:, :dim]
    defect = float(np.linalg.norm(cols.conj().T @ cols - np.eye(dim)))
    return FockOperator(full[:dim, :dim], diagnostics={"interior_unitarity": defect})


def displacement_op(alpha, dim):
    """D(alpha) = exp(alpha a^dag - alpha* a): exactly unitary at any cutoff."""
    alpha = complex(alpha)
    if abs(alpha) ** 2 > dim / 4.0:
        warnings.warn(
            f"displacement |alpha|^2 = {abs(alpha)**2:.2f} is large for dim={dim}; "
            "the displaced state will be clipped",
            TruncationWarning,
        )
    a = annihilation(dim)
    return _unitary(1j * (alpha * a.conj().T - alpha.conjugate() * a), dim)


def squeeze_op(s, dim):
    """S(s) = exp(s/2 (a^2 - a^dag^2)); s > 0 squeezes x: Var_x -> e^{-2s}/2.

    The operator is built once per process for each of the 4 most recently
    used (s, dim) and shared between calls; the tail-weight warning is checked
    on every call."""
    s = float(s)
    if math.tanh(abs(s)) ** dim > 1e-10:
        warnings.warn(
            f"squeeze s={s} at dim={dim} leaves tail weight above 1e-10",
            TruncationWarning,
        )
    return _squeeze_unitary(s, dim)


@functools.lru_cache(maxsize=4)
def _squeeze_unitary(s, dim):
    a = annihilation(dim)
    return _unitary(0.5j * s * (a @ a - a.conj().T @ a.conj().T), dim)


@functools.lru_cache(maxsize=4)
def _quadrature_eigh(workspace):
    """x = V diag(xi) V^H and p = W diag(pi) W^H on a `workspace`-level space;
    returns (xi, V, pi, W), the factors of the QND coupling and its residual.

    One eigendecomposition: with D = diag(i^n), D^H a D = i a, so p = -D^H x D
    exactly, and p's eigenpairs are pi = -xi, W = D^H V (a phase on each row).
    Built once per process for each of the 4 most recently used workspaces;
    the arrays are read-only."""
    xi, v = np.linalg.eigh(position_op(workspace))
    phases = np.array([1.0, -1j, -1.0, 1j])[np.arange(workspace) % 4]
    factors = xi, v, -xi, phases[:, None] * v
    for f in factors:
        f.setflags(write=False)
    return factors


@functools.lru_cache(maxsize=4)
def _qnd_gram_defect(dim, workspace):
    """_product_gram_defect of the first `dim` rows of the workspace's V."""
    return _product_gram_defect(_quadrature_eigh(workspace)[1][:dim])


def _product_gram_defect(a):
    """||(a a^H) (x) (a a^H) - I||_F without forming the Kronecker product.

    With A = a a^H and E = A - I the difference is E (x) A + I (x) E, whose
    squared norm is
        ||E||^2 (||A||^2 + n) + 2 Re(tr E^H tr A^H E),   n = rows of a;
    no term is a difference of near-equal large numbers.
    """
    n = a.shape[0]
    aa = a @ a.conj().T
    e = aa - np.eye(n)
    sq = (np.linalg.norm(e) ** 2 * (np.linalg.norm(aa) ** 2 + n)
          + 2.0 * (np.trace(e).conjugate() * np.vdot(aa, e)).real)
    return math.sqrt(max(sq, 0.0))


def cubic_phase_op(gamma, dim, pad=None):
    """exp(i gamma x^3) = exp(-i H), H = -gamma x^3 at workspace dim+pad
    (pad defaults to dim // 2), truncated to dim."""
    gamma = float(gamma)
    if pad is None:
        pad = dim // 2
    if gamma * dim ** 1.5 > CUBIC_ALIAS_LIMIT:
        warnings.warn(
            f"gamma*dim^(3/2) = {gamma * dim**1.5:.2f} risks phase aliasing across "
            "the truncated position range",
            TruncationWarning,
        )
    x = position_op(dim + pad)
    return _unitary(-gamma * (x @ x @ x), dim)


def _qnd_workspace(dim, pad=None):
    """Per-mode workspace dim + pad of the QND coupling (pad defaults to
    dim // 2), refused when pad < 0 or when it exceeds QND_WORKSPACE_LIMIT.
    The errors name dim and qnd_pad, the gate configuration's fields."""
    if pad is None:
        pad = dim // 2
    if pad < 0:
        raise ValueError(f"qnd_pad must be >= 0, got {pad}")
    if dim + pad > QND_WORKSPACE_LIMIT:
        raise ValueError(f"QND workspace dim + qnd_pad = {dim} + {pad} per mode exceeds "
                         f"the limit QND_WORKSPACE_LIMIT = {QND_WORKSPACE_LIMIT}")
    return dim + pad


def qnd_coupling_op(g, dim, pad=None):
    """Two-mode coupling exp(-i g x1 p2): in the Heisenberg picture
    x2 -> x2 + g*x1 while x1 (and p2) are untouched.

    Built exactly on a (dim+pad)-per-mode workspace from the eigenbases of x1
    and p2 and restricted to dim per mode; see QNDCoupling.
    diagnostics['interior_unitarity'] is the Gram defect of that restriction,
    ||(V_d V_d^H) (x) (W_d W_d^H) - I||_F; W_d is V_d up to a phase per row,
    so it equals ||(V_d V_d^H) (x) (V_d V_d^H) - I||_F.
    """
    g = float(g)
    if dim < 2:
        raise ValueError("need dim >= 2")
    w = _qnd_workspace(dim, pad)
    if g == 0.0:
        eye = np.eye(dim)
        return QNDCoupling(eye, eye, np.ones((dim, dim)), {"interior_unitarity": 0.0})
    xi, v, pi, wv = _quadrature_eigh(w)
    v, wv = v[:dim], wv[:dim]
    return QNDCoupling(v, wv, np.exp(-1j * g * np.outer(xi, pi)),
                       {"interior_unitarity": _qnd_gram_defect(dim, w)})


def qnd_heisenberg_residual(g, dim, pad=None):
    """Residual of U^dag x2 U = x2 + g*x1 for the dim-cutoff coupling,
    measured on the interior block (margin min(pad, dim//2) per mode).

    The conjugation is evaluated at the (dim+pad) workspace from the same
    factors used to build the operator: with T_k = W diag(e^{-i g xi_k pi}) W^H
    and X = W^H x W, T_k^H x T_k = W (X * e^{i g xi_k (pi_i - pi_j)}) W^H
    (truncating first and then conjugating would measure truncation noise,
    not the coupling).  Edge rows of any truncated operator cannot satisfy
    the relation, hence the margin.  Returns the Frobenius norm of the
    interior residual.  pad defaults to 3*dim, capped so that the workspace
    stays within QND_WORKSPACE_LIMIT wherever the coupling itself can be built.
    Above dim 40 the capped workspace cannot vouch for the coupling's
    interior, so the value is not a check there: at g = 1 it is 2.3e-12 at
    dim 16 and 1.9e-13 at dim 40, but 0.159 at dim 64.
    """
    if pad is None:
        pad = min(3 * dim, QND_WORKSPACE_LIMIT - dim)
    w = _qnd_workspace(dim, pad)
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


def _hermite_table(nmax, x):
    """hermite_functions(nmax, x) as a read-only complex table, the form that
    multiplies complex amplitudes without a cast.  Built once per process for
    each of the 4 most recently used (nmax, grid contents): a gate run reads
    two (three off the default grid_points), about 1.4 MB at dim 32, and four
    16384-point tables at dim 85 hold about 90 MB."""
    return _cached_hermite_table(nmax, np.asarray(x, dtype=float).tobytes())


@functools.lru_cache(maxsize=4)
def _cached_hermite_table(nmax, grid_bytes):
    table = hermite_functions(nmax, np.frombuffer(grid_bytes)).astype(complex)
    table.setflags(write=False)
    return table


def default_grid(dim, n_points=2048, margin=3.0):
    """Position grid wide enough for every basis state below the cutoff
    (classical turning point sqrt(2*dim) plus a Gaussian tail margin).

    phi_{dim-1} oscillates with wavenumber up to about sqrt(2*dim), so a
    spacing above pi/sqrt(2*dim) cannot resolve it: such a grid raises a
    TruncationWarning."""
    half = math.sqrt(2.0 * dim) + margin
    spacing = 2.0 * half / (n_points - 1) if n_points > 1 else math.inf
    if spacing > math.pi / math.sqrt(2.0 * dim):
        warnings.warn(
            f"a grid of {n_points} points has spacing {spacing:.3g} > "
            f"pi/sqrt(2*dim) = {math.pi / math.sqrt(2.0 * dim):.3g} and cannot "
            f"resolve phi_{dim - 1}",
            TruncationWarning,
        )
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


def _grid_integral(grid, f):
    """Running trapezoid integral of f (real or complex) on a grid, 0 at grid[0]."""
    return np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) * 0.5 * np.diff(grid))])


def _sample_grid_density(grid, dens, u):
    """Inverse-CDF draws of a density tabulated on a grid, at uniforms u in [0, 1):
    trapezoid CDF, linear interpolation between grid points."""
    cdf = _grid_integral(grid, dens)
    return np.interp(u * cdf[-1], cdf, grid)


def quadrature_moments(state, mode=0):
    """Mean (x, p) and 2x2 covariance of one mode, from the reduced density
    matrix.  x and p move the level by one, so on the density padded by one
    level every second moment of the truncated state is exact."""
    rho = np.pad(state.reduced_density(mode), (0, 1))
    rho /= np.trace(rho).real
    quads = (position_op(rho.shape[0]), momentum_op(rho.shape[0]))
    mean = np.array([np.trace(rho @ q).real for q in quads])
    second = np.array([[0.5 * np.trace(rho @ (q @ r + r @ q)).real for r in quads]
                       for q in quads])
    return mean, second - np.outer(mean, mean)
