"""Truncated Fock-space simulator.

Same quadrature conventions as the Gaussian layer (x = (a + a^dag)/sqrt(2),
vacuum variance 1/2).  A pure state is a complex amplitude array in a
photon-number cutoff `dim`: amps[n] for one mode, amps[n1, n2] for two, not
forced to unit norm.

Every one-mode operator -- displacement D(alpha), squeeze S(s) and cubic
phase exp(i gamma x^3) -- is exp(-i H) of a Hermitian H, built by one helper
from H's eigenpairs and restricted to `dim`.  Every H that is a function of
one quadrature takes them from x's one cached eigendecomposition
x = V diag(xi) V^H (p's eigenbasis is V with a phase on each row); only S
diagonalises its own, once per (s, dim).  D and S take H truncated to `dim`:
exactly unitary at the cutoff, and accurate wherever the state stays clear
of it.  The cubic phase takes H = -gamma x^3 on an enlarged workspace
(dim + pad), so that the retained block is an accurate restriction of the
infinite-dimensional operator.  The QND coupling exp(-i g x1 p2) is built on
such a workspace too, kept in factored form and applied without forming its
(dim^2) x (dim^2) matrix.

Quadrature moments are exact for the truncated state: x and p move the level
by one, so they act on the state padded by one level.  One trapezoid rule
integrates over a position grid: it is the CDF of the one inverse-CDF grid
sampler, which the cubic gate's readout calls, and it gives the gate's
reference overlap.

Truncation trouble is reported through TruncationWarning, never silently.

What a gate run rebuilds unchanged from run to run is built once per process,
in small LRU caches, and shared read-only: Hermite tables per (nmax, grid
contents), a grid's cube per grid contents, x's eigendecomposition per
workspace (D's cutoff, or dim + pad of the cubic phase and the QND coupling)
and the squeeze operator per (s, dim), 4 entries each; and the QND coupling
per (g, dim, workspace), 8 entries.  Hermite tables are real (float64), and
complex amplitudes meet them through real products only.  A dim-32 gate run
retains about 0.95 MB; the table cache's bound keeps it under about 67 MB at
its worst case (four 16384-point tables at dim 128, which qnd_pad 0 allows),
and the coupling cache's under 2.1 MB of phases (8 x 128^2 complex) plus up to
4.2 MB of x's eigenvectors that their rows keep alive.  Every warning check
runs outside the caches, on each call.
"""

from __future__ import annotations

import functools
import math
import types
import warnings
from dataclasses import dataclass, field

import numpy as np

from .gaussian import MAX_SQUEEZING_R


class TruncationWarning(UserWarning):
    """Raised (as a warning) when a cutoff is too small for the requested op/state."""


# workspace per mode above which qnd_coupling_op, qnd_heisenberg_residual and
# cubic_phase_op refuse to run.  It bounds the coupling's dense (dim^2)^2
# `.matrix` built on demand (a run applies it in factored form), the residual's
# workspace^3 array of conjugated blocks and the cubic phase's dense build.
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


def _normalized(amps):
    """amps / ||amps||; the zero vector is refused."""
    n = float(np.linalg.norm(amps))
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return amps / n


@dataclass(frozen=True)
class FockOperator:
    """Matrix operator on one truncated mode.

    `diagnostics` carries build-quality numbers ('interior_unitarity', zero
    up to rounding by construction: see _unitary).
    """

    matrix: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("operator matrix must be square")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def apply(self, amps, mode=0):
        """Act on one-mode amplitudes, or on mode `mode` of two-mode ones."""
        if self.dim != amps.shape[0]:
            raise ValueError("operator/state cutoff mismatch")
        if amps.ndim == 1 or mode == 0:
            return self.matrix @ amps
        return amps @ self.matrix.T


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
    `matrix` is read.  It is shared from qnd_coupling_op's cache, so its arrays
    are made read-only and its diagnostics a read-only mapping.
    """

    x_rows: np.ndarray  # V_d, (dim, workspace)
    p_rows: np.ndarray  # W_d, (dim, workspace)
    phase: np.ndarray   # e^{-i g xi_k pi_j}, (workspace, workspace)
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        for a in (self.x_rows, self.p_rows, self.phase):
            a.setflags(write=False)
        object.__setattr__(self, "diagnostics", types.MappingProxyType(dict(self.diagnostics)))

    @property
    def dim(self):
        """Per-mode cutoff."""
        return self.x_rows.shape[0]

    def apply(self, amps):
        if amps.ndim != 2:
            raise ValueError("cannot apply a two-mode operator to a one-mode state")
        if self.dim != amps.shape[0]:
            raise ValueError("operator/state cutoff mismatch")
        inner = (self.x_rows.conj().T @ amps @ self.p_rows.conj()) * self.phase
        return self.x_rows @ inner @ self.p_rows.T

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
    conditional: np.ndarray  # the normalized amplitudes of mode 0


# ---------------------------------------------------------------------------
# states


def vacuum_state(dim):
    a = np.zeros(dim, dtype=complex)
    a[0] = 1.0
    return a


def tmsv(r, dim):
    """Two-mode squeezed vacuum: amps[n, n] = tanh^n(r)/cosh(r), renormalized.

    The discarded tail carries weight tanh(r)^{2 dim}; a TruncationWarning is
    raised when that exceeds 1e-10.
    """
    if abs(r) > MAX_SQUEEZING_R:
        raise ValueError(f"|r| > {MAX_SQUEEZING_R} is not supported (got r={r})")
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
    return _normalized(amps)


# ---------------------------------------------------------------------------
# measurement


def photon_count(amps, rng=None, outcome=None):
    """Ideal photon-number measurement of mode 1 of a two-mode state.

    Either draws the outcome (rng) or evaluates a fixed one (outcome=n).
    Returns the outcome, its probability, and the normalized conditional
    state of mode 0.
    """
    if amps.ndim != 2:
        raise ValueError("photon_count expects a two-mode state")
    pmf = (np.abs(amps) ** 2).sum(axis=0)
    total = pmf.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-8):
        raise ValueError(f"state is not normalized (total probability {total:.6f})")
    if outcome is None:
        gen = np.random.default_rng(rng)
        outcome = int(gen.choice(pmf.size, p=pmf / total))
    else:
        outcome = int(outcome)
        if not 0 <= outcome < pmf.size:
            raise ValueError(f"outcome {outcome} outside the cutoff {pmf.size}")
    prob = float(pmf[outcome])
    if prob <= 1e-15:
        raise ValueError(f"outcome n={outcome} has zero probability")
    return PhotonCountResult(outcome, prob, amps[:, outcome] / math.sqrt(prob))


# ---------------------------------------------------------------------------
# operators


def _unitary(lam, v, dim):
    """exp(-i H) for H = v diag(lam) v^H on a workspace, restricted to its
    first `dim` levels (a zero generator gives the identity exactly).
    diagnostics['interior_unitarity'] is ||C^H C - I||_F of the first `dim`
    columns C of the workspace unitary: zero up to rounding by construction
    (9.0e-15 for the cubic phase at dim 20, pad 20 and gamma 0.05, where the
    retained block U_b itself has ||U_b^H U_b - I||_F = 1.85)."""
    if not lam.any():
        return FockOperator(np.eye(dim), diagnostics={"interior_unitarity": 0.0})
    cols = (v * np.exp(-1j * lam)) @ v[:dim].conj().T
    defect = float(np.linalg.norm(cols.conj().T @ cols - np.eye(dim)))
    return FockOperator(cols[:dim], diagnostics={"interior_unitarity": defect})


def displacement_op(alpha, dim):
    """D(alpha) = exp(alpha a^dag - alpha* a): exactly unitary at any cutoff.
    Its truncated generator i(alpha a^dag - alpha* a) is sqrt(2)|alpha| R^H p R,
    R = diag(e^{-i n arg alpha}), so its eigenpairs are p's from
    _quadrature_eigh(dim).  ValueError naming alpha where they are not finite."""
    alpha = complex(alpha)
    size2 = abs(alpha) * abs(alpha)  # inf past the float range, where ** raises
    if size2 > dim / 4.0:
        warnings.warn(
            f"displacement |alpha|^2 = {size2:.2f} is large for dim={dim}; "
            "the displaced state will be clipped",
            TruncationWarning,
        )
    _, _, pi, w = _quadrature_eigh(dim)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite one is refused below
        lam = math.sqrt(2.0) * abs(alpha) * pi
    if not np.isfinite(lam).all():
        raise ValueError(f"alpha: {alpha!r} gives a non-finite generator at dim={dim}")
    return _unitary(lam, np.exp(1j * np.angle(alpha) * np.arange(dim))[:, None] * w, dim)


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
    return _unitary(*np.linalg.eigh(0.5j * s * (a @ a - a.conj().T @ a.conj().T)), dim)


@functools.lru_cache(maxsize=4)
def _quadrature_eigh(workspace):
    """x = V diag(xi) V^H and p = W diag(pi) W^H on a `workspace`-level space;
    returns (xi, V, pi, W): the factors of the QND coupling and its residual,
    and the eigenpairs of the generators of D (pi, W) and the cubic phase.

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
    """exp(i gamma x^3) = exp(-i H), H = -gamma x^3 at workspace dim+pad,
    truncated to dim: H's eigenpairs are (-gamma xi^3, V) from x's.  The
    workspace is the QND coupling's, with its pad default and refusals."""
    gamma = float(gamma)
    xi, v, _, _ = _quadrature_eigh(_qnd_workspace(dim, pad))
    if gamma * dim ** 1.5 > CUBIC_ALIAS_LIMIT:
        warnings.warn(
            f"gamma*dim^(3/2) = {gamma * dim**1.5:.2f} risks phase aliasing across "
            "the truncated position range",
            TruncationWarning,
        )
    return _unitary(-gamma * xi ** 3, v, dim)


def _qnd_workspace(dim, pad=None):
    """Per-mode workspace dim + pad of the QND coupling and the cubic phase
    (pad defaults to dim // 2), refused when pad < 0 or when it exceeds
    QND_WORKSPACE_LIMIT.  The errors name dim and qnd_pad, the gate
    configuration's fields."""
    if pad is None:
        pad = dim // 2
    if pad < 0:
        raise ValueError(f"qnd_pad: must be >= 0, got {pad}")
    if dim + pad > QND_WORKSPACE_LIMIT:
        raise ValueError(f"dim, qnd_pad: QND workspace dim + qnd_pad = {dim} + {pad} per mode "
                         f"exceeds the limit QND_WORKSPACE_LIMIT = {QND_WORKSPACE_LIMIT}")
    return dim + pad


def qnd_coupling_op(g, dim, pad=None):
    """Two-mode coupling exp(-i g x1 p2): in the Heisenberg picture
    x2 -> x2 + g*x1 while x1 (and p2) are untouched.

    Built exactly on a (dim+pad)-per-mode workspace from the eigenbases of x1
    and p2 and restricted to dim per mode; see QNDCoupling.
    diagnostics['interior_unitarity'] is the Gram defect of that restriction,
    ||(V_d V_d^H) (x) (W_d W_d^H) - I||_F; W_d is V_d up to a phase per row,
    so it equals ||(V_d V_d^H) (x) (V_d V_d^H) - I||_F.  V_d is rows of the
    unitary V, so V_d V_d^H = I and the value is zero up to rounding whatever
    the truncation: 2.5e-14 at dim 16, pad 8, where the retained block U_b
    itself has ||U_b^H U_b - I||_F = 9.4.

    Built once per process for each of the 8 most recently used
    (g, dim, workspace) and shared between calls.
    """
    g = float(g)
    if dim < 2:
        raise ValueError("need dim >= 2")
    return _cached_coupling(g, dim, _qnd_workspace(dim, pad))


@functools.lru_cache(maxsize=8)
def _cached_coupling(g, dim, workspace):
    if g == 0.0:
        eye = np.eye(dim)
        return QNDCoupling(eye, eye, np.ones((dim, dim)), {"interior_unitarity": 0.0})
    xi, v, pi, wv = _quadrature_eigh(workspace)
    v, wv = v[:dim], wv[:dim]
    return QNDCoupling(v, wv, np.exp(-1j * g * np.outer(xi, pi)),
                       {"interior_unitarity": _product_gram_defect(v)})


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
    """Harmonic-oscillator eigenfunctions phi_0..phi_{nmax-1} at x, shape
    (nmax,) + x.shape: on a grid, or at one point (a scalar x runs the
    recurrence on numpy scalars).

    Stable two-term recurrence:
        phi_0 = pi^{-1/4} exp(-x^2/2)
        phi_{n+1} = sqrt(2/(n+1)) x phi_n - sqrt(n/(n+1)) phi_{n-1}
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax,) + x.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if nmax > 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, nmax - 1):
        out[n + 1] = math.sqrt(2.0 / (n + 1)) * x * out[n] - math.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


def _hermite_table(nmax, x):
    """hermite_functions(nmax, x) as a read-only float64 table.  Built once per
    process for each of the 4 most recently used (nmax, grid contents): a gate
    run reads two (three off the default grid_points), 0.73 MB at dim 32, and
    four 16384-point tables at dim 128 hold 67 MB."""
    return _cached_hermite_table(nmax, np.asarray(x, dtype=float).tobytes())


@functools.lru_cache(maxsize=4)
def _cached_hermite_table(nmax, grid_bytes):
    table = hermite_functions(nmax, np.frombuffer(grid_bytes))
    table.setflags(write=False)
    return table


def _grid_cube(grid):
    """grid**3 as a read-only array, built once per process for each of the 4
    most recently used grid contents (numpy's ** evaluates pow per point)."""
    return _cached_grid_cube(np.asarray(grid, dtype=float).tobytes())


@functools.lru_cache(maxsize=4)
def _cached_grid_cube(grid_bytes):
    cube = np.frombuffer(grid_bytes) ** 3
    cube.setflags(write=False)
    return cube


def _wavefunction(amps, table):
    """psi(x) = sum_n amps[n] phi_n(x) on a real Hermite table's grid, for an
    amplitude vector (or a stack of them) with at most the table's levels.
    One real product: the table meets the real and imaginary parts side by
    side, and the (grid, 2) result is read as complex without a copy."""
    amps = np.asarray(amps)
    basis = table[: amps.shape[-1]].T
    return (basis @ np.stack([amps.real, amps.imag], axis=-1)).view(complex)[..., 0]


def default_grid(dim, n_points=2048):
    """Position grid wide enough for every basis state below the cutoff
    (classical turning point sqrt(2*dim) plus a Gaussian tail margin of 3).

    phi_{dim-1} oscillates with wavenumber up to about sqrt(2*dim), so a
    spacing above pi/sqrt(2*dim) cannot resolve it: such a grid raises a
    TruncationWarning."""
    half = math.sqrt(2.0 * dim) + 3.0
    spacing = 2.0 * half / (n_points - 1) if n_points > 1 else math.inf
    if spacing > math.pi / math.sqrt(2.0 * dim):
        warnings.warn(
            f"a grid of {n_points} points has spacing {spacing:.3g} > "
            f"pi/sqrt(2*dim) = {math.pi / math.sqrt(2.0 * dim):.3g} and cannot "
            f"resolve phi_{dim - 1}",
            TruncationWarning,
        )
    return np.linspace(-half, half, n_points)


def _grid_integral(grid, f):
    """Running trapezoid integral of f (real or complex) on a grid, 0 at grid[0]."""
    return np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) * 0.5 * np.diff(grid))])


def _sample_grid_density(grid, dens, u):
    """Inverse-CDF draws of a density tabulated on a grid, at uniforms u in [0, 1):
    trapezoid CDF, linear interpolation between grid points."""
    cdf = _grid_integral(grid, dens)
    return np.interp(u * cdf[-1], cdf, grid)


def quadrature_moments(amps, mode=0):
    """Mean (x, p) and 2x2 covariance of one mode, from the reduced density
    matrix.  x and p move the level by one, so on the density padded by one
    level every second moment of the truncated state is exact."""
    c = amps if mode == 0 else amps.T
    rho = np.pad(np.outer(c, c.conj()) if c.ndim == 1 else c @ c.conj().T, (0, 1))
    rho /= np.trace(rho).real
    quads = (position_op(rho.shape[0]), momentum_op(rho.shape[0]))
    mean = np.array([np.trace(rho @ q).real for q in quads])
    second = np.array([[0.5 * np.trace(rho @ (q @ r + r @ q)).real for r in quads]
                       for q in quads])
    return mean, second - np.outer(mean, mean)
