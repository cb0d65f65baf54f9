"""Measurement-induced cubic phase gate, desk-scale Fock simulation.

Pipeline: a two-mode squeezed vacuum is prepared, one arm is displaced and
photon-counted (the count shapes the kept arm into a non-Gaussian ancilla),
the ancilla gets a squeeze correction and is coupled to the target through
the QND interaction exp(-i g x_t p_a), and finally the ancilla output is
homodyned, conditioning the target.  In position representation the
conditioned target is psi_t(x) * chi(m - g x), chi the ancilla wavefunction
and m the homodyne outcome, which is where the induced (approximately cubic)
phase comes from.

Diagnostics fit the induced phase profile with a cubic model (constant and
linear terms are measurement-dependent nuisances) and report the fit
coefficient, the weighted residual, the overlap with exp(i gamma_fit x^3)
applied to the input target (on the homodyne sampler's trapezoid rule), and
the ancilla's excess kurtosis in x (exact Fock moments, no grid).  These are
recorded, not asserted, except against this implementation's own frozen
reference run.
"""

from __future__ import annotations

import cmath
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import artifacts, fock

# Most homodyne grid points a gate run may ask for: eight times the default
# 2048, which already oversamples phi_{dim-1} at every cutoff the QND workspace
# allows (dim 85 needs about 135 points).  The readout peaks at about 40 bytes
# per basis state and grid point, so the cap keeps it under 90 MB at dim 128.
MAX_GRID_POINTS = 16384

FIT_WINDOW = 2.0  # the phase fit samples |x| <= FIT_WINDOW at 801 points


@dataclass(frozen=True)
class CubicGateConfig:
    """Knobs of the gate run.  dim is the per-mode Fock cutoff (>= 8); dim +
    qnd_pad may not exceed fock.QND_WORKSPACE_LIMIT, and grid_points lies in
    [2, MAX_GRID_POINTS]."""

    squeezing_r: float = 0.25
    displacement_alpha: complex = 0.5 + 1.0j
    correction_s: float = 0.15
    coupling_g: float = 1.0
    gamma_target: float = 0.05
    dim: int = 16
    qnd_pad: int = None
    post_select_n: int = None
    homodyne_which: str = "ancilla"
    grid_points: int = 2048

    def __post_init__(self):
        for name in ("squeezing_r", "displacement_alpha", "correction_s", "coupling_g",
                     "gamma_target"):
            value = getattr(self, name)
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if abs(self.squeezing_r) > 10.0:  # fock.tmsv's limit, named before any work
            raise ValueError(f"squeezing_r must satisfy |squeezing_r| <= 10, "
                             f"got {self.squeezing_r!r}")
        if self.dim < 8:
            raise ValueError("dim >= 8 is required for a meaningful gate run")
        if self.homodyne_which not in ("ancilla", "target"):
            raise ValueError("homodyne_which must be 'ancilla' or 'target'")
        if self.post_select_n is not None and not 0 <= self.post_select_n < self.dim:
            raise ValueError("post_select_n outside the cutoff")
        fock._qnd_workspace(self.dim, self.qnd_pad)  # before any dim^3 work
        if not 2 <= self.grid_points <= MAX_GRID_POINTS:
            raise ValueError(f"grid_points must be in [2, {MAX_GRID_POINTS}], "
                             f"got {self.grid_points}")

    def as_dict(self):
        a = complex(self.displacement_alpha)
        return {
            "squeezing_r": float(self.squeezing_r),
            "displacement_alpha": [a.real, a.imag],
            "correction_s": float(self.correction_s),
            "coupling_g": float(self.coupling_g),
            "gamma_target": float(self.gamma_target),
            "dim": int(self.dim),
            "qnd_pad": None if self.qnd_pad is None else int(self.qnd_pad),
            "post_select_n": None if self.post_select_n is None else int(self.post_select_n),
            "homodyne_which": self.homodyne_which,
            "grid_points": int(self.grid_points),
        }

    def digest(self):
        """Stable hash of the configuration, for pinning reference runs."""
        blob = artifacts.encode_json(self.as_dict(), indent=None).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class GateRunRecord:
    config: CubicGateConfig
    count_n: int
    count_probability: float
    homodyne_x: float
    conditional_target: np.ndarray
    conditional_ancilla: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def as_dict(self):
        def amps(a):
            return [[float(v.real), float(v.imag)] for v in a]
        return {
            "config": self.config.as_dict(),
            "count_n": int(self.count_n),
            "count_probability": float(self.count_probability),
            "homodyne_x": float(self.homodyne_x),
            "conditional_target": amps(self.conditional_target),
            "conditional_ancilla": amps(self.conditional_ancilla),
            "diagnostics": {k: float(v) for k, v in self.diagnostics.items()},
        }

    def to_json(self):
        """The gate_run.json text."""
        return artifacts.encode_json(self.as_dict()) + "\n"


def prepare_ancilla(config):
    """Entangled resource: TMSV with the counted arm (mode 1) displaced."""
    st = fock.tmsv(config.squeezing_r, config.dim)
    return fock.displacement_op(config.displacement_alpha, config.dim).apply(st, mode=1)


def post_select(state, outcome=None, rng=None):
    """Photon-count the displaced arm; returns the fock-layer count result
    whose `conditional` is the kept (non-Gaussian) ancilla arm."""
    return fock.photon_count(state, mode=1, rng=rng, outcome=outcome)


def apply_correction(ancilla, config):
    """Squeeze correction on the counted-and-kept ancilla arm."""
    return fock.squeeze_op(config.correction_s, config.dim).apply(ancilla)


def couple(target, ancilla, config):
    """Couple target (mode 0) to ancilla (mode 1) through exp(-i g x_t p_a):
    the ancilla x picks up g * x_target."""
    joint = fock.FockState(np.outer(target.amps, ancilla.amps))
    u = fock.qnd_coupling_op(config.coupling_g, config.dim, pad=config.qnd_pad)
    return u.apply(joint)


def homodyne_density(joint, config):
    """Position density of the homodyned mode: p(x) = sum_k |proj_k(x)|^2.

    Projecting mode `which` onto <x| leaves sum_b C[:, b] phi_b(x) (or the
    transpose); the density is its squared norm over the other mode.
    """
    grid = fock.default_grid(config.dim, n_points=config.grid_points)
    basis = fock._hermite_table(config.dim, grid)
    c = joint.amps if config.homodyne_which == "ancilla" else joint.amps.T
    proj = c @ basis  # (dim_other, n_grid); rows indexed by the kept mode
    return grid, np.einsum("kg,kg->g", proj.conj(), proj).real


def readout_and_condition(joint, config, rng=None, fixed_x=None):
    """Homodyne one QND output on the grid; returns (x_m, conditional).

    The conditional state of the kept mode is sum_b C[:, b] phi_b(x_m),
    normalized.  With fixed_x the outcome is imposed instead of sampled.
    """
    if fixed_x is None:
        u = np.random.default_rng(rng).uniform()
        fixed_x = fock._sample_grid_density(*homodyne_density(joint, config), u)
    x_m = float(fixed_x)
    basis_at_x = fock.hermite_functions(config.dim, np.array([x_m]))[:, 0]
    c = joint.amps if config.homodyne_which == "ancilla" else joint.amps.T
    cond = c @ basis_at_x
    n = np.linalg.norm(cond)
    if n == 0.0:
        raise ValueError(f"homodyne outcome x={x_m} has zero density")
    return x_m, fock.FockState(cond / n)


def fit_cubic_phase(target_in, target_out):
    """Weighted LS fit of arg(psi_out/psi_in) to c0 + c1 x + gamma x^3.

    Weights |psi_in * psi_out| suppress points near wavefunction nodes where
    the phase is undefined; points of zero weight (a node on the grid, such
    as x = 0 for an odd state) are dropped.  Returns (gamma_fit, weighted rms
    residual).
    """
    grid = np.linspace(-FIT_WINDOW, FIT_WINDOW, 801)
    # one Hermite table for both states; fock.quadrature_wavefunction's
    # coverage check would fire on this deliberately narrow window
    basis = fock._hermite_table(max(target_in.dim, target_out.dim), grid)
    psi_in, psi_out = (s.normalized().amps @ basis[: s.dim] for s in (target_in, target_out))
    w = np.abs(psi_in * psi_out)
    keep = w > 0.0
    grid, psi_in, psi_out, w = grid[keep], psi_in[keep], psi_out[keep], w[keep] / w.max()
    dphi = np.unwrap(np.angle(psi_out / psi_in))
    a = np.stack([np.ones_like(grid), grid, grid**3], axis=1)
    wa = a * w[:, None]
    coef, *_ = np.linalg.lstsq(wa, dphi * w, rcond=None)
    model = a @ coef
    resid = math.sqrt(float(np.sum(w * (dphi - model) ** 2) / np.sum(w)))
    return float(coef[2]), resid


def cubic_reference_overlap(target_in, target_out, gamma):
    """|<psi_out | e^{i gamma x^3} psi_in>|^2 on the default grid, integrated
    by the homodyne sampler's trapezoid rule."""
    dim = max(target_in.dim, target_out.dim)
    grid = fock.default_grid(dim)
    basis = fock._hermite_table(dim, grid)
    psi_in, psi_out = (s.normalized().amps @ basis[: s.dim] for s in (target_in, target_out))
    ov, n_in, n_out = (fock._grid_integral(grid, f)[-1] for f in (
        psi_out.conj() * np.exp(1j * gamma * grid**3) * psi_in,
        np.abs(psi_in) ** 2, np.abs(psi_out) ** 2))
    return float(abs(ov) ** 2 / (n_in * n_out))


def excess_kurtosis_x(state):
    """Excess kurtosis of the position distribution (0 for any Gaussian).

    Exact central moments: x moves the level by one, so on the state padded
    by two levels z1 = (x - mu) psi and z2 = (x - mu) z1 lose nothing to the
    cutoff, and m2 = |z1|^2, m4 = |z2|^2.
    """
    psi = np.pad(state.normalized().amps, (0, 2))
    x = fock.position_op(state.dim + 2)
    mu = np.vdot(psi, x @ psi).real
    z1 = x @ psi - mu * psi
    z2 = x @ z1 - mu * z1
    return float(np.vdot(z2, z2).real / np.vdot(z1, z1).real ** 2 - 3.0)


def run_gate(config, target=None, seed=None):
    """Full pipeline on a target state (default vacuum); deterministic per seed."""
    gen = np.random.default_rng(seed)
    if target is None:
        target = fock.vacuum_state(config.dim)
    resource = prepare_ancilla(config)
    count = post_select(resource, outcome=config.post_select_n, rng=gen)
    ancilla = apply_correction(count.conditional, config)
    joint = couple(target, ancilla, config)
    x_m, conditioned = readout_and_condition(joint, config, rng=gen)
    # with the ancilla homodyned the surviving mode is the target; homodyning
    # the target instead leaves the ancilla output as the conditioned state
    fit_input = target if config.homodyne_which == "ancilla" else ancilla
    gamma_fit, resid = fit_cubic_phase(fit_input, conditioned)
    diagnostics = {
        "gamma_fit": gamma_fit,
        "phase_residual": resid,
        "cubic_overlap": cubic_reference_overlap(fit_input, conditioned, gamma_fit),
        "ancilla_excess_kurtosis": excess_kurtosis_x(count.conditional),
        "target_norm_defect": abs(conditioned.norm() - 1.0),
    }
    return GateRunRecord(
        config=config,
        count_n=count.n,
        count_probability=count.probability,
        homodyne_x=x_m,
        conditional_target=conditioned.amps,
        conditional_ancilla=ancilla.amps,
        diagnostics=diagnostics,
    )


def count_distribution(config):
    """Photon-count pmf of the displaced arm (before any post-selection)."""
    return prepare_ancilla(config).probabilities(1)


def precision_check(n, delta_n, precision_factor=0.1):
    """Is a counter of resolution delta_n precise enough at photon number n?

    The induced-phase error stays perturbative when delta_n is small against
    n^{1/3}; with the default factor 0.1 this demands delta_n < 0.1 * n^{1/3}.
    Returns (ok, margin) with margin = delta_n / (factor * n^{1/3}).
    """
    if n < 0 or delta_n < 0:
        raise ValueError("photon number and resolution must be nonnegative")
    bound = precision_factor * n ** (1.0 / 3.0) if n > 0 else 0.0
    if bound == 0.0:
        return (delta_n == 0.0), math.inf if delta_n > 0 else 0.0
    margin = delta_n / bound
    return margin < 1.0, margin
