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
coefficient, the weighted residual, and the overlap with exp(i gamma_fit x^3)
applied to the input target.  These are recorded, not asserted, except
against this implementation's own frozen reference run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson

from . import fock


@dataclass(frozen=True)
class CubicGateConfig:
    """Knobs of the gate run.  dim is the per-mode Fock cutoff (>= 8)."""

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
        if self.dim < 8:
            raise ValueError("dim >= 8 is required for a meaningful gate run")
        if self.homodyne_which not in ("ancilla", "target"):
            raise ValueError("homodyne_which must be 'ancilla' or 'target'")
        if self.post_select_n is not None and not 0 <= self.post_select_n < self.dim:
            raise ValueError("post_select_n outside the cutoff")

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
        blob = json.dumps(self.as_dict(), sort_keys=True).encode()
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
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"


def prepare_ancilla(config):
    """Entangled resource: TMSV with the counted arm (mode 1) displaced."""
    st = fock.tmsv(config.squeezing_r, config.dim)
    if config.displacement_alpha != 0:
        st = fock.displacement_op(config.displacement_alpha, config.dim).apply(st, mode=1)
    return st


def post_select(state, outcome=None, rng=None):
    """Photon-count the displaced arm; returns the fock-layer count result
    whose `conditional` is the kept (non-Gaussian) ancilla arm."""
    return fock.photon_count(state, mode=1, rng=rng, outcome=outcome)


def apply_correction(ancilla, config):
    """Squeeze correction on the counted-and-kept ancilla arm."""
    if config.correction_s == 0.0:
        return ancilla
    return fock.squeeze_op(config.correction_s, config.dim).apply(ancilla)


def couple(target, ancilla, config):
    """Couple target (mode 0) to ancilla (mode 1) through exp(-i g x_t p_a):
    the ancilla x picks up g * x_target."""
    joint = fock.FockState(np.outer(target.amps, ancilla.amps))
    u = fock.qnd_coupling_op(config.coupling_g, config.dim, pad=config.qnd_pad)
    return u.apply(joint)


def homodyne_grid(config):
    return fock.default_grid(config.dim, n_points=config.grid_points)


def homodyne_density(joint, config):
    """Position density of the homodyned mode: p(x) = sum_k |proj_k(x)|^2.

    Projecting mode `which` onto <x| leaves sum_b C[:, b] phi_b(x) (or the
    transpose); the density is its squared norm over the other mode.
    """
    grid = homodyne_grid(config)
    basis = fock.hermite_functions(config.dim, grid)
    c = joint.amps if config.homodyne_which == "ancilla" else joint.amps.T
    proj = c @ basis  # (dim_other, n_grid); rows indexed by the kept mode
    return grid, np.einsum("kg,kg->g", proj.conj(), proj).real


def readout_and_condition(joint, config, rng=None, fixed_x=None):
    """Homodyne one QND output on the grid; returns (x_m, conditional, density).

    The conditional state of the kept mode is sum_b C[:, b] phi_b(x_m),
    normalized.  With fixed_x the outcome is imposed instead of sampled.
    """
    grid, dens = homodyne_density(joint, config)
    if fixed_x is None:
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(grid))])
        total = cdf[-1]
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        x_m = float(np.interp(gen.uniform() * total, cdf, grid))
    else:
        x_m = float(fixed_x)
    basis_at_x = fock.hermite_functions(config.dim, np.array([x_m]))[:, 0]
    c = joint.amps if config.homodyne_which == "ancilla" else joint.amps.T
    cond = c @ basis_at_x
    n = np.linalg.norm(cond)
    if n == 0.0:
        raise ValueError(f"homodyne outcome x={x_m} has zero density")
    return x_m, fock.FockState(cond / n), (grid, dens)


def fit_cubic_phase(target_in, target_out, gamma_reference=0.0, window=2.0):
    """Weighted LS fit of arg(psi_out/psi_in) to c0 + c1 x + gamma x^3.

    Weights |psi_in * psi_out| suppress points near wavefunction nodes where
    the phase is undefined.  Returns (gamma_fit, weighted rms residual).
    """
    grid = np.linspace(-window, window, 801)
    # pointwise evaluation on a deliberately narrow window; bypass the
    # full-support wavefunction helper so its coverage check stays meaningful
    basis = fock.hermite_functions(max(target_in.dim, target_out.dim), grid)
    psi_in = target_in.normalized().amps @ basis[: target_in.dim]
    psi_out = target_out.normalized().amps @ basis[: target_out.dim]
    w = np.abs(psi_in * psi_out)
    w /= w.max()
    dphi = np.unwrap(np.angle(psi_out / psi_in))
    a = np.stack([np.ones_like(grid), grid, grid**3], axis=1)
    wa = a * w[:, None]
    coef, *_ = np.linalg.lstsq(wa, dphi * w, rcond=None)
    model = a @ coef
    resid = math.sqrt(float(np.sum(w * (dphi - model) ** 2) / np.sum(w)))
    return float(coef[2]), resid


def cubic_reference_overlap(target_in, target_out, gamma):
    """|<psi_out | e^{i gamma x^3} psi_in>|^2 on the default grid."""
    dim = max(target_in.dim, target_out.dim)
    grid = fock.default_grid(dim)
    psi_in = fock.quadrature_wavefunction(target_in.normalized(), grid)
    psi_out = fock.quadrature_wavefunction(target_out.normalized(), grid)
    ref = np.exp(1j * gamma * grid**3) * psi_in
    ov = simpson(psi_out.conj() * ref, x=grid)
    nn = simpson(np.abs(psi_out) ** 2, x=grid) * simpson(np.abs(ref) ** 2, x=grid)
    return float(abs(ov) ** 2 / nn)


def excess_kurtosis_x(state, grid=None):
    """Excess kurtosis of the position distribution (0 for any Gaussian)."""
    if grid is None:
        grid = fock.default_grid(state.dim)
    dens = np.abs(fock.quadrature_wavefunction(state.normalized(), grid)) ** 2
    total = simpson(dens, x=grid)
    mu = simpson(grid * dens, x=grid) / total
    m2 = simpson((grid - mu) ** 2 * dens, x=grid) / total
    m4 = simpson((grid - mu) ** 4 * dens, x=grid) / total
    return float(m4 / m2**2 - 3.0)


def run_gate(config, target=None, seed=None):
    """Full pipeline on a target state (default vacuum); deterministic per seed."""
    gen = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if target is None:
        target = fock.vacuum_state(config.dim)
    resource = prepare_ancilla(config)
    count = post_select(resource, outcome=config.post_select_n, rng=gen)
    ancilla = apply_correction(count.conditional, config)
    joint = couple(target, ancilla, config)
    x_m, conditioned, _ = readout_and_condition(joint, config, rng=gen)
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
