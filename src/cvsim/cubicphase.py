"""Measurement-induced cubic phase gate, desk-scale Fock simulation.

Pipeline, as run_gate runs it: prepare_ancilla builds a two-mode squeezed
vacuum with one arm displaced; fock.photon_count counts that arm (the count
shapes the kept arm into a non-Gaussian ancilla); fock.squeeze_op applies the
squeeze correction; couple joins ancilla and target through the QND
interaction exp(-i g x_t p_a); and readout_and_condition homodynes the
ancilla output, conditioning the target.  In position representation the
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

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import artifacts, fock
from .declare import check, param

# Most homodyne grid points a gate run may ask for: eight times the default
# 2048, which already oversamples phi_{dim-1} at every cutoff the QND workspace
# allows (dim 85 needs about 135 points).  The readout peaks at about 24 bytes
# per basis state and grid point (the real table, then the real and imaginary
# projections), so the cap keeps it near 51 MB at dim 128.
MAX_GRID_POINTS = 16384

# Largest |displacement_alpha|: past it the counted arm's mean photon number |alpha|^2
# exceeds every cutoff the QND workspace allows (and from |alpha| ~ 1e154 it overflows)
MAX_DISPLACEMENT = math.sqrt(fock.QND_WORKSPACE_LIMIT)

# Largest |coupling_g|: past it the ancilla's shift g x_target over one vacuum width
# (1/sqrt 2) leaves the position range sqrt(2 QND_WORKSPACE_LIMIT) of every workspace
# (and from g ~ 1e306 the coupling's phase g xi pi overflows)
MAX_COUPLING_G = 2.0 * math.sqrt(fock.QND_WORKSPACE_LIMIT)

FIT_WINDOW = 2.0  # the phase fit samples |x| <= FIT_WINDOW at 801 points
FIT_GRID = np.linspace(-FIT_WINDOW, FIT_WINDOW, 801)
FIT_GRID_CUBE = FIT_GRID**3
FIT_GRID.setflags(write=False)
FIT_GRID_CUBE.setflags(write=False)


@dataclass(frozen=True)
class CubicGateConfig:
    """Knobs of the gate run; dim + qnd_pad may not exceed fock.QND_WORKSPACE_LIMIT."""

    squeezing_r: float = param(0.25, "resource squeezing", ge=-fock.MAX_SQUEEZING_R,
                               le=fock.MAX_SQUEEZING_R)  # tmsv's, refused before any work
    displacement_alpha: complex = param(0.5 + 1.0j, "[re, im] displacement of the counted arm",
                                        le=MAX_DISPLACEMENT)  # its modulus
    correction_s: float = param(0.15, "ancilla squeeze correction", ge=-fock.MAX_SQUEEZING_R,
                                le=fock.MAX_SQUEEZING_R)
    coupling_g: float = param(1.0, "QND coupling strength", ge=-MAX_COUPLING_G,
                              le=MAX_COUPLING_G)
    gamma_target: float = param(0.05, "cubic strength aimed for (diagnostic)")
    dim: int = param(16, "per-mode Fock cutoff", ge=8)
    qnd_pad: int = param(None, "coupling workspace padding; default dim/2")
    post_select_n: int = param(None, "forced photon count; default sampled")
    homodyne_which: str = param("ancilla", "which coupled mode is homodyned")
    grid_points: int = param(2048, "quadrature grid resolution", ge=2, le=MAX_GRID_POINTS)

    def __post_init__(self):
        check(self)
        if self.homodyne_which not in ("ancilla", "target"):
            raise ValueError("homodyne_which: must be 'ancilla' or 'target', got "
                             f"{self.homodyne_which!r}")
        if self.post_select_n is not None and not 0 <= self.post_select_n < self.dim:
            raise ValueError(f"post_select_n: must be in [0, {self.dim}), got {self.post_select_n}")
        fock._qnd_workspace(self.dim, self.qnd_pad)  # before any dim^3 work

    def as_dict(self):
        return {f.name: [v.real, v.imag] if isinstance(v, complex) else v
                for f in fields(self) for v in [getattr(self, f.name)]}

    def digest(self):
        """Stable hash of the configuration, for pinning reference runs."""
        blob = json.dumps(self.as_dict(), sort_keys=True, allow_nan=False).encode()
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
        def amps(a):  # [[re, im], ...] in one pass
            return np.ascontiguousarray(a, dtype=complex).view(float).reshape(-1, 2).tolist()
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


def couple(target, ancilla, config):
    """Couple target (mode 0) to ancilla (mode 1) through exp(-i g x_t p_a):
    the ancilla x picks up g * x_target."""
    u = fock.qnd_coupling_op(config.coupling_g, config.dim, pad=config.qnd_pad)
    return u.apply(np.outer(target, ancilla))


def homodyne_density(joint, config):
    """Position density of the homodyned mode: p(x) = sum_k |proj_k(x)|^2.

    Projecting mode `which` onto <x| leaves proj_k(x) = sum_b C[k, b] phi_b(x)
    (C transposed when the target is homodyned); the density is its squared
    norm over the kept mode k.  phi_b is real, so that norm is
    ||Re(C) phi(x)||^2 + ||Im(C) phi(x)||^2: one real product and a sum of
    squares, which cannot go negative.
    """
    grid = fock.default_grid(config.dim, n_points=config.grid_points)
    basis = fock._hermite_table(config.dim, grid)
    c = joint if config.homodyne_which == "ancilla" else joint.T
    proj = np.concatenate([c.real, c.imag]) @ basis  # (2 dim_kept, n_grid)
    return grid, np.einsum("kg,kg->g", proj, proj)


def readout_and_condition(joint, config, rng=None, fixed_x=None):
    """Homodyne one QND output on the grid; returns (x_m, conditional).

    The conditional state of the kept mode is sum_b C[:, b] phi_b(x_m),
    normalized.  With fixed_x the outcome is imposed instead of sampled.
    """
    if fixed_x is None:
        u = np.random.default_rng(rng).uniform()
        fixed_x = fock._sample_grid_density(*homodyne_density(joint, config), u)
    x_m = float(fixed_x)
    basis_at_x = fock.hermite_functions(config.dim, x_m)
    c = joint if config.homodyne_which == "ancilla" else joint.T
    cond = c @ basis_at_x
    n = np.linalg.norm(cond)
    if n == 0.0:
        raise ValueError(f"homodyne outcome x={x_m} has zero density")
    return x_m, cond / n


def fit_cubic_phase(target_in, target_out):
    """Weighted LS fit of arg(psi_out/psi_in) to c0 + c1 x + gamma x^3.

    Weights |psi_in * psi_out| suppress points near wavefunction nodes where
    the phase is undefined; points of zero weight (a node on the grid, such
    as x = 0 for an odd state) are dropped.  Returns (gamma_fit, weighted rms
    residual).
    """
    basis = fock._hermite_table(max(len(target_in), len(target_out)), FIT_GRID)
    psi_in, psi_out = (fock._wavefunction(fock._normalized(s), basis)
                       for s in (target_in, target_out))
    w = np.abs(psi_in * psi_out)
    keep = w > 0.0
    grid, cube = FIT_GRID[keep], FIT_GRID_CUBE[keep]
    psi_in, psi_out, w = psi_in[keep], psi_out[keep], w[keep] / w.max()
    dphi = np.unwrap(np.angle(psi_out / psi_in))
    a = np.stack([np.ones_like(grid), grid, cube], axis=1)
    wa = a * w[:, None]
    coef, *_ = np.linalg.lstsq(wa, dphi * w, rcond=None)
    model = a @ coef
    resid = math.sqrt(float(np.sum(w * (dphi - model) ** 2) / np.sum(w)))
    return float(coef[2]), resid


def cubic_reference_overlap(target_in, target_out, gamma):
    """|<psi_out | e^{i gamma x^3} psi_in>|^2 on the default grid, integrated
    by the homodyne sampler's trapezoid rule."""
    dim = max(len(target_in), len(target_out))
    grid = fock.default_grid(dim)
    basis = fock._hermite_table(dim, grid)
    psi_in, psi_out = (fock._wavefunction(fock._normalized(s), basis)
                       for s in (target_in, target_out))
    ov, n_in, n_out = (fock._grid_integral(grid, f)[-1] for f in (
        psi_out.conj() * np.exp(1j * gamma * fock._grid_cube(grid)) * psi_in,
        np.abs(psi_in) ** 2, np.abs(psi_out) ** 2))
    return float(abs(ov) ** 2 / (n_in * n_out))


def excess_kurtosis_x(amps):
    """Excess kurtosis of the position distribution (0 for any Gaussian).

    Exact central moments: x moves the level by one, so on the state padded
    by two levels z1 = (x - mu) psi and z2 = (x - mu) z1 lose nothing to the
    cutoff, and m2 = |z1|^2, m4 = |z2|^2.
    """
    psi = np.pad(fock._normalized(amps), (0, 2))
    x = fock.position_op(len(amps) + 2)
    mu = np.vdot(psi, x @ psi).real
    z1 = x @ psi - mu * psi
    z2 = x @ z1 - mu * z1
    return float(np.vdot(z2, z2).real / np.vdot(z1, z1).real ** 2 - 3.0)


def run_gate(config, seed=None):
    """Full pipeline on a vacuum target; deterministic per seed."""
    gen = np.random.default_rng(seed)
    target = fock.vacuum_state(config.dim)
    resource = prepare_ancilla(config)
    try:  # photon-count the displaced arm; the kept arm is the ancilla
        count = fock.photon_count(resource, rng=gen, outcome=config.post_select_n)
    except ValueError as exc:  # a forced count is the config's post_select_n
        raise (exc if config.post_select_n is None
               else ValueError(f"post_select_n: {exc}")) from None
    ancilla = fock.squeeze_op(config.correction_s, config.dim).apply(count.conditional)
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
        "target_norm_defect": abs(np.linalg.norm(conditioned) - 1.0),
    }
    return GateRunRecord(
        config=config,
        count_n=count.n,
        count_probability=count.probability,
        homodyne_x=x_m,
        conditional_target=conditioned,
        conditional_ancilla=ancilla,
        diagnostics=diagnostics,
    )

