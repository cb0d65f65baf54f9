"""Continuous-variable quantum optics simulation toolkit.

Two state representations with cross-checked conventions (hbar = 1,
x = (a + a*)/sqrt(2), vacuum quadrature variance 1/2):

- `gaussian`: means and covariance matrices under symplectic operations,
  loss channels, and homodyne conditioning.
- `fock`: truncated number-basis states and operators (displacement and
  squeeze from truncated generators; cubic phase and QND coupling from
  workspace quadrature eigenbases).

On top of those, `densecoding` models sideband dense coding with EPR beams
and Bell measurement, `cubicphase` the measurement-induced cubic gate
circuit, and `cipd` the charge-integration photon detector signal chain.
`cli` runs scenario files into reproducible data artifacts.
"""

from . import cipd, cli, cubicphase, densecoding, fock, gaussian
from .fock import TruncationWarning

__version__ = "0.1.0"

__all__ = [
    "cipd",
    "cli",
    "cubicphase",
    "densecoding",
    "fock",
    "gaussian",
    "TruncationWarning",
    "__version__",
]
