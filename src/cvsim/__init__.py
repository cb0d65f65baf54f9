"""Continuous-variable quantum optics simulation toolkit.

Two state representations with cross-checked conventions (hbar = 1,
x = (a + a*)/sqrt(2), vacuum quadrature variance 1/2):

- `gaussian`: means and covariance matrices under symplectic operations,
  loss channels, and homodyne conditioning.
- `fock`: truncated number-basis states and operators (displacement,
  squeeze and cubic phase as exp(-iH) from one eigendecomposition helper;
  QND coupling from workspace quadrature eigenbases).

On top of those, `densecoding` models sideband dense coding with EPR beams
and Bell measurement, `cubicphase` the measurement-induced cubic gate
circuit, and `cipd` the charge-integration photon detector signal chain.
`cli` runs scenario files into reproducible data artifacts, all written
through `artifacts`, which owns the CSV and JSON format.  Each kind's config
declares its fields once, with `declare.param`; `cli` reads its schema there.
"""

# not `cli`: imported here, it makes `python -m cvsim.cli` print a runpy warning
from . import artifacts, cipd, cubicphase, declare, densecoding, fock, gaussian
from .fock import TruncationWarning

__version__ = "0.1.0"

__all__ = [
    "artifacts",
    "cipd",
    "cli",
    "cubicphase",
    "declare",
    "densecoding",
    "fock",
    "gaussian",
    "TruncationWarning",
    "__version__",
]
