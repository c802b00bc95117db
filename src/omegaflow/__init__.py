"""omegaflow: a numerical laboratory for Wasserstein gradient flows of
energies with Osgood moduli of convexity.

Subpackages by capability:

* :mod:`omegaflow.measures`   discrete probability measures (atomic and
  quantile) with conversions and statistics
* :mod:`omegaflow.transport`  exact W2, optimal plans, geodesics, plan
  gluing, generalized geodesics, the (2, nu)-transport pseudo-metric
* :mod:`omegaflow.moduli`     moduli of convexity, comparison ODE flows,
  explicit Euler maps and error bounds
* :mod:`omegaflow.energies`   potential / interaction / internal energies
  with Lp caps, gradients and convexity certificates
* :mod:`omegaflow.jko`        the proximal map and discrete gradient flow
* :mod:`omegaflow.verify`     numerical checks of the flow inequalities
  (EVI, contraction, HWI, rates) over shipped fixtures
* :mod:`omegaflow.cli`        batch driver (``python -m omegaflow.cli``)
"""

__version__ = "0.1.0"

from . import measures, moduli, transport  # noqa: F401
