"""Finite-volume simulator and verification harness for a three-component
chemotaxis-convection model of tumor angiogenesis (cells, proteases,
bound attractant potential) with Neumann boundaries.

The public surface mirrors the layer structure: grids and discrete
operators, the constrained elliptic solve, the IMEX time stepper,
diagnostic functionals, threshold formulas, and the scenario harness.
Each module's __all__ is its public surface, re-exported here.
"""

from .grid import *
from .elliptic import *
from .functionals import *
from .dynamics import *
from .thresholds import *
from .config import *
from .harness import *

__version__ = "0.1.0"
