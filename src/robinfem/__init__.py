"""Finite elements for Robin boundary value problems on smooth domains,
discretized on inscribed polygonal meshes without curved elements.

Two schemes share one boundary treatment whose edge weights stay
bounded for every combination of the Robin parameter and the mesh size:
a continuous Galerkin method with a Nitsche-type boundary form, and a
symmetric interior-penalty discontinuous Galerkin method.

Each module declares its public names in __all__; the package
republishes them all.
"""

from .analysis import *
from .assembly import *
from .errors import *
from .felib import *
from .geometry import *
from .mesh import *
from .problems import *
from .solver import *
from .study import *

__version__ = "0.1.0"
