"""Quantum walks on chains of directionally-unbiased three-port diamonds.

Simulates SSH-like lattices built from diamond graphs of linear-optical
three-ports: single-diamond scattering, band structure and winding numbers in
momentum space, and time-domain walk dynamics exhibiting gap closing and
topologically protected boundary states.

The package re-exports each module's ``__all__``; those lists are the only
statement of the public names.
"""

from . import bands, config, diamond, lattice, multiport, walk
from .bands import *
from .config import *
from .diamond import *
from .lattice import *
from .multiport import *
from .walk import *

__version__ = "0.1.0"

__all__ = (bands.__all__ + config.__all__ + diamond.__all__ + lattice.__all__
           + multiport.__all__ + walk.__all__)
