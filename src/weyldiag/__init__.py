"""Positive/admissible diagrams over reduced words in finite Weyl groups.

Library layout: roots (root systems and exact Weyl arithmetic), words
(reduced words and root sequences), diagrams (positivity, the zeta maps,
Bruhat oracles, the root-sum obstruction), grid (the type-A quantum
matrices specialization with Le-diagrams and pipe dreams), verify
(exhaustive sweeps and reports), cli (command line front end).

Each module's __all__ is the package's list of its public names, and errors
exports its exceptions, the only names it defines.
"""

from .errors import *
from .roots import *
from .words import *
from .diagrams import *
from .grid import *
from .verify import *

__version__ = "0.1.0"
