"""flatsic: construction and verification of almost-flat SIC fiducial vectors.

The toolkit builds almost-flat ansatz vectors (including closed-form Legendre
vectors), decides the SIC property through displacement overlaps and quartic
autocorrelation checks, evaluates the X-overlap equation and its companion
identities, generates the exact polynomial systems behind the rescaled
ansatz for external computer-algebra engines, and runs seeded numerical
searches over the free phase angles.
"""

from .ansatz import *
from .legendre import *
from .polysys import *
from .search import *
from .vectorio import *
from .verify import *
from .weyl import *

__version__ = "0.1.0"
