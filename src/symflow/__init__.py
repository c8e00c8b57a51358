"""symflow: exact verification of the coupled Hirota system's nonlocal
symmetry structure, finite group flow, subalgebra classification, and
nonlocal conservation laws.

Import each name from its module; the package only loads them.
"""

from . import expr, jetsys, linsym, grpflow, liealg, conslaw, numcheck
# perfbench's harness test counts this binding among verify_symmetry's (linsym and the package)
from .linsym import verify_symmetry

__version__ = "0.1.0"
