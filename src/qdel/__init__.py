"""qdel: numerical verification of the quantum no-deleting principle.

Small dense state-vector machinery, the deletion machines the principle
rules out (and the swap that it does not), the N-to-M quality bound and its
optimum, state-dependent deletion fidelities, the unitarity obstruction for
non-orthogonal alphabets, and the no-signalling consistency check.

The root re-exports every library module's ``__all__``; each module's list
is the one place its public names are written down.
"""

__version__ = "0.1.0"

from .errors import *
from .hilbert import *
from .machines import *
from .deletion import *
from .fidelity import *
from .nogo import *
from .signalling import *
from .reports import *
from . import deletion, errors, fidelity, hilbert, machines, nogo, reports, signalling

__all__ = ["__version__"] + [
    name
    for module in (errors, hilbert, machines, deletion, fidelity, nogo, signalling, reports)
    for name in module.__all__
]
