"""Geometry-free state and bias observers on matrix Lie groups.

The package simulates continuous-time observers that estimate both the
state of an invariant kinematic system ``dg/dt = g xi`` on a matrix Lie
group and a constant additive bias on the measured velocity. The
estimates evolve in the ambient matrix space, which is what buys global
exponential convergence; Lyapunov-certificate diagnostics and an SE(3)
benchmark scenario are included.

The root re-exports each module's ``__all__``, the one list of its
public names.
"""

from .analysis import *
from .errors import *
from .integrate import *
from .kinematics import *
from .liegroup import *
from .matcore import *
from .observers import *

__version__ = "0.1.0"
