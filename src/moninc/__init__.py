"""Stochastic operator-splitting solvers for structured monotone inclusions.

Find x with 0 in V(x) + T(x), where V is a Lipschitz monotone map available
only through a stochastic sampling oracle and T is maximally monotone with
a cheap resolvent. The main solver combines inertial extrapolation,
a forward-backward-forward update with two independent mini-batches, and
relaxation; baselines, merit functions, rate envelopes, built-in problem
families, and a replication harness round out the package.

Each module's `__all__` is its public API, and every name in it is also
importable from `moninc`. The command-line front end, `moninc.cli`, is not
loaded by `import moninc`.
"""

from .core import *
from .harness import *
from .merit import *
from .oracle import *
from .policy import *
from .problems import *
from .solvers import *
from .theory import *

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
