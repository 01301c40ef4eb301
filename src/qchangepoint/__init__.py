"""Locating the change point in a stream of qubit states.

A source emits particles in a default state until an unknown position k,
after which every particle comes out in a mutated state with overlap c to
the default.  This package computes how well the change point can be
identified: exact bounds and the square-root-measurement value for
collective measurements on the whole sequence, the closed-form large-n
asymptote, and Monte Carlo estimates for online strategies that measure
particle by particle.

Each module's ``__all__`` is its public API and the only list of its public
names; the package root re-exports all of them, so ``__all__`` here is
their sorted union.
"""

from . import collective, gram, online, rng, special
from .collective import *
from .gram import *
from .online import *
from .rng import *
from .special import *

__version__ = "0.1.0"

__all__ = sorted(set().union(*(module.__all__ for module in (
    collective, gram, online, rng, special))))
