"""Channel-adaptive planning for early-exit edge inference.

A closed-form accuracy model for quantized angular features, latency/EPR
system model, a rate-maximizing (bit-width, depth) planner, and a Monte
Carlo simulator that validates the model end to end.  The package exports
each module's ``__all__``; the modules are the one list of public names.
"""

from . import accuracy, circstats, config, fitting, optimizer, rng, simulator, system
from .accuracy import *  # noqa: F401,F403
from .circstats import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .fitting import *  # noqa: F401,F403
from .optimizer import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403
from .simulator import *  # noqa: F401,F403
from .system import *  # noqa: F401,F403

__all__ = [
    name
    for module in (accuracy, circstats, config, fitting, optimizer, rng, simulator, system)
    for name in module.__all__
]

__version__ = "0.1.0"
