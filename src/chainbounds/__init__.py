"""chainbounds: chaining functionals, explicit tail bounds, and simulators.

The package computes gamma-type chaining functionals on finite metric
spaces, psi_alpha Orlicz norms, explicit-constant conversions between
moment and tail formulations, supremum bounds for several process
families (sub-gaussian, martingale, mixed-tail, empirical, squares,
second-order chaos), restricted-isometry diagnostics for the subsampled
discrete Fourier transform, and seeded Monte Carlo validators for all of
the above.

Each module's ``__all__`` is its public interface; the package re-exports
their union.
"""

from . import (
    bounds,
    chaining,
    conversions,
    errors,
    metric,
    orlicz,
    processes,
    registry,
    results,
    rip,
    schatten,
    serialize,
    validation,
)
from .bounds import *  # noqa: F401,F403
from .chaining import *  # noqa: F401,F403
from .conversions import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .metric import *  # noqa: F401,F403
from .orlicz import *  # noqa: F401,F403
from .processes import *  # noqa: F401,F403
from .registry import *  # noqa: F401,F403
from .results import *  # noqa: F401,F403
from .rip import *  # noqa: F401,F403
from .schatten import *  # noqa: F401,F403
from .serialize import *  # noqa: F401,F403
from .validation import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (
    bounds, chaining, conversions, errors, metric, orlicz, processes,
    registry, results, rip, schatten, serialize, validation,
)
__all__ = sorted(name for module in _MODULES for name in module.__all__)
