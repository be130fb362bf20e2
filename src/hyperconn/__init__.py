"""Edge-connectivity, boundary operators, and symmetry checks for small
hypergraphs, plus generators for the structured families used to exercise
them.  See the module docstrings for the underlying conventions: vertices
are 0-based ints, edges are sorted tuples, everything is deterministic.

The package exports exactly the ``__all__`` of its four library modules,
so each public name is declared once, in the module that defines it.
"""

from . import connectivity, constructions, model, symmetry
from .connectivity import *  # noqa: F401,F403
from .constructions import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .symmetry import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *model.__all__,
    *connectivity.__all__,
    *symmetry.__all__,
    *constructions.__all__,
]
