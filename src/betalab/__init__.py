"""betalab: beta-shift machinery — expansions, admissibility automata,
mistake-tolerant entropy estimates, and constructive irregular points."""

__version__ = "0.1.0"

from .beta_core import (  # noqa: F401
    BetaNumber,
    beta_from_expansion,
    expansion_of_one,
    greedy_expansion,
    simple_beta_approx,
)
from .errors import BetalabError, ResourceError, UsageError  # noqa: F401
from .observables import Observable, parse_observable  # noqa: F401
from .words import SymbolWord  # noqa: F401
