"""Exception hierarchy shared by all betalab modules.

Five classes, one per CLI exit code and the two resource limits that
reports tell apart:

- ``BetalabError``: the base of all betalab errors.
- ``UsageError`` (exit 2): bad input, or inputs for which the requested
  object does not exist; the message names the check that failed.
- ``ResourceError`` (exit 3): a resource ran out at runtime, either
  ``BudgetExceeded`` (a search or size budget) or
  ``UndecidableAtPrecision`` (the precision cap).
"""


class BetalabError(Exception):
    """Base class for all betalab errors."""


class UsageError(BetalabError):
    """Bad input, or inputs for which the requested object does not exist."""


class ResourceError(BetalabError):
    """A configured precision or search budget was exhausted."""


class BudgetExceeded(ResourceError):
    """A search or size budget was exhausted."""


class UndecidableAtPrecision(ResourceError):
    """A comparison stayed undecided at the precision cap."""
