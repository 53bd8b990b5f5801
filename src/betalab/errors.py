"""Exception hierarchy shared by all betalab modules.

Every error belongs to one of two families, the CLI exit codes: input/usage
problems (exit 2) and resource limits hit at runtime (exit 3).
"""


class BetalabError(Exception):
    """Base class for all betalab errors."""


class UsageError(BetalabError):
    """Bad input, or inputs for which the requested object does not exist."""


class ResourceError(BetalabError):
    """A configured precision or search budget was exhausted."""


class InvalidBeta(UsageError):
    pass


class UndecidableAtPrecision(ResourceError):
    pass


class NotSelfAdmissible(UsageError):
    pass


class DegenerateRoot(UsageError):
    pass


class AlphabetMismatch(UsageError):
    pass


class NotAdmissibleInput(UsageError):
    pass


class LengthMismatch(UsageError):
    pass


class BudgetExceeded(ResourceError):
    pass


class InsufficientSample(UsageError):
    pass


class DepthTooShallow(UsageError):
    pass


class GrowthViolation(UsageError):
    pass


class EmptyPool(UsageError):
    pass


class NoSingleEditFound(UsageError):
    pass


class NotFound(UsageError):
    pass


class OscillationNotObserved(UsageError):
    pass
