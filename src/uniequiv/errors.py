"""Exception hierarchy shared across the package."""


class UniequivError(Exception):
    """Base class for all errors raised by this package."""


class InputError(UniequivError):
    """Malformed or out-of-contract input to a numerical kernel."""


class MalformedInstanceError(UniequivError):
    """An instance or certificate file failed to parse or validate."""


class InvalidAlgebraError(UniequivError):
    """A matrix algebra failed the unitality / multiplicative-closure checks."""


class DegenerateCandidateError(UniequivError):
    """A sampled candidate pair turned out to be numerically singular."""


class NotGenericError(UniequivError):
    """Density operator has (nearly) degenerate eigenvalues."""
