"""Exception types shared across the package."""


class CoverCountError(Exception):
    """Base class for all errors raised by this package."""


class LengthError(CoverCountError):
    """Bitstring operands have mismatched lengths."""


class OutOfGridError(CoverCountError):
    """A coordinate falls outside the configured grid extent."""


class InvalidTruthError(CoverCountError):
    """A truthful value is not a member of the queried domain."""


class InfiniteLeakageError(CoverCountError):
    """A leakage bound diverges because a response probability is zero."""


class UndefinedLeakageError(CoverCountError):
    """Leakage is undefined for the given parameters (precondition violated)."""


class DimensionError(CoverCountError):
    """Vector or matrix dimensions do not match."""


class ParseError(CoverCountError):
    """Serialized key material is malformed."""


class IncompleteSubmissionError(CoverCountError):
    """An owner submission is missing per-party material."""


class ConfigError(CoverCountError):
    """An experiment configuration file is invalid."""


class PopulationSpecError(ConfigError):
    """A synthetic population description is inconsistent."""
