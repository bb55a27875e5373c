"""Exception types shared across the package."""


class MFGError(Exception):
    """Base class for all package errors."""


class NotPSD(MFGError):
    """Diffusion matrix is not symmetric positive semidefinite."""


class NegativeDensity(MFGError):
    """A sweep was given a negative density."""


class HypothesisViolation(MFGError):
    """A structural hypothesis on the problem data fails.

    The message names the failing hypothesis (H1..H5 and the exponent
    table cell where applicable).
    """


class NoConvergence(MFGError):
    """A scalar root-find exhausted its iteration budget."""


class Diverged(MFGError):
    """The saddle-point iterates produced a non-finite certificate."""


class CFLViolation(MFGError):
    """Explicit sweep refused: time step too large for the wave speeds.

    Carries the largest admissible grid interval in ``admissible_ht``.
    """

    def __init__(self, message, admissible_ht=None):
        super().__init__(message)
        self.admissible_ht = admissible_ht


class MissingArtifact(MFGError):
    """A solution directory lacks one of the required files."""


class ConfigParse(MFGError):
    """Malformed configuration file."""


class InvalidOption(MFGError, ValueError):
    """A solver or command option lies outside its admissible range."""
