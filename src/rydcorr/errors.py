"""Exception types raised across the package.

Collected in one module so callers (and the CLI's exit-code mapping) can
catch them without importing the numerical modules that raise them.
"""


class RydcorrError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(RydcorrError):
    """Base class for configuration problems (exit code 2)."""


# --- linear algebra kernel ---

class NonSquareError(RydcorrError):
    """Operation requires a square matrix."""


class AccuracyNotMetError(RydcorrError):
    """Internal error estimate of a numerical kernel exceeded its contract."""


class NearDefectiveError(RydcorrError):
    """Eigenvector matrix too ill-conditioned to trust the decomposition."""


class DimensionMismatchError(RydcorrError):
    """Incompatible matrix/vector dimensions."""


# --- operator construction ---

class BadLevelError(RydcorrError):
    """Atomic level index outside {1, 2, 3} (or atom index outside {1, 2})."""


# --- generator / propagation ---

class InvariantViolationError(RydcorrError):
    """A numerical invariant (trace, Hermiticity, positivity, ...) failed (exit code 3)."""


class DegenerateSteadyStateError(InvariantViolationError):
    """The generator's null space has dimension > 1."""


class NotPositiveError(InvariantViolationError):
    """A matrix that must be positive semidefinite has a significantly negative eigenvalue."""


class NegativeDurationError(RydcorrError):
    """Propagation duration must be >= 0."""


# --- correlators ---

class ZeroEmissionRateError(RydcorrError):
    """A normalization expectation value is numerically zero (dark-state parameters)."""


class DegenerateQuadratureError(RydcorrError):
    """The chosen quadrature phase has no mean amplitude to normalize by."""


class TooFewSamplesError(RydcorrError):
    """Not enough samples for a spectral estimate."""


class NoOscillationError(RydcorrError):
    """The series has no significant nonzero-frequency component."""


# --- trajectories ---

class StepTooLargeError(ConfigError):
    """Integration step too coarse to resolve the coherent dynamics."""


class TooManyStepsError(ConfigError):
    """More integration steps per trajectory than the run may take."""


class TooManyTrajectoriesError(ConfigError):
    """More trajectories in one batch than the run may take."""


class NormUnderflowError(RydcorrError):
    """State norm collapsed during jump sampling."""


class InsufficientStatisticsError(RydcorrError):
    """Histogram bins would hold too few expected pairs to be meaningful."""


# --- CLI / configuration ---

class UnknownKeyError(ConfigError):
    """Config file or flag key not recognized."""


class BadValueError(ConfigError):
    """Config value is non-numeric, out of range, or otherwise invalid."""


class MissingCommandError(ConfigError):
    """No command given."""


class UnknownFigureError(ConfigError):
    """Figure name not one of the built-in recipes."""


class IoFailureError(RydcorrError):
    """Output could not be written (exit code 4)."""
