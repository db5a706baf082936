"""Exception types shared across the package."""


class DucaError(Exception):
    """Base class for all package errors."""


class DisconnectedError(DucaError):
    """The edge set does not connect all nodes."""


class InvalidEdgeError(DucaError):
    """An edge is out of range, a self-loop, or a duplicate."""


class PatternMismatchError(DucaError):
    """A weight matrix does not match the graph's sparsity pattern."""


class AssumptionViolatedError(DucaError):
    """A parameter setting fails one of the standing matrix assumptions."""


class MissingTuningError(DucaError):
    """A variant-specific tuning constant was not supplied."""


class DimMismatchError(DucaError):
    """Vector/matrix dimensions are inconsistent with the problem."""


class InvalidInitError(DucaError):
    """An initial state violates its cone/shape constraints."""


class InvariantBreachError(DucaError):
    """A runtime algebraic invariant exceeded its tolerance (strict mode)."""


class MailboxError(DucaError):
    """A neighbor table is invalid, or an exchange matrix weighs non-neighbors."""


class CertificateMissingError(DucaError):
    """Theorem bounds were requested without an optimality certificate."""


class InsufficientDataError(DucaError):
    """A series window has too few usable points."""


class NotConvergedError(DucaError):
    """The reference solver did not reach the requested tolerance."""


class TooLargeError(DucaError):
    """The instance exceeds the brute-force tractability guard."""


class InfeasibleProblemError(DucaError):
    """No feasible point exists (or none was found on an exhaustive grid)."""


class ConfigError(DucaError):
    """The experiment config is malformed or contains unknown keys."""
