"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class so
tests and the CLI can distinguish "your input is malformed" from "the
computation could not certify its answer".
"""


class MaslovFlowError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(MaslovFlowError):
    """Operands live in spaces of incompatible dimensions."""


class NotSkewHermitian(MaslovFlowError):
    """A matrix that must satisfy M* = -M does not, beyond tolerance."""


class NotHermitian(MaslovFlowError):
    """A matrix that must satisfy M* = M does not, beyond tolerance."""


class NonFinite(MaslovFlowError):
    """A value that must be a finite number is NaN or infinite."""


class NotUnitary(MaslovFlowError):
    """A matrix that must be unitary fails the residual check."""


class Degenerate(MaslovFlowError):
    """A form or matrix that must be invertible is numerically singular."""


class NotLagrangian(MaslovFlowError):
    """A subspace required to be Lagrangian is not (or a graph
    representation could not be formed for it)."""


class UnbalancedSplitting(MaslovFlowError):
    """The positive/negative splitting has unequal dimensions, so no
    Lagrangian subspaces (and no graph representations) exist."""


class BadMetric(MaslovFlowError):
    """A supplied metric is not Hermitian positive definite."""


class SpectrumOnBoundary(MaslovFlowError):
    """An eigenvalue sits on the boundary circle of a requested spectral
    projection, so the projection is ill-defined."""


class UnresolvedFamily(MaslovFlowError):
    """Adaptive bisection hit its depth limit without finding an
    admissible window; the family is too wild at the reported segment."""

    def __init__(self, message, s_left=None, s_right=None):
        super().__init__(message)
        self.s_left = s_left
        self.s_right = s_right


class NotLagrangianReal(MaslovFlowError):
    """A real subspace required to be Lagrangian for the standard real
    symplectic structure is not."""


class NonUnitaryGenerator(MaslovFlowError):
    """A generator matrix built from a real Lagrangian frame failed its
    unitarity residual check."""


class SingularJ(MaslovFlowError):
    """A coefficient j(s, t) is numerically singular at a sample point."""


class SingularP(MaslovFlowError):
    """A leading coefficient p(s, t) is numerically singular at a sample
    point."""


class WindowBoundaryEigenvalue(MaslovFlowError):
    """An eigenvalue of the boundary value problem sits too close to the
    edge of the requested counting window."""


class RootCluster(MaslovFlowError):
    """Two detector roots are closer than the resolution of the root
    finder, so multiplicities cannot be assigned reliably."""


class RootCountMismatch(MaslovFlowError):
    """The shooting detector could not certify its eigenvalues: the winding
    number of det F around its contour differs from the number of pencil
    eigenvalues inside, a pencil root fails verification on the exactly
    integrated transfer matrix, or no Chebyshev model of the window
    certifies."""


class TransportBudgetExceeded(MaslovFlowError):
    """Fundamental solutions stay further from symplectic transport than
    the residual budget allows, even after the time grid was refined."""


class ConfigError(MaslovFlowError):
    """A problem document failed validation: unreadable file, bad JSON,
    schema violation, malformed coefficient, or an unknown builtin
    reference."""


class ExpressionSyntaxError(MaslovFlowError):
    """A coefficient expression failed to parse.

    ``offset`` is the zero-based character position of the first token
    that could not be consumed.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(MaslovFlowError):
    """A coefficient expression used a name that is not a variable or a
    known function."""

    def __init__(self, name, offset):
        super().__init__(f"unknown identifier {name!r} (offset {offset})")
        self.name = name
        self.offset = offset
