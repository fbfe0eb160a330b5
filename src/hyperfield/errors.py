"""Exception types shared across the package."""


class HyperfieldError(Exception):
    """Base class for all package-specific errors."""


class ImaginaryFrequency(HyperfieldError, ValueError):
    """Momentum lies inside the IR-cutoff region: k^2 + M^2 < 0."""


class DomainError(HyperfieldError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class NonConvergent(HyperfieldError, ArithmeticError):
    """Quadrature oracle failed its step-halving test or its legs disagreed."""


class UndeterminedByAxioms(HyperfieldError, ValueError):
    """Vacuum expectation value not fixed by the commutation/vacuum axioms."""


class TruncationOrderTooLarge(HyperfieldError, ValueError):
    """Requested truncated basis exceeds the configured size cap."""


class PoleAtZeroMomentum(HyperfieldError, ValueError):
    """Lattice contains k = 0 where the asymptotic kernel has a pole."""
