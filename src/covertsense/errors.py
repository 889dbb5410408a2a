"""Exception types raised by covertsense.

``CovertSenseError`` is the common base. ``DomainError`` subclasses signal
physically meaningful refusals (the model cannot answer the question as
posed); the CLI maps them to exit code 1 with a machine-readable message.
"""

__all__ = [
    "CovertSenseError",
    "DomainError",
    "PhysicalityError",
    "InfiniteQreError",
    "DegenerateCovertnessError",
    "NearFieldError",
    "CutoffError",
    "EmptySweepError",
    "NumericalInstabilityError",
]


class CovertSenseError(Exception):
    """Base class for all covertsense exceptions."""


class DomainError(CovertSenseError):
    """The inputs are outside the regime where the model gives an answer."""


class PhysicalityError(DomainError):
    """A covariance matrix violates the uncertainty principle."""


class InfiniteQreError(DomainError):
    """The relative entropy diverges (support of state 0 escapes state 1)."""


class DegenerateCovertnessError(DomainError):
    """The quadratic covertness coefficient is zero: an identity channel
    (eta_1 = eta_2 = 1), where the adversary's state does not depend on
    the probe at all and no finite covert budget exists."""


class NearFieldError(DomainError):
    """The far-field transmissivity formula returned eta > 1.

    The geometry is in the near-field regime where the Fraunhofer power
    coupling expression is invalid.
    """


class CutoffError(DomainError):
    """The requested tail bound needs a Fock cutoff above the configured cap."""


class EmptySweepError(DomainError):
    """A frequency sweep produced no physically valid rows."""


class NumericalInstabilityError(CovertSenseError):
    """An internal invariant failed beyond tolerance (e.g. a fidelity

    radicand that should be non-negative came out significantly negative).
    """
