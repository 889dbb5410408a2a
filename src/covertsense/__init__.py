"""Covert phase sensing with thermal-noise probes.

Models a two-way sensing geometry in which an interrogator hides a weak
thermal (amplified-spontaneous-emission) probe inside background thermal
noise, an adversary taps both directions of the link, and the interrogator
estimates a phase from the returned light with a retained reference beam.

Subpackages
-----------
``gaussian``     covariance-matrix tools and symplectic normal forms
``scenario``     the tapped two-way channel and its Gaussian states
``covertness``   relative-entropy covertness measures and photon budgets
``estimation``   Fisher information, Cramer-Rao bounds, Monte-Carlo checks
``link``         free-space link geometry, thermal background, band sweeps
``fock``         truncated number-basis oracle for small occupancies
``cli``          command-line interface (``covertsense`` entry point)

Submodules and the exception classes load on first access
(``covertsense.fock``, ``from covertsense import DomainError``), so
``import covertsense`` itself loads no submodule.  The closed forms
(``scenario``, ``covertness``, ``link`` and the bound coefficients of
``estimation``) need only ``math``; numpy is imported by ``gaussian``,
``fock`` and the numeric routes of ``estimation`` when they run.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "cli",
    "covertness",
    "errors",
    "estimation",
    "fock",
    "gaussian",
    "link",
    "scenario",
)

_ERRORS = (
    "CovertSenseError",
    "CutoffError",
    "DegenerateCovertnessError",
    "DomainError",
    "EmptySweepError",
    "InfiniteQreError",
    "NearFieldError",
    "NumericalInstabilityError",
    "PhysicalityError",
)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _ERRORS:
        return getattr(importlib.import_module(".errors", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *_ERRORS})
