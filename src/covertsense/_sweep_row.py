"""``SweepRow``, the record :func:`covertsense.link.sweep_frequency` returns.

It lives apart from :mod:`covertsense.link` so that importing the link
layer loads no :mod:`dataclasses` (nor the :mod:`inspect` it pulls in);
``link`` re-exports it on first access.  Every other link path, the CLI
included, carries the same fields in the ``NamedTuple`` ``link._LinkPoint``.
"""

from __future__ import annotations

from dataclasses import dataclass


# Not a NamedTuple: perfbench/selftest.py perturbs rows with dataclasses.replace.
@dataclass(frozen=True)
class SweepRow:
    """One frequency point of a bound spectrum.

    Invalid points (near-field under the error policy, or a degenerate
    scenario) keep their frequency, wavelength and background occupancy
    but carry ``None`` for the quantities that could not be evaluated,
    plus a short reason in ``flag``.
    """

    f_hz: float
    lambda_m: float
    eta: float | None
    nbar_b: float
    c_ase: float | None
    b: float | None
    flag: str = ""

    @property
    def valid(self) -> bool:
        return self.c_ase is not None
