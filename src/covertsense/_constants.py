"""Physical constants (CODATA 2018 exact values, SI units), and the name of
the Monte-Carlo generator, which CLI metadata records beside them."""

CONSTANTS_VERSION = "CODATA-2018"

PLANCK_H = 6.62607015e-34
"""Planck constant, J s (exact)."""

SPEED_OF_LIGHT = 299792458.0
"""Speed of light in vacuum, m/s (exact)."""

BOLTZMANN_K = 1.380649e-23
"""Boltzmann constant, J/K (exact)."""

RNG_ALGORITHM = "philox4x64-10"
"""Counter-based generator of the Monte-Carlo estimator; recorded in CLI
output metadata so runs can be reproduced elsewhere."""
