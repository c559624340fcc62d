"""The four physical constants the package uses, exact in SI since 2019.

hbar is written as h / (2*pi) so it rounds to the same double as the
CODATA value tables of other libraries.
"""

import math

c = 299792458.0          # speed of light in vacuum, m/s
e = 1.602176634e-19      # elementary charge, C
k_B = 1.380649e-23       # Boltzmann constant, J/K
hbar = 6.62607015e-34 / (2 * math.pi)  # reduced Planck constant, J*s
