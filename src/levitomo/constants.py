"""Physical constants (CODATA 2018), hard-coded to full double precision."""

import math

TWO_PI = 2.0 * math.pi

HBAR = 1.054571817e-34  # reduced Planck constant [J s]
C = 299792458.0  # speed of light [m/s] (exact)
KB = 1.380649e-23  # Boltzmann constant [J/K] (exact)
EPS0 = 8.8541878128e-12  # vacuum permittivity [F/m]
AMU = 1.66053906660e-27  # atomic mass unit [kg]

# mean molecular mass of air, used by the kinetic-theory gas damping model
M_GAS_AIR = 28.97 * AMU  # [kg]
