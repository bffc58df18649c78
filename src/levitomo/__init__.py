"""Simulation and tomography toolkit for a levitated-nanoparticle interferometric detection chain.

The package covers the full measurement pipeline of a free-space optical
dipole trap experiment: closed-form trap and scattering physics, stochastic
trajectory simulation, single-detector and balanced interferometric photon
counting, phase-binned marginal construction, filtered back-projection of the
Wigner quasi-probability function, and Lorentzian spectral analysis.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DetectionError, LevitomoError, SimulationError, SpectralError, TomographyError
from .physics import (
    DerivedQuantities,
    ExperimentConfig,
    calibrate_waist,
    decoherence_curve,
    decoherence_time,
    derive,
)

__all__ = [
    "ConfigError",
    "DerivedQuantities",
    "DetectionError",
    "ExperimentConfig",
    "LevitomoError",
    "SimulationError",
    "SpectralError",
    "TomographyError",
    "calibrate_waist",
    "decoherence_curve",
    "decoherence_time",
    "derive",
]
