"""Equilibrium thermodynamics of dissipative quantum systems.

Specific heat, entropy, and internal energy of an ohmically or Drude-damped
quantum harmonic oscillator and of a free quantum Brownian particle, at
arbitrary coupling strength, computed through mutually independent routes:
closed forms in the Gamma family, frequency sums under both energy prescriptions
(in pole form, and term by term with an exact tail), direct spectral
quadrature, and limit expansions.
"""

from .core import (ConvergenceError, DomainError, Estimate, ThermoPoint,
                   Tolerances)
from .free_particle import (drude_specific_heat, ohmic_lowT_expansion,
                            ohmic_specific_heat)
from .matsubara import (DampingKernel, PoleSum, Prescription, energy_sum,
                        position_variance_sum, prescription_gap, specific_heat_fd)
from .oscillator import (damped_entropy, damped_specific_heat,
                         damped_specific_heat_via_entropy, oscillator_expansion,
                         undamped_thermo)
from .quadrature import MomentResult, moments, spectral_energy

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DampingKernel", "DomainError",
    "Estimate", "MomentResult", "PoleSum", "Prescription", "ThermoPoint",
    "Tolerances", "damped_entropy", "damped_specific_heat",
    "damped_specific_heat_via_entropy", "drude_specific_heat", "energy_sum",
    "moments", "ohmic_lowT_expansion", "ohmic_specific_heat",
    "oscillator_expansion", "position_variance_sum", "prescription_gap",
    "specific_heat_fd", "spectral_energy", "undamped_thermo", "__version__",
]
