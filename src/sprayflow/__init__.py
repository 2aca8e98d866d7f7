"""Coupled particle-kinetic / non-Newtonian fluid sandbox with a variable
growth exponent, built so that every structural identity the scheme relies on
(mass and growth laws, drag antisymmetry, energy budgets, stress certificates,
pressure bounds, Luxemburg-norm properties) is independently checkable."""

from .grid import Grid
from .exponent import ExponentField
from .rheology import StressLaw
from .fluid import FluidOps, FluidState, VelocityField
from .kinetic import ParticleEnsemble
from .coupling import EnergyLedger

__all__ = [
    "Grid",
    "ExponentField",
    "StressLaw",
    "FluidOps",
    "FluidState",
    "VelocityField",
    "ParticleEnsemble",
    "EnergyLedger",
]

__version__ = "0.1.0"
