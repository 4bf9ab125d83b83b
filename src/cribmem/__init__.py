"""Simulation of a transverse-CRIB quantum memory built on two-level atoms.

The package computes the linear map from the incoming light mode to the
retrieved mode for the five-stage protocol (read-in, dephasing, storage,
rephasing, read-out), entirely in the spatial Laplace domain, and extracts
storage-and-retrieval efficiencies and optimal input modes from the
resulting real symmetric efficiency kernel.

Everything is expressed in dimensionless units: times in 1/mu (mu is the
memory bandwidth), detunings in mu, and the propagation coordinate scaled
to the ensemble length.
"""

__version__ = "0.1.0"

from cribmem.errors import NumericsError
from cribmem.model import (
    DetuningGrid,
    PhysicalParams,
    ProtocolSchedule,
    build_detuning_grid,
    default_schedule,
    derive_params,
    gaussian_pdf,
)
from cribmem.quadrature import TimeGrid, integrate, tanh_sinh_grid
from cribmem.laplace import LaplaceContour, invert_at_unit, talbot_contour

__all__ = [
    "DetuningGrid",
    "LaplaceContour",
    "NumericsError",
    "PhysicalParams",
    "ProtocolSchedule",
    "TimeGrid",
    "build_detuning_grid",
    "default_schedule",
    "derive_params",
    "gaussian_pdf",
    "integrate",
    "invert_at_unit",
    "talbot_contour",
    "tanh_sinh_grid",
]
