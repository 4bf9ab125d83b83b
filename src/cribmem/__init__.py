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
