"""Closed-form results: perturbative broadening-stage efficiency, optical
depths, transmission and polarization decay.

The perturbative result treats the two broadening stages in isolation (no
intrinsic broadening, no incident field): an initial polarization profile
P(z) over the medium is dephased for tau_d, rephased for tau_d, and the
surviving norm gives

    eta = 1 - (2 sqrt(pi)/gamma) erf(gamma tau_d) II[P],
    II[P] = integral_0^1 P(z) integral_0^z P(z') dz' dz,

valid to first order in 1/gamma.  The companion numeric routine evolves the
same two stages non-perturbatively through the Laplace-domain machinery:
one stage-2 ``stage_action`` on a K = 1 detuning grid, at the contour
nodes of every z node in one batch, with stage 4 by the controlled-detuning
reflection; the profile is real and the comb symmetric, so each inverse is real.

A profile built by ``Profile.flat`` or ``Profile.from_callable`` is sampled
on the depth grid, the 16-node Gauss-Legendre rule on [0, 1]
(``quadrature.GaussLegendre``, the rule the stage actions collocate on):
the integrand P4(z)^2 is smooth, and the numeric there agrees with a
65-node tanh-sinh depth grid to 1e-13.  ``Profile(grid, values)`` takes any
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cribmem.laplace import DEFAULT_CONTOUR_NODES, invert, talbot_contour
from cribmem.model import (DEFAULT_EXTENT_SIGMAS, DEFAULT_GRID_POINTS, PhysicalParams,
                           build_detuning_grid, gaussian_pdf, min_safe_classes)
from cribmem.propagators import ReadOut, stage_action
from cribmem.quadrature import GaussLegendre, TimeGrid

_DEPTH_NODES = 16
_MAX_FIT_DEGREE = 10


@dataclass(frozen=True)
class Profile:
    """Real polarization profile sampled on a quadrature grid over [0, 1].

    Imaginary parts beyond 1e-14 of the largest sample, non-finite samples
    and a depth node off (0, 1] raise ValueError: the numeric inverts at
    each z with the unit contour divided by z.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if np.any(np.abs(values.imag) > 1e-14 * np.max(np.abs(values), initial=0.0)):
            raise ValueError("profile samples must be real")
        object.__setattr__(self, "values", values.real.astype(float))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("profile samples must be finite")
        if self.values.shape != self.grid.nodes.shape:
            raise ValueError("profile samples do not match the grid")
        off = self.grid.nodes[~((self.grid.nodes > 0.0) & (self.grid.nodes <= 1.0))]
        if off.size:
            raise ValueError(f"depth node z = {float(off[0])!r} is off (0, 1]")

    @classmethod
    def flat(cls) -> "Profile":
        return cls.from_callable(lambda z: 1.0)

    @classmethod
    def from_callable(cls, func) -> "Profile":
        """``func`` sampled on the depth grid, the 16-node Gauss-Legendre rule."""
        grid = GaussLegendre(_DEPTH_NODES, 1.0).grid
        return cls(grid=grid, values=np.asarray([func(z) for z in grid.nodes]))

    def double_integral(self) -> float:
        """II[P] of the polynomial representation, exactly.

        With Q the antiderivative of P vanishing at 0, P Q = (Q^2 / 2)', so
        II = Q(1)^2 / 2; a flat profile c gives c^2 / 2 bit for bit.
        """
        q1 = float(np.polynomial.Polynomial(self.polynomial_coeffs()).integ()(1.0))
        return q1 * q1 * 0.5

    def polynomial_coeffs(self) -> np.ndarray:
        """Power-basis fit: the profile as II[P] and the Laplace transform see it.

        Polynomials stay Laplace-invertible on the Talbot contour (their
        transforms decay like 1/u); transforming the hard-truncated samples
        directly would not be.  Only samples all equal are taken as constant,
        so a flat profile is exact and a nearly flat one keeps its slope.
        """
        deg = min(_MAX_FIT_DEGREE, self.grid.size - 1)
        if np.all(self.values == self.values[0]):
            return self.values[:1].copy()
        fit = np.polynomial.Polynomial.fit(self.grid.nodes, self.values, deg)
        return fit.convert().coef

    def laplace(self, u: np.ndarray) -> np.ndarray:
        """Spatial Laplace transform of the polynomial representation."""
        u = np.asarray(u, dtype=complex)
        coeffs = self.polynomial_coeffs()
        out = np.zeros_like(u)
        fact = 1.0
        for n, c in enumerate(coeffs):
            if n > 0:
                fact *= n
            out += c * fact / u ** (n + 1)
        return out


def dephasing_envelope(t: float, width_rel: float) -> float:
    """Fourier transform of the Gaussian broadening: exp(-w^2 t^2 / 2)."""
    if width_rel < 0.0:
        raise ValueError(f"width_rel must be non-negative, got {width_rel!r}")
    return math.exp(-0.5 * (width_rel * t) ** 2)


def perturbative_efficiency(p1: Profile, gamma_rel: float, tau_d: float) -> float:
    """First-order surviving fraction through the two broadening stages."""
    if not (gamma_rel > 0.0 and math.isfinite(gamma_rel)):
        raise ValueError(f"gamma_rel must be positive and finite, got {gamma_rel!r}")
    if not tau_d >= 0.0:  # inf is the long-stage limit, erf(gamma tau_d) = 1
        raise ValueError(f"tau_d must be non-negative, got {tau_d!r}")
    ii = p1.double_integral()
    return 1.0 - (2.0 * math.sqrt(math.pi) / gamma_rel) * math.erf(gamma_rel * tau_d) * ii


def broadening_stage_efficiency_numeric(
    p1: Profile,
    gamma_rel: float,
    tau_d: float,
    n_classes: int | None = None,
    extent_sigmas: float = DEFAULT_EXTENT_SIGMAS,
    contour_nodes: int = DEFAULT_CONTOUR_NODES,
) -> float:
    """Non-perturbative efficiency of the two broadening stages.

    Evolves the polarization through exp(M2 tau_d) then exp(M4 tau_d) in the
    spatial Laplace domain on a K = 1 detuning grid (the intrinsic
    broadening collapsed to the single resonant class), inverts onto the
    profile's z-grid (the unit Talbot contour divided by each z) and
    integrates P(z)^2.  Only stage 2 runs, in one ``stage_action``: on the
    mirror-symmetric comb g^T exp(M4 tau_d) = (P D exp(M2 tau_d) 1)^T, with
    D = diag(g) and P the comb reflection, the kernel's read-out rows
    (``ReadOut``) with no storage.

    When ``n_classes`` is omitted it is chosen so the discrete-comb
    rephasing time 2*pi/step stays at least twice the stage duration;
    otherwise long stages alias against the finite class comb.  An explicit
    count below that floor raises ValueError.
    """
    if not (gamma_rel > 0.0 and math.isfinite(gamma_rel)):
        raise ValueError(f"gamma_rel must be positive and finite, got {gamma_rel!r}")
    if not (tau_d >= 0.0 and math.isfinite(tau_d)):
        raise ValueError(f"tau_d must be non-negative and finite, got {tau_d!r}")
    floor = min_safe_classes(gamma_rel, tau_d, extent_sigmas)
    if n_classes is None:
        n_classes = max(DEFAULT_GRID_POINTS, floor)
    if n_classes < 1 or n_classes % 2 == 0:
        raise ValueError("n_classes must be odd and positive")
    if n_classes < floor:
        raise ValueError(
            f"n_classes={n_classes} lets the class comb rephase inside the "
            f"2*tau_d window; use at least {floor}")
    # With K = 1 the intrinsic width does not enter; any positive value does.
    grid = build_detuning_grid(1.0, gamma_rel, k=1, n=n_classes,
                               extent_sigmas=extent_sigmas)

    # The contour at z is the unit one divided by z: all (u, z) nodes at once.
    zg = p1.grid
    contour = talbot_contour(contour_nodes, t_scale=1.0)
    nodes = np.divide.outer(contour.nodes, zg.nodes)
    sig = stage_action(grid, nodes.ravel(), np.ones((n_classes, 1)),
                       [tau_d]).states[0].transpose(0, 2, 1)   # one row per node
    rows = ReadOut(grid, nodes.ravel(), 0.0).rows(sig, slice(None))
    samples = np.sum(rows[:, 0] * sig[:, 0], axis=1).reshape(nodes.shape) * p1.laplace(nodes)
    p4 = invert(contour, samples) / zg.nodes
    return float(np.sum(zg.weights * p4 ** 2))


def optical_depths(params: PhysicalParams) -> tuple[float, float]:
    """(d0, d): resonant optical depth without and with the broadening on."""
    d0 = math.sqrt(2.0 * math.pi) / params.gamma0_rel
    d = math.sqrt(2.0 * math.pi) / math.hypot(params.gamma0_rel, params.gamma_rel)
    return d0, d


def transmission_spectrum(omega_rel: float, params: PhysicalParams) -> float:
    """Intensity transmission exp(-2 pi G0(omega)) of the unbroadened line."""
    return math.exp(-2.0 * math.pi * gaussian_pdf(omega_rel, params.gamma0_rel))


def polarization_decay(t: float, params: PhysicalParams) -> float:
    """Collective polarization envelope exp(-(t/T2)^2) under G0 dephasing."""
    if t < 0.0:
        raise ValueError(f"t must be non-negative, got {t!r}")
    return math.exp(-((t / params.t2_rel) ** 2))
