"""Numerical inverse Laplace transform on a fixed Talbot contour.

The contour is Weideman's optimized cotangent deformation of the Bromwich
line, sampled with the midpoint rule.  Because the node set depends only on
the node count and the evaluation abscissa (not on the transform), one
contour serves every kernel entry: the stage propagations at a node are
computed once and applied to the whole time grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Cotangent contour constants from Weideman, SIAM J. Numer. Anal. 44 (2006).
_A0 = -0.6122
_A1 = 0.5017
_A2 = 0.2645
_B = 0.6407


@dataclass(frozen=True)
class LaplaceContour:
    """Talbot contour nodes with premultiplied inversion weights.

    ``derivative_weights`` already contain the parametrization derivative,
    the midpoint-rule step, the 1/(2*pi*i) prefactor and the exp(u*t_scale)
    factor, so the inverse transform at t_scale is a plain dot product with
    the transform samples.
    """

    nodes: np.ndarray
    derivative_weights: np.ndarray
    t_scale: float

    @property
    def size(self) -> int:
        return self.nodes.size

    def conjugate_half(self) -> np.ndarray:
        """Indices of the upper-half-plane nodes (conjugate-pair shortcut)."""
        return np.where(self.nodes.imag > 0.0)[0]


def _sigma(theta: np.ndarray):
    x = _B * theta
    with np.errstate(invalid="ignore", divide="ignore"):
        cot = np.cos(x) / np.sin(x)
        sig = _A0 + _A2 * 1j * theta + _A1 * theta * cot
        dsig = _A2 * 1j + _A1 * (cot - x / np.sin(x) ** 2)
    at_zero = np.abs(theta) < 1e-15
    if np.any(at_zero):
        sig = np.where(at_zero, _A0 + _A1 / _B, sig)
        dsig = np.where(at_zero, _A2 * 1j, dsig)
    return sig, dsig


def talbot_contour(m: int, t_scale: float) -> LaplaceContour:
    """Modified Talbot contour with m nodes, scaled for inversion at t_scale.

    The optimized geometry's error reaches the float64 cancellation floor
    by m ~ 24.
    """
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 8:
        raise ValueError(f"need an integer of at least 8 contour nodes, got {m!r}")
    if not (t_scale > 0.0 and math.isfinite(t_scale)):
        raise ValueError(f"t_scale must be positive, got {t_scale!r}")
    theta = -math.pi + (np.arange(m) + 0.5) * (2.0 * math.pi / m)
    sig, dsig = _sigma(theta)
    scale = m / t_scale
    nodes = scale * sig
    weights = (scale / (1j * m)) * dsig * np.exp(nodes * t_scale)
    return LaplaceContour(nodes=nodes, derivative_weights=weights, t_scale=t_scale)


def invert_at_unit(contour: LaplaceContour, samples) -> complex:
    """Inverse transform at z = t_scale from samples F(u_k) on the contour."""
    samples = np.asarray(samples)
    if samples.shape != contour.nodes.shape:
        raise ValueError(
            f"got {samples.shape} samples for {contour.nodes.shape} contour nodes"
        )
    return complex(np.dot(contour.derivative_weights, samples))


def invert_function(contour: LaplaceContour, transform) -> complex:
    """Convenience wrapper: evaluate a vectorized transform and invert."""
    return invert_at_unit(contour, transform(contour.nodes))
