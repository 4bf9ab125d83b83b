"""Numerical inverse Laplace transform on a fixed Talbot contour.

The contour is Weideman's optimized cotangent deformation of the Bromwich
line, sampled with the midpoint rule at an even number m of nodes, which
come in conjugate pairs.  Every transform inverted is of a real function,
so each pair sums to twice the real part of its upper term: a contour keeps
only its m/2 upper-half nodes, with the pair's factor 2 in its weights, and
``invert`` takes the real part of the weighted sum.  Because the node set
depends only on the node count and the evaluation abscissa (not on the
transform), one contour serves every kernel entry: the stage propagations
at a node are computed once and applied to the whole time grid.  The
contour at abscissa z is the one at 1 with nodes and weights divided by z.
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

DEFAULT_CONTOUR_NODES = 32
MAX_CONTOUR_NODES = 64


@dataclass(frozen=True)
class LaplaceContour:
    """Upper-half Talbot nodes of an m-node contour, with inversion weights.

    ``weights`` already contain the parametrization derivative, the
    midpoint-rule step, the 1/(2*pi*i) prefactor, the exp(u*t_scale) factor
    and the factor 2 of the conjugate pair, so the inverse transform at
    t_scale is the real part of a plain dot product with the samples.
    """

    nodes: np.ndarray
    weights: np.ndarray
    t_scale: float
    m: int


# (y - sin y)/y^3 = sum_n (-1)^n y^2n / (2n + 3)!, to rounding for |y| < 1.
_Y_MINUS_SIN = [(-1) ** n / math.factorial(2 * n + 3) for n in range(9)]


def _sigma(theta: np.ndarray):
    x = _B * theta   # 0 < |x| < pi on an even midpoint rule
    sin = np.sin(x)
    sig = _A0 + _A2 * 1j * theta + _A1 * theta * np.cos(x) / sin
    # d(theta cot x)/dtheta = cot x - x/sin^2 x = -(y - sin y)/(2 sin^2 x), y = 2x,
    # by the series near theta = 0, where the difference cancels and the terms peak.
    y = 2.0 * x
    y_sin = np.where(np.abs(y) < 1.0,
                     y**3 * np.polynomial.polynomial.polyval(y * y, _Y_MINUS_SIN), y - np.sin(y))
    return sig, _A2 * 1j - _A1 * y_sin / (2.0 * sin * sin)


def talbot_contour(m: int, t_scale: float) -> LaplaceContour:
    """Upper half of the modified Talbot contour with m nodes, scaled for
    inversion at t_scale.

    m must be even, so that no node lies on the real axis, outside the
    conjugate pairs, and at most 64.  The optimized geometry's error
    reaches the float64 cancellation floor by m ~ 24, and that floor grows
    like e^{0.34 m} (1/(u + a) inverts to 4e-15 at m = 32, 3e-11 at 64, 0.2
    at 200), so larger m would return garbage.
    """
    if (isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 8
            or m > MAX_CONTOUR_NODES or m % 2):
        raise ValueError(f"need an even integer of 8 to {MAX_CONTOUR_NODES} contour "
                         f"nodes, got {m!r}")
    if not (t_scale > 0.0 and math.isfinite(t_scale)):
        raise ValueError(f"t_scale must be positive, got {t_scale!r}")
    # Positive half-integer multiples of the step: the upper half of exact
    # conjugate pairs, accurate near 0.
    theta = (np.arange(m // 2) + 0.5) * (2.0 * math.pi / m)
    sig, dsig = _sigma(theta)
    scale = m / t_scale
    nodes = scale * sig
    weights = (2.0 * scale / (1j * m)) * dsig * np.exp(nodes * t_scale)
    return LaplaceContour(nodes=nodes, weights=weights, t_scale=t_scale, m=int(m))


def invert(contour: LaplaceContour, samples):
    """Inverse transform at t_scale of real functions from their samples F(u)
    at ``contour.nodes``, along the leading axis of ``samples``: a float for
    one function, an array over the trailing axes for several."""
    samples = np.asarray(samples)
    if samples.shape[:1] != contour.nodes.shape:
        raise ValueError(f"got {samples.shape} samples for {contour.nodes.size} nodes")
    return np.tensordot(contour.weights, samples, axes=1).real[()]
