"""Quadrature rules on a finite interval: Gauss-Legendre and tanh-sinh.

``GaussLegendre(n, end)`` is the package's rule for smooth integrands: the
stage actions collocate on it (``propagators``), the transfer kernel keeps
its core nodes on it (``kernels``), and its ``grid`` is the depth grid of a
polarization profile (``analytic.Profile``).  Its barycentric weights
(Berrut and Trefethen, SIAM Rev. 46, 501 (2004)) interpolate from its nodes.

``tanh_sinh_grid`` is left for the time grid of a sweep point only, while
the benchmark's reference values of eta_max are defined on its level-6 and
level-9 grids (ROADMAP items 17 and 18).  The rule clusters nodes
double-exponentially at both endpoints, which integrates endpoint
singularities like x**(-1/2) accurately.  It places no cluster inside the
interval, where the optimal input mode peaks, just after tau_p: at level 6
that leaves eta_max off by up to 3 % (ROADMAP item 2).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Truncation of the tanh-sinh sum in the transformed variable.  At 3.5 the
# remaining weight mass is ~1e-26 while the extreme node offsets
# (~5e-21 times the interval) are still representable away from the endpoints.
_T_MAX = 3.5

# Highest level: 8193 nodes.  The work of a sweep point grows about linearly
# in the nodes: at level 12 one point (d0 = 100, gamma = 3, K = 9, N = 15,
# with the Gaussian search) takes 0.58 s and 18.6 MB of traced memory on one
# BLAS thread, against 0.10 s and 3.8 MB at level 9, and 641 of the grid's
# 8192 gaps are already at most 4 ulps wide: nodes crowded against tau_r by
# its rounding, with weights of 7e-24 to 1.4e-14.
MAX_LEVEL = 12


@dataclass(frozen=True)
class TimeGrid:
    """Quadrature nodes/weights on (a, b), nodes strictly increasing."""

    nodes: np.ndarray
    weights: np.ndarray
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.shape != self.weights.shape or self.nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")

    @property
    def size(self) -> int:
        return self.nodes.size


class GaussLegendre:
    """n Gauss-Legendre nodes on [0, end], with barycentric weights.

    ``xi`` and ``weights`` are the reference rule on [-1, 1], ``nodes`` its
    image on [0, end] and ``bary`` the barycentric weights of those nodes.
    """

    def __init__(self, n: int, end: float):
        self.xi, self.weights = np.polynomial.legendre.leggauss(n)
        self.bary = (-1.0) ** np.arange(n) * np.sqrt((1.0 - self.xi ** 2) * self.weights)
        self.end = end
        self.nodes = 0.5 * end * (1.0 + self.xi)

    @property
    def grid(self) -> TimeGrid:
        """The rule as a TimeGrid on [0, end]."""
        return TimeGrid(self.nodes, 0.5 * self.end * self.weights, 0.0, self.end)

    def inner(self, t: np.ndarray):
        """The rule on [0, t] for each t: nodes and weights, (t.size, n) each."""
        return 0.5 * t[:, None] * (1.0 + self.xi), 0.5 * t[:, None] * self.weights

    def interpolation(self, points: np.ndarray) -> np.ndarray:
        """(..., n) values at ``points`` of the Lagrange basis on the nodes."""
        diff = (2.0 * points / self.end - 1.0)[..., None] - self.xi
        hit = diff == 0.0
        diff[hit] = 1.0
        basis = self.bary / diff
        basis /= basis.sum(axis=-1, keepdims=True)
        rows = hit.any(axis=-1)
        basis[rows] = hit[rows]
        return basis


def tanh_sinh_grid(a: float, b: float, level: int) -> TimeGrid:
    """Tanh-sinh rule mapped to [a, b] with 2**(level+1) + 1 nodes."""
    if not (b > a):
        raise ValueError(f"need b > a, got a={a!r}, b={b!r}")
    if (isinstance(level, bool) or not isinstance(level, numbers.Integral) or level < 1
            or level > MAX_LEVEL):
        raise ValueError(f"level must be an integer of 1 to {MAX_LEVEL}, got {level!r}")
    n = 2**level
    h = _T_MAX / n
    t = h * np.arange(0, n + 1)
    u = 0.5 * math.pi * np.sinh(t)
    w = h * (0.5 * math.pi * np.cosh(t)) / np.cosh(u) ** 2
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    # Endpoint offsets half*(1 - tanh(u)) in a cancellation-free form; the
    # naive mid - half*tanh(u) underflows for the extreme nodes.
    e = np.exp(-2.0 * u[1:])
    delta = half * (2.0 * e / (1.0 + e))
    # Mirror one-sided arrays so the grid is exactly symmetric about mid.
    nodes = np.concatenate([a + delta[::-1], [mid], b - delta])
    weights = half * np.concatenate([w[:0:-1], w])
    # Absorb the (tiny) tail truncation so constants integrate exactly.
    weights *= (b - a) / weights.sum()
    # Keep nodes strictly increasing and interior to (a, b): extreme offsets
    # can fall below one ulp of the endpoint and collide after rounding.
    nodes = np.clip(nodes, np.nextafter(a, b), np.nextafter(b, a))
    center = nodes.size // 2
    for i in range(1, center + 1):
        if nodes[i] <= nodes[i - 1]:
            nodes[i] = np.nextafter(nodes[i - 1], b)
    for i in range(nodes.size - 2, center - 1, -1):
        if nodes[i] >= nodes[i + 1]:
            nodes[i] = np.nextafter(nodes[i + 1], a)
    return TimeGrid(nodes=nodes, weights=weights, a=a, b=b)


def check_time_reversible(grid: TimeGrid) -> None:
    """Require the node set to map onto itself under t -> a + b - t.

    Index reversal then realizes time reversal of sampled signals exactly;
    tanh-sinh grids satisfy this by construction.
    """
    s = grid.nodes + grid.nodes[::-1]
    if not np.allclose(s, grid.a + grid.b,
                       rtol=0.0, atol=1e-9 * max(1.0, abs(grid.b))):
        raise ValueError("time grid is not symmetric; cannot time-reverse by index")
