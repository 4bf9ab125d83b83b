"""Dimensionless parameters, protocol schedule and detuning discretization.

Conventions: the memory bandwidth ``mu`` is the unit of inverse time, so all
durations are ``tau*mu`` and all detunings and widths are ``delta/mu``.  The
unbroadened optical depth ``d0`` fixes both the intrinsic broadening width
``gamma0_rel = sqrt(2*pi)/d0`` and the polarization coherence time
``t2_rel = sqrt(2)/gamma0_rel``; only ``d0`` is stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_GRID_POINTS = 33
DEFAULT_EXTENT_SIGMAS = 5.0


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensionless physical constants of one memory configuration.

    d0         : resonant optical depth before broadening (> 0)
    gamma_rel  : controlled Gaussian width gamma/mu (>= 0)
    """

    d0: float
    gamma_rel: float

    def __post_init__(self):
        if not (self.d0 > 0.0 and math.isfinite(self.d0)):
            raise ValueError(f"optical depth must be positive, got {self.d0!r}")
        if not (self.gamma_rel >= 0.0 and math.isfinite(self.gamma_rel)):
            raise ValueError(f"gamma_rel must be non-negative, got {self.gamma_rel!r}")

    @property
    def gamma0_rel(self) -> float:
        """Intrinsic Gaussian width gamma0/mu = sqrt(2*pi)/d0."""
        return math.sqrt(2.0 * math.pi) / self.d0

    @property
    def t2_rel(self) -> float:
        """Polarization coherence time T2*mu = sqrt(2)/gamma0_rel."""
        return math.sqrt(2.0) / self.gamma0_rel


def derive_params(d0: float, gamma_rel: float) -> PhysicalParams:
    """Build PhysicalParams from the optical depth and the controlled width."""
    return PhysicalParams(d0=d0, gamma_rel=gamma_rel)


@dataclass(frozen=True)
class ProtocolSchedule:
    """Stage durations of the five-stage protocol, in units of 1/mu.

    tau_p : read-in pulse window (stages 1 and 5)
    tau_d : duration of each broadening stage (stages 2 and 4)
    tau_s : dark storage window (stage 3)
    tau_r : combined read window tau_p + tau_d
    """

    tau_p: float
    tau_d: float
    tau_s: float

    def __post_init__(self):
        for name in ("tau_p", "tau_d", "tau_s"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {v!r}")
        if self.tau_p <= 0.0:
            raise ValueError("tau_p must be positive")

    @property
    def tau_r(self) -> float:
        return self.tau_p + self.tau_d


def default_schedule(params: PhysicalParams) -> ProtocolSchedule:
    """Schedule with tau_s = T2/sqrt(8), tau_p = tau_s/4 and tau_d = 1."""
    tau_s = 0.5 / params.gamma0_rel
    return ProtocolSchedule(tau_p=tau_s / 4.0, tau_d=1.0, tau_s=tau_s)


def gaussian_pdf(x, width: float):
    """Normalized Gaussian density (1/sqrt(2 pi w^2)) exp(-x^2 / 2 w^2)."""
    if not (width > 0.0 and math.isfinite(width)):
        raise ValueError(f"width must be positive, got {width!r}")
    if width * width == 0.0:
        raise ValueError(f"width {width!r} is so small that its variance underflows to zero")
    x = np.asarray(x, dtype=float)
    out = np.exp(-(x * x) / (2.0 * width * width)) / math.sqrt(2.0 * math.pi * width * width)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DetuningGrid:
    """Discretized intrinsic (K classes) and controlled (N classes) detunings.

    Weights are plain Riemann-sum weights ``step * G(node)`` and are *not*
    renormalized.  ``joint_weights`` and ``phases`` follow the (j-1)*N + k
    layout: the intrinsic index is the outer (block) index, the controlled
    index runs inside each block.  Every weight must be positive.

    A grid is also what each protocol stage runs on: the stages differ only
    in the controlled broadening field, so stage 2 runs on the grid itself,
    stage 4 on ``controlled_by(-1)``, stage 3 on ``controlled_by(0)`` and
    the read-in and read-out stages on ``collapsed()``.
    """

    intrinsic_nodes: np.ndarray
    intrinsic_weights: np.ndarray
    controlled_nodes: np.ndarray
    controlled_weights: np.ndarray
    joint_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("intrinsic_nodes", "intrinsic_weights",
                     "controlled_nodes", "controlled_weights"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.intrinsic_nodes.shape != self.intrinsic_weights.shape:
            raise ValueError("intrinsic nodes/weights size mismatch")
        if self.controlled_nodes.shape != self.controlled_weights.shape:
            raise ValueError("controlled nodes/weights size mismatch")
        # The kernel divides by the weights (the stage-2 transpose similarity).
        for name in ("intrinsic", "controlled"):
            if not np.all(getattr(self, f"{name}_weights") > 0.0):
                raise ValueError(f"{name} weights must be positive (too wide an "
                                 "extent makes the edge weights underflow to zero)")
        jw = np.outer(self.intrinsic_weights, self.controlled_weights).ravel()
        object.__setattr__(self, "joint_weights", jw)

    @property
    def k(self) -> int:
        return self.intrinsic_nodes.size

    @property
    def n(self) -> int:
        return self.controlled_nodes.size

    @property
    def controlled_weight_sum(self) -> float:
        """Sum of the controlled Riemann weights (converges to 1 as N grows)."""
        return float(self.controlled_weights.sum())

    @property
    def phases(self) -> np.ndarray:
        """Per-class phase Delta0_j + Delta_k in joint layout."""
        return (self.intrinsic_nodes[:, None] + self.controlled_nodes[None, :]).ravel()

    def controlled_by(self, sign: float) -> DetuningGrid:
        """The grid with its controlled nodes times ``sign``.

        +1 while the field dephases (stage 2), -1 while it rephases (stage
        4) and 0 with it off (stage 3); the weights are unchanged.
        """
        return DetuningGrid(self.intrinsic_nodes, self.intrinsic_weights,
                            sign * self.controlled_nodes, self.controlled_weights)

    def collapsed(self) -> DetuningGrid:
        """The K intrinsic classes, each weighted g0_j * sum(gc).

        With the field off the phases are constant inside each controlled
        block, so the joint system's block sums close on these K classes
        exactly, at any grid resolution.
        """
        return DetuningGrid(self.intrinsic_nodes, self.intrinsic_weights,
                            np.zeros(1), np.array([self.controlled_weight_sum]))

    def is_symmetric(self) -> bool:
        """True when both node families are symmetric about zero with even weights."""
        return (_mirrored(self.intrinsic_nodes, self.intrinsic_weights)
                and _mirrored(self.controlled_nodes, self.controlled_weights))

    def rephasing_time(self) -> float:
        """Onset of the spurious rephasing of the discrete controlled comb.

        A finite comb of controlled detunings with step ``dd`` rephases after
        about 2*pi/|dd|; the dephasing stages must be kept well below this.
        A comb with no spread (one class, or the field off) never rephases.
        """
        if self.n < 2:
            return math.inf
        dd = abs(float(self.controlled_nodes[1] - self.controlled_nodes[0]))
        return 2.0 * math.pi / dd if dd > 0.0 else math.inf


def _mirrored(nodes: np.ndarray, weights: np.ndarray) -> bool:
    return (np.allclose(nodes, -nodes[::-1], atol=1e-12, rtol=0.0)
            and np.allclose(weights, weights[::-1], rtol=1e-12, atol=0.0))


def min_safe_classes(gamma_rel: float, tau_d: float, extent_sigmas: float) -> int:
    """Smallest odd class count whose comb rephases after 2*max(tau_d, 1).

    A comb of n classes over +-extent_sigmas*gamma_rel has step
    2*extent_sigmas*gamma_rel/(n - 1) and rephases after 2*pi/step.
    """
    need = math.ceil(2.0 * extent_sigmas * gamma_rel * max(tau_d, 1.0) / math.pi)
    return need + 1 + need % 2


def _family(width: float, count: int, extent_sigmas: float):
    """Symmetric uniform node comb with node-centered Riemann weights."""
    if count == 1:
        # Degenerate single-class grid: renormalized weight, resonant node.
        return np.array([0.0]), np.array([1.0])
    half = count // 2
    step = extent_sigmas * width / half
    # Integer multiples of the step give exact +/- symmetry of the nodes.
    nodes = step * np.arange(-half, half + 1, dtype=float)
    weights = step * gaussian_pdf(nodes, width)
    return nodes, weights


def build_detuning_grid(
    gamma0_rel: float,
    gamma_rel: float,
    k: int = DEFAULT_GRID_POINTS,
    n: int = DEFAULT_GRID_POINTS,
    extent_sigmas: float = DEFAULT_EXTENT_SIGMAS,
) -> DetuningGrid:
    """Uniform detuning combs spanning +-extent_sigmas standard deviations.

    Both counts must be odd so that a resonant (zero-detuning) class exists.
    A degenerate count of 1 yields the single resonant class with weight one.
    An extent so wide that the edge weights underflow to zero raises
    ValueError (see DetuningGrid).
    """
    if k < 1 or n < 1:
        raise ValueError("node counts must be at least 1")
    if k % 2 == 0 or n % 2 == 0:
        raise ValueError("node counts must be odd so that zero detuning is a node")
    if not (extent_sigmas > 0.0 and math.isfinite(extent_sigmas)):
        raise ValueError(f"extent_sigmas must be positive, got {extent_sigmas!r}")
    if not (gamma0_rel > 0.0):
        raise ValueError("gamma0_rel must be positive")
    if gamma_rel < 0.0:
        raise ValueError("gamma_rel must be non-negative")
    if gamma_rel == 0.0 and n > 1:
        raise ValueError("gamma_rel = 0 admits only the degenerate n = 1 grid")
    in_nodes, in_w = _family(gamma0_rel, k, extent_sigmas)
    c_nodes, c_w = _family(gamma_rel, n, extent_sigmas)
    return DetuningGrid(in_nodes, in_w, c_nodes, c_w)
