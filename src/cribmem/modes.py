"""Optimal and Gaussian input modes of the efficiency kernel.

All mode vectors handled here are samples of the physical input field
E_in(t) on the kernel's time grid.  Internally the weighted kernel A acts on
the time-reversed field (the retrieval map pairs E_out(t) with
E_in(tau_r - t')); on the symmetric quadrature grid the reversal is an index
reversal, applied inside these routines so callers never see it.  The modes
are the real eigenvectors of A, each of efficiency lambda^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from cribmem.errors import NumericsError
from cribmem.kernels import EfficiencyKernel
from cribmem.model import ProtocolSchedule
from cribmem.quadrature import TimeGrid

_RESIDUAL_TOL = 1e-9
_MIN_GAUSS_WIDTH = 0.05


@dataclass(frozen=True)
class ModeResult:
    """An input mode with its storage-and-retrieval efficiency.

    ``mode`` is real, quadrature-normalized to unit energy, and signed so its
    largest-magnitude sample is positive.  ``gaussian_params`` holds
    (t_c, t_w) for Gaussian modes, None for the optimal mode.  ``converged``
    is False when a Gaussian optimization failed to improve on its starts.
    """

    efficiency: float
    mode: np.ndarray
    label: str
    gaussian_params: tuple[float, float] | None = None
    converged: bool = True


def _normalize(grid: TimeGrid, samples: np.ndarray) -> np.ndarray:
    energy = float(np.sum(grid.weights * samples ** 2))
    if not (energy > 0.0 and math.isfinite(energy)):
        raise ValueError("mode has zero or non-finite energy")
    out = samples / math.sqrt(energy)
    return out if out[np.argmax(np.abs(out))] > 0.0 else -out


def optimal_mode(kernel: EfficiencyKernel) -> ModeResult:
    """Eigenpair of A with the largest |lambda|: efficiency lambda^2, real mode."""
    try:
        evals, evecs = np.linalg.eigh(kernel.weighted)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"efficiency eigensolve failed: {exc}") from exc
    top = int(np.argmax(np.abs(evals)))   # the dominant lambda is often negative
    lam, v = float(evals[top]), evecs[:, top]
    resid = float(np.linalg.norm(kernel.weighted @ v - lam * v))
    if resid > _RESIDUAL_TOL * max(1.0, abs(lam)):
        raise NumericsError(f"top eigenpair residual {resid:.3e} too large")
    f = v / np.sqrt(kernel.grid.weights)   # eigenfunction of the reversed argument
    mode = _normalize(kernel.grid, f[::-1])
    return ModeResult(efficiency=lam * lam, mode=mode, label="optimal")


def gaussian_mode(grid: TimeGrid, t_c: float, t_w: float) -> np.ndarray:
    """Unit-energy Gaussian input samples centered at t_c with width t_w."""
    if not (t_w > 0.0 and math.isfinite(t_w)):
        raise ValueError(f"t_w must be positive, got {t_w!r}")
    amp = (2.0 * math.pi * t_w * t_w) ** -0.25
    samples = amp * np.exp(-((grid.nodes - t_c) ** 2) / (4.0 * t_w * t_w))
    return _normalize(grid, samples)


def mode_efficiency(kernel: EfficiencyKernel, e_in) -> float:
    """||A phi||^2 / ||phi||^2 for phi = sqrt(w) E_in reversed; scale invariant.

    A is real: a complex input costs one product per part, a real one only one.
    """
    e_in = np.asarray(e_in)
    if e_in.shape != kernel.grid.nodes.shape:
        raise ValueError("input samples do not match the kernel grid")
    norm = float(np.sum(kernel.grid.weights * np.abs(e_in) ** 2))
    if not (norm > 0.0 and math.isfinite(norm)):
        raise ValueError("input mode has zero or non-finite energy")
    phi = np.sqrt(kernel.grid.weights) * e_in[::-1]
    parts = [kernel.weighted @ p for p in (phi.real, phi.imag) if p.any()]
    return float(sum(ap @ ap for ap in parts) / norm)


# Deterministic simplex starts: near the end of the free read-in window
# (where the optimum sits for strong broadening) plus wide fallbacks for the
# weak-broadening regime where the landscape flattens.
def _starts(schedule: ProtocolSchedule) -> list[tuple[float, float]]:
    tp, tr = schedule.tau_p, schedule.tau_r
    return [
        (tp, 0.5),
        (tp, 2.0),
        (tp - 3.0, 1.0),
        (tr / 2.0, tp / 4.0),
        (tp - 1.0, 1.0),
    ]


def optimize_gaussian(kernel: EfficiencyKernel, schedule: ProtocolSchedule) -> ModeResult:
    """Maximize the Gaussian-mode efficiency over (t_c, t_w).

    Multi-start Nelder-Mead with the search clipped to t_c in [0, tau_r] and
    t_w in [0.05, tau_r] (narrower pulses are unresolvable on the grid).
    """
    grid = kernel.grid
    tr = schedule.tau_r
    lo = np.array([0.0, _MIN_GAUSS_WIDTH])
    hi = np.array([tr, tr])

    def objective(x) -> float:
        t_c, t_w = np.clip(x, lo, hi)
        return -mode_efficiency(kernel, gaussian_mode(grid, t_c, t_w))

    starts = [np.clip(np.asarray(s, dtype=float), lo, hi) for s in _starts(schedule)]

    best_x, best_eta = None, -np.inf
    improved = False
    for x0 in starts:
        eta_start = -objective(x0)
        res = scipy.optimize.minimize(
            objective, x0, method="Nelder-Mead",
            options={"fatol": 1e-9, "xatol": 1e-6, "maxiter": 400},
        )
        eta = -float(res.fun)
        if eta > eta_start + 1e-12:
            improved = True
        if eta > best_eta:
            best_eta = eta
            best_x = np.clip(res.x, lo, hi)
    if best_x is None:
        raise NumericsError("gaussian optimization produced no evaluations")
    t_c, t_w = float(best_x[0]), float(best_x[1])
    return ModeResult(
        efficiency=best_eta,
        mode=gaussian_mode(grid, t_c, t_w),
        label="gaussian",
        gaussian_params=(t_c, t_w),
        converged=improved,
    )
