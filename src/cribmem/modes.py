"""Optimal and Gaussian input modes of the efficiency kernel.

All mode vectors handled here are samples of the physical input field
E_in(t) on the kernel's time grid.  Internally the weighted kernel A acts on
the time-reversed field (the retrieval map pairs E_out(t) with
E_in(tau_r - t')); on the symmetric quadrature grid the reversal is an index
reversal, applied inside these routines so callers never see it.  The modes
are the real eigenvectors of A = sqrt(w) K_E sqrt(w), each of efficiency
lambda^2.  Every routine takes the transfer kernel
(``kernels.TransferKernel``), which keeps K_E = Pi K_core Pi^T as its
factors and carries A = U Lambda U^T, and every quantity here is read off
that factor: the optimal mode is its top |lambda| pair, checked against
sqrt(w) Pi K_core Pi^T sqrt(w) by thin products, and an input phi scores
||Lambda U^T phi||^2 / ||phi||^2, O(n c) for c core nodes rather than
O(n^2), within about 4e-15 eta_max of ||A phi||^2 / ||phi||^2.  Gaussian
inputs are scored many at a time by gaussian_efficiencies; the best one
comes from refining the best point of gaussian_lattice on ever finer 5 x 5
lattices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cribmem.errors import NumericsError
from cribmem.kernels import TransferKernel
from cribmem.model import ProtocolSchedule
from cribmem.propagators import CHUNK
from cribmem.quadrature import TimeGrid

_RESIDUAL_TOL = 1e-9
_MIN_GAUSS_WIDTH = 0.05
# Gaussian samples below this are zeroed: their squares underflow anyway, and
# their products with A would be subnormal, which the CPU handles far slower.
_SAMPLE_FLOOR = 1e-200
_SEARCH_POINTS = 5     # lattice points per coordinate in one refinement round
_SEARCH_TOL = 1e-7     # half-widths at which the Gaussian search stops
_SEARCH_ROUNDS = 100   # refinement rounds before the search gives up


@dataclass(frozen=True)
class ModeResult:
    """An input mode with its storage-and-retrieval efficiency.

    ``mode`` is real, quadrature-normalized to unit energy, and signed so its
    largest-magnitude sample is positive.  ``gaussian_params`` holds
    (t_c, t_w) for Gaussian modes, None for the optimal mode.  ``converged``
    is True when the Gaussian search narrowed to _SEARCH_TOL in both
    coordinates within _SEARCH_ROUNDS rounds, and always for the optimal mode.
    """

    efficiency: float
    mode: np.ndarray
    gaussian_params: tuple[float, float] | None = None
    converged: bool = True


def _normalize(grid: TimeGrid, samples: np.ndarray) -> np.ndarray:
    energy = float(np.sum(grid.weights * samples ** 2))
    if not (energy > 0.0 and math.isfinite(energy)):
        raise ValueError("mode has zero or non-finite energy")
    out = samples / math.sqrt(energy)
    return out if out[np.argmax(np.abs(out))] > 0.0 else -out


def optimal_mode(kernel: TransferKernel) -> ModeResult:
    """Eigenpair of A with the largest |lambda|: efficiency lambda^2, real mode.

    The pair is the factor's first (the dominant lambda is often negative),
    and its residual ||A v - lambda v|| is checked, with A v = sqrt(w) o
    (Pi (K_core (Pi^T (sqrt(w) o v)))).
    """
    lam, v = float(kernel.eigenvalues[0]), kernel.eigenvectors[:, 0]
    sw, p = np.sqrt(kernel.grid.weights), kernel.interpolation
    resid = float(np.linalg.norm(sw * (p @ (kernel.core @ (p.T @ (sw * v)))) - lam * v))
    if resid > _RESIDUAL_TOL * max(1.0, abs(lam)):
        raise NumericsError(f"top eigenpair residual {resid:.3e} too large")
    f = v / sw   # eigenfunction of the reversed argument
    mode = _normalize(kernel.grid, f[::-1])
    return ModeResult(efficiency=lam * lam, mode=mode)


def gaussian_mode(grid: TimeGrid, t_c: float, t_w: float) -> np.ndarray:
    """Unit-energy Gaussian input samples centered at t_c with width t_w."""
    if not (t_w > 0.0 and math.isfinite(t_w)):
        raise ValueError(f"t_w must be positive, got {t_w!r}")
    amp = (2.0 * math.pi * t_w * t_w) ** -0.25
    samples = amp * np.exp(-((grid.nodes - t_c) ** 2) / (4.0 * t_w * t_w))
    return _normalize(grid, samples)


def mode_efficiency(kernel: TransferKernel, e_in) -> float:
    """||A phi||^2 / ||phi||^2 for phi = sqrt(w) E_in reversed; scale invariant.

    Read off the factor as ||Lambda U^T phi||^2 / ||phi||^2, an n x r product
    per part: the factor is real, so a complex input costs one product per
    part, a real one only one.
    """
    e_in = np.asarray(e_in)
    if e_in.shape != kernel.grid.nodes.shape:
        raise ValueError("input samples do not match the kernel grid")
    norm = float(np.sum(kernel.grid.weights * np.abs(e_in) ** 2))
    if not (norm > 0.0 and math.isfinite(norm)):
        raise ValueError("input mode has zero or non-finite energy")
    phi = np.sqrt(kernel.grid.weights) * e_in[::-1]
    parts = [kernel.eigenvalues * (p @ kernel.eigenvectors)
             for p in (phi.real, phi.imag) if p.any()]
    return float(sum(c @ c for c in parts) / norm)


def gaussian_lattice(schedule: ProtocolSchedule, tc_points: int = 25,
                     tw_points: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """(t_c, t_w) axes of the Gaussian lattice: t_c linear on [0, tau_r], t_w
    geometric on [0.05, tau_r] (narrower pulses are unresolvable on the grid)."""
    tr = schedule.tau_r
    return np.linspace(0.0, tr, tc_points), np.geomspace(_MIN_GAUSS_WIDTH, tr, tw_points)


def gaussian_efficiencies(kernel: TransferKernel, t_c, t_w) -> np.ndarray:
    """mode_efficiency of the Gaussian input at each broadcast (t_c, t_w).

    Column phi is sqrt(w) times the reversed Gaussian samples, scored as
    ||Lambda U^T phi||^2 / ||phi||^2 on the kernel's factor.  Columns pass
    through U^T about CHUNK entries at a time, so no nodes x inputs array is
    formed.  As in gaussian_mode, a t_w that is not positive and finite
    raises ValueError, and so does a t_c that is not finite or lies off the
    read window [0, tau_r].  A valid column can still have zero energy, a
    pulse narrower than the gaps between the time nodes: that raises
    NumericsError, naming t_w, the node count and quad_level.
    """
    t_c, t_w = np.broadcast_arrays(np.asarray(t_c, dtype=float), np.asarray(t_w, dtype=float))
    centers, widths = t_c.ravel(), t_w.ravel()
    bad = widths[~((widths > 0.0) & np.isfinite(widths))]
    if bad.size:
        raise ValueError(f"t_w must be positive, got {float(bad[0])!r}")
    grid = kernel.grid
    bad = centers[~((centers >= grid.a) & (centers <= grid.b))]
    if bad.size:
        raise ValueError(f"t_c must be finite and in [{grid.a:g}, {grid.b:g}], the window "
                         f"where a Gaussian input has energy, got {float(bad[0])!r}")
    times = grid.nodes[::-1, None]
    root_w = np.sqrt(grid.weights)[:, None]
    eta = np.empty(centers.size)
    step = max(1, CHUNK // times.size)
    for j0 in range(0, eta.size, step):
        j = slice(j0, j0 + step)
        phi = np.exp(-((times - centers[j]) ** 2) / (4.0 * widths[j] ** 2))
        phi = root_w * np.where(phi < _SAMPLE_FLOOR, 0.0, phi)
        norm = np.einsum("ij,ij->j", phi, phi)
        if not np.all(norm > 0.0):
            raise NumericsError(f"a Gaussian input of t_w = {float(widths[j][norm <= 0.0][0]):g} "
                                f"has zero energy on the {grid.size} time nodes; raise quad_level")
        coeffs = kernel.eigenvalues[:, None] * (kernel.eigenvectors.T @ phi)
        eta[j] = np.einsum("ij,ij->j", coeffs, coeffs) / norm
    return eta.reshape(t_c.shape)


def optimize_gaussian(kernel: TransferKernel, schedule: ProtocolSchedule) -> ModeResult:
    """Maximize the Gaussian-mode efficiency over (t_c, t_w) by lattice refinement.

    The search starts at the best point of the default gaussian_lattice, with
    half-widths of one coarse cell per coordinate (the t_w cell above the
    start).  Each round scores the 5 x 5 lattice of +-half-width around the
    current point, clipped to the lattice's box (t_c in [0, tau_r], t_w in
    [0.05, tau_r]), and moves to its best point unless that is worse.  A
    coordinate's half-width halves unless the point moved to that
    coordinate's lattice edge strictly inside the box.  ``converged`` means
    both half-widths fell to _SEARCH_TOL within _SEARCH_ROUNDS rounds.
    """
    tcs, tws = gaussian_lattice(schedule)
    lattice = gaussian_efficiencies(kernel, tcs[:, None], tws[None, :])
    i, j = np.unravel_index(np.argmax(lattice), lattice.shape)
    lo, hi = np.array([tcs[0], tws[0]]), np.array([tcs[-1], tws[-1]])
    x, eta = np.array([tcs[i], tws[j]]), float(lattice[i, j])
    half = np.array([tcs[1] - tcs[0], tws[j] * (tws[1] / tws[0] - 1.0)])
    steps = np.linspace(-1.0, 1.0, _SEARCH_POINTS)
    for _ in range(_SEARCH_ROUNDS):
        axes = np.clip(x[:, None] + half[:, None] * steps, lo[:, None], hi[:, None])
        etas = gaussian_efficiencies(kernel, axes[0][:, None], axes[1][None, :])
        best = np.unravel_index(np.argmax(etas), etas.shape)
        keep = np.zeros(2, dtype=bool)   # half-widths that do not halve
        if etas[best] >= eta:
            x, eta = axes[[0, 1], best], float(etas[best])
            keep = np.array([b in (0, _SEARCH_POINTS - 1) for b in best]) & (lo < x) & (x < hi)
        half = np.where(keep, half, 0.5 * half)
        if np.all(half <= _SEARCH_TOL):
            break
    t_c, t_w = (float(v) for v in x)
    return ModeResult(
        efficiency=eta,
        mode=gaussian_mode(kernel.grid, t_c, t_w),
        gaussian_params=(t_c, t_w),
        converged=bool(np.all(half <= _SEARCH_TOL)),
    )
