"""Transfer kernel, output field and efficiency kernel of the full protocol.

The retrieved field is a linear functional of the time-reversed input,

    E_out(t) = integral_0^tau_r  K_E(t, t') E_in(tau_r - t') dt',

with both times on the read window [0, tau_r].  Read-out reverses the
broadening of read-in, so the kernel is symmetric, K_E(t, t') = K_E(t', t),
and it is sampled on one time grid.  In the Laplace domain every entry is

    K_E-hat(u; t, t') = c(t)^T B c(t'),   B = P D exp(M3 tau_s),

where c(t) is the state stored by an input at t: exp(M2 t) h for
t <= tau_d (the pulse tail enters during dephasing), and
exp(M2 tau_d) lift exp(M1 s) h with s = t - tau_d for later inputs
(read-in).  M2^T = D M2 D^-1 with D = diag(g), and the controlled
reflection P maps stage 2 onto stage 4 and commutes with D and with the
stage-3 phases.  So the read-out row of an output at t is (P D c(t))^T, and
B is complex symmetric.  Each entry is an inverse Laplace transform, along
a fixed Talbot contour, of that product; on the mirror-symmetric detuning
grid it is real, the real part of the weighted sum over the contour's
upper-half nodes.

The stored states are C = V Z, with the basis V = [exp(M2 t) h for
t <= tau_d | exp(M2 tau_d) lift] and Z = diag(I, F), where F holds the
stage-1 states exp(M1 s) h.  At each node the kernel is Z^T H Z with the
small symmetric H = V^T B V.  Every factor is the action of a stage
exponential on a few vectors, computed for all contour nodes at once by
``stage_action`` on the grid the stage runs on: stage 2 on the detuning
grid itself, read-in (F) on ``grid.collapsed()``, and stage 3 reduces
exactly onto the collapsed action on the block sums of V, with the
storage phase that of ``grid.controlled_by(0)``.  Nothing is decomposed.

The efficiency kernel is A = sqrt(w) K_E sqrt(w), symmetric bit for bit.
The efficiency operator A^2 is never formed: an eigenvector of A with
eigenvalue lambda is an input mode of efficiency lambda^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from cribmem.errors import NumericsError
from cribmem.laplace import LaplaceContour
from cribmem.model import DetuningGrid, PhysicalParams, ProtocolSchedule
from cribmem.propagators import (
    block_reversal_permutation,
    block_sums,
    stage3_correction,
    stage_action,
)
from cribmem.quadrature import TimeGrid, check_time_reversible

_WINDOW_SLACK = 1e-9


@dataclass(frozen=True)
class TransferKernel:
    """K_E sampled on grid x grid (a symmetric matrix), plus assembly diagnostics."""

    grid: TimeGrid
    values: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        check_time_reversible(self.grid)


@dataclass(frozen=True)
class EfficiencyKernel:
    """``weighted`` is A = sqrt(w_i) K_E(t_i, t_j) sqrt(w_j), real symmetric."""

    grid: TimeGrid
    weighted: np.ndarray

    def __post_init__(self):
        a = self.weighted
        if np.iscomplexobj(a) or not np.array_equal(a, a.T):
            raise ValueError("the weighted kernel must be real and symmetric")
        check_time_reversible(self.grid)


def _contour_assembly(grid: DetuningGrid, schedule: ProtocolSchedule, us, times):
    """Every stage propagation of the kernel, batched over the nodes ``us``.

    Returns ``(assemble, work)``.  ``assemble(i)`` is K_E-hat at ``us[i]`` on
    the increasing ``times``, split into lo (t <= tau_d) and hi (later), as
    its lo-lo, lo-hi and hi-hi blocks; the hi-lo block is the transpose of
    lo-hi.  Two actions on ``grid`` give the basis V, exp(M2 t) h and
    exp(M2 tau_d) lift; two on ``grid.collapsed()`` give F, exp(M1 s) h,
    and the stage-3 correction.  Each action collocates its scalar field at
    n = max(24, ceil(beta*T) + 16) Gauss-Legendre nodes on [0, T], T its
    last time and beta the stage's max-norm bound, so the cost follows the
    stage bandwidth and the lift's K columns share one solve per node.
    ``work`` is the node count n of the two stage-2 actions (stored
    states, lift).
    """
    lo = times <= schedule.tau_d
    n_lo = int(np.count_nonzero(lo))
    stored = stage_action(grid, us, np.ones((grid.k * grid.n, 1)), times[lo])
    lift = np.kron(np.eye(grid.k), np.ones((grid.n, 1)))   # KN x K column lift
    lifted = stage_action(grid, us, lift, [schedule.tau_d])
    free = stage_action(grid.collapsed(), us, np.ones((grid.k, 1)),
                        times[~lo] - schedule.tau_d).states[..., 0]

    # exp(M3 ts) X = phase o X - repeat_N(corr) for the columns X of V, and
    # the N-block sums of the rows (P D V)^T are g0 o Y, Y the block sums of V.
    y = np.concatenate([block_sums(grid, stored.states)[..., 0].transpose(1, 2, 0),
                        block_sums(grid, lifted.states[0])], axis=2)
    corr = stage3_correction(grid, us, y, schedule.tau_s)
    g0y = grid.intrinsic_weights[:, None] * y
    phase = np.exp(-1j * grid.controlled_by(0).phases * schedule.tau_s)
    g = grid.joint_weights
    perm = block_reversal_permutation(grid)

    def assemble(i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        v_lo = stored.states[:, i, :, 0]   # basis columns t <= tau_d, as rows
        v_hi = lifted.states[0, i]         # exp(M2 tau_d) lift, KN x K
        b_hi = phase[:, None] * v_hi
        rows_lo = (g * v_lo)[:, perm]      # (P D V)^T
        s_lo, s_hi = g0y[i, :, :n_lo].T, g0y[i, :, n_lo:].T
        c_lo, c_hi = corr[i, :, :n_lo], corr[i, :, n_lo:]
        h_ll = rows_lo @ (phase * v_lo).T - s_lo @ c_lo
        h_lh = rows_lo @ b_hi - s_lo @ c_hi
        h_hh = (g[:, None] * v_hi)[perm].T @ b_hi - s_hi @ c_hi
        f = free[:, i]                     # F^T
        return h_ll, h_lh @ f.T, f @ h_hh @ f.T

    return assemble, (stored.collocation_nodes, lifted.collocation_nodes)


def build_transfer_kernel(
    params: PhysicalParams,
    schedule: ProtocolSchedule,
    grid: DetuningGrid,
    contour: LaplaceContour,
    out_grid: TimeGrid,
    in_grid: TimeGrid,
) -> TransferKernel:
    """Assemble the real symmetric K_E(t_i, t_j) on one time grid.

    ``out_grid`` and ``in_grid`` must be the same grid, spanning
    [0, tau_r].  Both detuning families must be mirror-symmetric: stage 4
    is obtained from stage 2 by reflecting the controlled comb, and the
    symmetry makes the kernel real, so the contour's upper-half nodes
    suffice and the real part of their weighted sum is kept.
    """
    if not (np.array_equal(out_grid.nodes, in_grid.nodes)
            and np.array_equal(out_grid.weights, in_grid.weights)):
        raise ValueError("the kernel is symmetric: out_grid and in_grid must be one grid")
    tg = in_grid
    if abs(tg.a) > _WINDOW_SLACK or abs(tg.b - schedule.tau_r) > _WINDOW_SLACK * max(1.0, schedule.tau_r):
        raise ValueError(f"the time grid must span [0, tau_r], got [{tg.a}, {tg.b}]")
    if not grid.is_symmetric():
        raise ValueError("the intrinsic and controlled detuning nodes and "
                         "weights must be mirror-symmetric about zero")
    assemble, (states_nodes, lift_nodes) = _contour_assembly(
        grid, schedule, contour.nodes, tg.nodes)

    # Nodes increase, so the t <= tau_d rows and columns lead.
    n_lo = int(np.count_nonzero(tg.nodes <= schedule.tau_d))
    values = np.zeros((tg.size, tg.size))
    blocks = (values[:n_lo, :n_lo], values[:n_lo, n_lo:], values[n_lo:, n_lo:])
    for i, (u, w) in enumerate(zip(contour.nodes, contour.weights)):
        wu = w * (-1.0 / (u * u))
        for acc, k in zip(blocks, assemble(i)):
            acc += (wu * k).real
    values[n_lo:, :n_lo] = values[:n_lo, n_lo:].T
    values = 0.5 * (values + values.T)   # x + y == y + x: symmetric bit for bit

    if not np.all(np.isfinite(values)):
        raise NumericsError("non-finite entries in the transfer kernel")
    diagnostics = {
        "assembly": "half",
        "contour_nodes": contour.m,
        "rephasing_time": grid.rephasing_time(),
        "stage2_states_collocation_nodes": states_nodes,
        "stage2_lift_collocation_nodes": lift_nodes,
        "max_abs": float(np.max(np.abs(values))),
    }
    return TransferKernel(grid=tg, values=values, diagnostics=diagnostics)


def apply_output(kernel: TransferKernel, e_in) -> np.ndarray:
    """Retrieved field on the kernel's grid for an input sampled on it.

    The input enters time reversed, E_in(tau_r - t'); on the symmetric
    quadrature grid that is an index reversal of the samples.
    """
    e_in = np.asarray(e_in, dtype=complex)
    if e_in.shape != kernel.grid.nodes.shape:
        raise ValueError(
            f"input has {e_in.shape} samples, grid has {kernel.grid.nodes.shape}"
        )
    x = kernel.grid.weights * e_in[::-1]   # parts apart: no complex copy of values
    return kernel.values @ x.real + 1j * (kernel.values @ x.imag)


def build_efficiency_kernel(kernel: TransferKernel) -> EfficiencyKernel:
    """A = sqrt(w) K_E sqrt(w): sqrt(w)-scaled reversed input to scaled output.

    The factor sqrt(w_i) sqrt(w_j) commutes, so A keeps K_E's bit symmetry.
    """
    sw = np.sqrt(kernel.grid.weights)
    a = np.outer(sw, sw)
    a *= kernel.values
    return EfficiencyKernel(grid=kernel.grid, weighted=a)
