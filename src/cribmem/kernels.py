"""Transfer kernel, output field and efficiency kernel of the full protocol.

The retrieved field is a linear functional of the time-reversed input,

    E_out(t) = integral_0^tau_r  K_E(t, t') E_in(tau_r - t') dt',

with both times on the read window [0, tau_r].  Every entry follows the
protocol: a stored state, times exp(M3 tau_s) for the dark storage, times a
read-out row.  Inputs with t' <= tau_d entered during the dephasing stage
(the pulse tail) and are stored as exp(M2 t') h; later ones entered during
the initial free stage and are stored as exp(M2 tau_d) lift exp(M1 s') h.
Outputs with t <= tau_d are emitted during the rephasing stage through the
row g^T exp(M4 t); later ones during the final free stage through
g0^T exp(M1 s) lw exp(M4 tau_d).  Each entry is an inverse Laplace
transform, along a fixed Talbot contour, of that product; on the
mirror-symmetric detuning grid it is real, twice the real part of the sum
over the upper-half contour nodes.

Every factor is the action of a stage exponential on a few vectors,
computed for all contour nodes at once by ``stage_action`` before any node
is assembled: exp(M2 t) h at the times t <= tau_d, exp(M2 tau_d) lift,
exp(M1 s) h at the later times, and exp(M1 tau_s) on the block sums of the
stored columns, to which stage 3 reduces exactly.  The read-out rows follow
from the same arrays, because M2^T = D M2 D^-1 with D = diag(g),
M1^T = D0 M1 D0^-1 with D0 = diag(g0), and stage 4 is stage 2 reflected
through the controlled comb.  Nothing is decomposed.

The discretized efficiency kernel is the real symmetric Gram matrix of the
weighted transfer matrix; its largest eigenvalue is the maximal
storage-and-retrieval efficiency.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from cribmem.errors import NumericsError
from cribmem.laplace import LaplaceContour
from cribmem.model import DetuningGrid, PhysicalParams, ProtocolSchedule
from cribmem.propagators import (
    Stage,
    block_reversal_permutation,
    block_sums,
    stage3_correction,
    stage_action,
)
from cribmem.quadrature import TimeGrid, check_time_reversible

_WINDOW_SLACK = 1e-9

KERNEL_DUMP_MAGIC = b"CRIBKRN1"


@dataclass(frozen=True)
class TransferKernel:
    """K_E sampled on out_grid x in_grid, plus assembly diagnostics."""

    out_grid: TimeGrid
    in_grid: TimeGrid
    values: np.ndarray
    schedule: ProtocolSchedule
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EfficiencyKernel:
    """Real symmetric matrix sqrt(w_i) K_eff(t_i, t_j) sqrt(w_j) on the in-grid."""

    grid: TimeGrid
    matrix: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.matrix):
            raise ValueError("the efficiency matrix must be real")


def _contour_assembly(grid: DetuningGrid, schedule: ProtocolSchedule, us,
                      t_out, t_in):
    """Every stage propagation of the kernel, batched over the nodes ``us``.

    Returns ``(assemble, work)``.  ``assemble(i)`` is K_E-hat at ``us[i]`` as
    two column blocks over all output rows, from products alone: rows are
    ordered (outputs t <= tau_d, later outputs), the first block holds the
    inputs t' <= tau_d, the second the later inputs.  ``work`` is the
    stage-2 (substeps, matvecs).  Two stage-2 actions give the stored
    states exp(M2 t') h and exp(M2 tau_d) lift; two stage-1 actions give
    exp(M1 s) h at the later times and the stage-3 correction over tau_s.
    """
    td, ts = schedule.tau_d, schedule.tau_s
    lo_out, lo_in = t_out <= td, t_in <= td
    t_lo = np.union1d(t_out[lo_out], t_in[lo_in])
    t_hi = np.union1d(t_out[~lo_out], t_in[~lo_in]) - td
    out_lo, in_lo = np.searchsorted(t_lo, t_out[lo_out]), np.searchsorted(t_lo, t_in[lo_in])
    out_hi = np.searchsorted(t_hi, t_out[~lo_out] - td)
    in_hi = np.searchsorted(t_hi, t_in[~lo_in] - td)
    stored = stage_action(Stage.S2, grid, us, np.ones((grid.k * grid.n, 1)), t_lo)
    lift = np.kron(np.eye(grid.k), np.ones((grid.n, 1)))   # KN x K column lift
    lifted = stage_action(Stage.S2, grid, us, lift, [td])
    free = stage_action(Stage.S1, grid, us, np.ones((grid.k, 1)), t_hi).states[..., 0]

    # Stage 3 through the block sums of the stored columns: the inputs
    # t' <= tau_d (summed before they are picked out), then the lift.
    y_in = block_sums(grid, stored.states)[in_lo, :, :, 0].transpose(1, 2, 0)
    y0 = np.concatenate([y_in, block_sums(grid, lifted.states[0])], axis=2)
    corr = stage3_correction(grid, us, y0, ts)
    phase = np.exp(-1j * grid.delta_zero() * ts)
    g, g0 = grid.joint_weights, grid.intrinsic_weights
    perm = block_reversal_permutation(grid)
    n_lo = in_lo.size

    def assemble(i: int) -> tuple[np.ndarray, np.ndarray]:
        s2 = stored.states[:, i, :, 0]
        e2d_lift = lifted.states[0, i]
        # Read-out rows.  M2^T = D M2 D^-1 with D = diag(g), so
        # g^T exp(M2 t) = (g o exp(M2 t) h)^T and, for the K x KN block rows
        # of controlled weights lw = (D lift diag(1/g0))^T,
        # lw exp(M2 td) = (D e2d_lift diag(1/g0))^T.  Stage 4 is stage 2
        # reflected, and the reflection fixes g and lw on the symmetric comb.
        # Likewise M1^T = D0 M1 D0^-1 with D0 = diag(g0), so
        # g0^T exp(M1 s) = (g0 o exp(M1 s) h)^T.
        a4 = (g[None, :] * s2[out_lo])[:, perm]
        lw_e4 = (g[:, None] * e2d_lift / g0[None, :]).T[:, perm]
        rows = np.vstack([a4, (g0[None, :] * free[out_hi, i]) @ lw_e4])
        # exp(M3 ts) X = phase o X - repeat_N(corr); the repeat folds into
        # the block sums of the rows.
        sums = (rows.reshape(-1, grid.n) @ np.ones(grid.n)).reshape(-1, grid.k)
        rows *= phase
        k_lo = rows @ s2[in_lo].T - sums @ corr[i, :, :n_lo]
        k_hi = (rows @ e2d_lift - sums @ corr[i, :, n_lo:]) @ free[in_hi, i].T
        return k_lo, k_hi

    return assemble, (stored.substeps + lifted.substeps, stored.matvecs + lifted.matvecs)


def build_transfer_kernel(
    params: PhysicalParams,
    schedule: ProtocolSchedule,
    grid: DetuningGrid,
    contour: LaplaceContour,
    out_grid: TimeGrid,
    in_grid: TimeGrid,
) -> TransferKernel:
    """Assemble the real K_E(t_i, t'_j) on the given time grids.

    Both detuning families must be mirror-symmetric: stage 4 is obtained
    from stage 2 by reflecting the controlled comb, and the symmetry makes
    the kernel real, so only the upper-half contour nodes are evaluated and
    the real part is doubled.
    """
    for tg, name in ((out_grid, "out_grid"), (in_grid, "in_grid")):
        if abs(tg.a) > _WINDOW_SLACK or abs(tg.b - schedule.tau_r) > _WINDOW_SLACK * max(1.0, schedule.tau_r):
            raise ValueError(f"{name} must span [0, tau_r], got [{tg.a}, {tg.b}]")
    if not grid.is_symmetric():
        raise ValueError("the intrinsic and controlled detuning nodes and "
                         "weights must be mirror-symmetric about zero")
    half = contour.conjugate_half()
    assemble, (substeps, matvecs) = _contour_assembly(
        grid, schedule, contour.nodes[half], out_grid.nodes, in_grid.nodes)

    values = np.zeros((out_grid.size, in_grid.size))
    # Nodes increase, so the t <= tau_d rows and columns lead.
    n_lo = int(np.count_nonzero(in_grid.nodes <= schedule.tau_d))
    for i, idx in enumerate(half):
        u = complex(contour.nodes[idx])
        wu = 2.0 * complex(contour.derivative_weights[idx]) * (-1.0 / (u * u))
        k_lo, k_hi = assemble(i)
        values[:, :n_lo] += (wu * k_lo).real
        values[:, n_lo:] += (wu * k_hi).real

    if not np.all(np.isfinite(values)):
        raise NumericsError("non-finite entries in the transfer kernel")
    diagnostics = {
        "assembly": "half",
        "contour_nodes": int(contour.size),
        "rephasing_time": grid.rephasing_time(),
        "stage2_substeps": substeps,
        "stage2_matvecs": matvecs,
        "max_abs": float(np.max(np.abs(values))),
    }
    return TransferKernel(out_grid=out_grid, in_grid=in_grid, values=values,
                          schedule=schedule, diagnostics=diagnostics)


def apply_output(kernel: TransferKernel, e_in) -> np.ndarray:
    """Retrieved field on out_grid for an input sampled on in_grid.

    The input enters time reversed, E_in(tau_r - t'); on the symmetric
    quadrature grid that is an index reversal of the samples.
    """
    e_in = np.asarray(e_in, dtype=complex)
    if e_in.shape != kernel.in_grid.nodes.shape:
        raise ValueError(
            f"input has {e_in.shape} samples, in-grid has {kernel.in_grid.nodes.shape}"
        )
    check_time_reversible(kernel.in_grid)
    x = kernel.in_grid.weights * e_in[::-1]   # parts apart: no complex copy of values
    return kernel.values @ x.real + 1j * (kernel.values @ x.imag)


def build_efficiency_kernel(kernel: TransferKernel) -> EfficiencyKernel:
    """Weight-folded real symmetric efficiency matrix from the transfer kernel.

    With A = sqrt(w_out) K_E sqrt(w_in), the matrix is A^T A, explicitly
    re-symmetrized; the Rayleigh quotient of sqrt(w)-scaled input samples
    under it is the storage-and-retrieval efficiency.
    """
    sw_out = np.sqrt(kernel.out_grid.weights)
    sw_in = np.sqrt(kernel.in_grid.weights)
    a = sw_out[:, None] * kernel.values * sw_in[None, :]
    m = a.T @ a
    m = 0.5 * (m + m.T)
    return EfficiencyKernel(grid=kernel.in_grid, matrix=m)


def write_kernel_dump(path, matrix: np.ndarray, tau_r: float) -> None:
    """Binary dump: 32-byte header (magic, u32 dims, f64 tau_r), c128 data."""
    matrix = np.ascontiguousarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2:
        raise ValueError("kernel dump expects a 2-d matrix")
    header = struct.pack("<8sIId", KERNEL_DUMP_MAGIC,
                         matrix.shape[0], matrix.shape[1], float(tau_r))
    header += b"\x00" * (32 - len(header))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(matrix.astype("<c16").tobytes(order="C"))


def read_kernel_dump(path) -> tuple[np.ndarray, float]:
    with open(path, "rb") as fh:
        header = fh.read(32)
        if len(header) != 32 or header[:8] != KERNEL_DUMP_MAGIC:
            raise ValueError(f"{path!r} is not a kernel dump")
        rows, cols, tau_r = struct.unpack("<IId", header[8:24])
        data = np.frombuffer(fh.read(), dtype="<c16")
    if data.size != rows * cols:
        raise ValueError("kernel dump payload size mismatch")
    return data.reshape(rows, cols).astype(np.complex128), float(tau_r)
