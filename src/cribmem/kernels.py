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
transform, along a fixed Talbot contour, of that product.

Every KN-dimensional factor is the action of the stage-2 exponential on a
few vectors, computed for all contour nodes at once by ``stage2_action``:
exp(M2 t) h at the times t <= tau_d and exp(M2 tau_d) lift.  The read-out
rows follow from the same arrays, because M2^T = D M2 D^-1 with
D = diag(g) and stage 4 is stage 2 reflected through the controlled comb.
Only the K x K stage-1 generator is decomposed.

The discretized efficiency kernel is the Gram matrix of the weighted
transfer matrix; its largest eigenvalue is the maximal storage-and-retrieval
efficiency.
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
    stage2_action,
    stage3_rows,
    stage_eigen,
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
    """Hermitian matrix sqrt(w_i) K_eff(t_i, t_j) sqrt(w_j) on the in-grid."""

    grid: TimeGrid
    matrix: np.ndarray


def _assembled_at_u(u: complex, grid: DetuningGrid, schedule: ProtocolSchedule,
                    t_out_hi, t_in_hi, s_out, s_in, e2d_lift) -> tuple[np.ndarray, np.ndarray]:
    """K_E-hat at one contour node as two column blocks over all output rows.

    Rows are ordered (outputs t <= tau_d, t_out_hi); the first block holds
    the inputs t' <= tau_d, the second the inputs t_in_hi.  The stage-2
    factors come from ``stage2_action``: ``s_out`` and ``s_in`` hold the
    rows exp(M2 t) h at the output and input times t <= tau_d, and
    ``e2d_lift`` is exp(M2 tau_d) lift.  Only the K x K stage-1 generator is
    decomposed here; stage 4 follows by the controlled-detuning reflection,
    stage 3 by its exact block reduction.
    """
    g = grid.joint_weights
    g0 = grid.intrinsic_weights
    ts = schedule.tau_s
    perm = block_reversal_permutation(grid)
    e1 = stage_eigen(Stage.S1, u, grid)

    # Read-out rows.  M2^T = D M2 D^-1 with D = diag(g), so
    # g^T exp(M2 t) = (g o exp(M2 t) h)^T and, for the K x KN block rows of
    # controlled weights lw = (D lift diag(1/g0))^T,
    # lw exp(M2 td) = (D e2d_lift diag(1/g0))^T.  Stage 4 is stage 2
    # reflected, and the reflection fixes g and lw on the symmetric comb.
    a4 = (g[None, :] * s_out)[:, perm]
    g0v1 = g0 @ e1.vectors
    a1 = (g0v1[None, :] * np.exp(np.outer(t_out_hi, e1.values))) @ e1.inverse
    lw_e4 = (g[:, None] * e2d_lift / g0[None, :]).T[:, perm]
    rows = stage3_rows(np.vstack([a4, a1 @ lw_e4]), u, grid, ts, e1)

    # Stored states: exp(M2 t') h, and exp(M2 td) lift exp(M1 s') h.
    h1 = e1.inverse @ np.ones(grid.k)
    b1 = e1.vectors @ (np.exp(np.outer(e1.values, t_in_hi)) * h1[:, None])
    return rows @ s_in.T, (rows @ e2d_lift) @ b1


def build_transfer_kernel(
    params: PhysicalParams,
    schedule: ProtocolSchedule,
    grid: DetuningGrid,
    contour: LaplaceContour,
    out_grid: TimeGrid,
    in_grid: TimeGrid,
) -> TransferKernel:
    """Assemble K_E(t_i, t'_j) on the given time grids.

    The controlled comb must be mirror-symmetric: stage 4 is obtained from
    stage 2 by reflecting it.  On a fully symmetric grid the kernel is real,
    so only the upper-half-plane contour nodes are evaluated and the real
    part is doubled; otherwise every node is summed.
    """
    for tg, name in ((out_grid, "out_grid"), (in_grid, "in_grid")):
        if abs(tg.a) > _WINDOW_SLACK or abs(tg.b - schedule.tau_r) > _WINDOW_SLACK * max(1.0, schedule.tau_r):
            raise ValueError(f"{name} must span [0, tau_r], got [{tg.a}, {tg.b}]")
    if not grid.is_controlled_symmetric():
        raise ValueError("the controlled detuning nodes and weights must be "
                         "mirror-symmetric about zero")
    use_half = grid.is_symmetric()

    td = schedule.tau_d
    out_lo = out_grid.nodes <= td
    in_lo = in_grid.nodes <= td
    t_out_lo = out_grid.nodes[out_lo]
    t_out_hi = out_grid.nodes[~out_lo] - td
    t_in_lo = in_grid.nodes[in_lo]
    t_in_hi = in_grid.nodes[~in_lo] - td

    if use_half:
        sel = contour.conjugate_half()
    else:
        sel = np.arange(contour.size)
    us = contour.nodes[sel]

    # Stage 2 for the whole contour at once: exp(M2 t) h at every output
    # and input time t <= tau_d, and exp(M2 td) lift.
    t_lo = np.union1d(t_out_lo, t_in_lo)
    stored = stage2_action(grid, us, np.ones((grid.k * grid.n, 1)), t_lo)
    lift = np.kron(np.eye(grid.k), np.ones((grid.n, 1)))   # KN x K column lift
    lifted = stage2_action(grid, us, lift, [td])
    out_at = np.searchsorted(t_lo, t_out_lo)
    in_at = np.searchsorted(t_lo, t_in_lo)

    values = np.zeros((out_grid.size, in_grid.size), dtype=complex)
    n_lo = t_in_lo.size   # nodes increase, so the t <= tau_d rows and columns lead
    for i, idx in enumerate(sel):
        u = complex(contour.nodes[idx])
        wu = complex(contour.derivative_weights[idx]) * (-1.0 / (u * u))
        s2 = stored.states[:, i, :, 0]
        k_lo, k_hi = _assembled_at_u(u, grid, schedule, t_out_hi, t_in_hi,
                                     s2[out_at], s2[in_at], lifted.states[0, i])
        values[:, :n_lo] += wu * k_lo
        values[:, n_lo:] += wu * k_hi

    diagnostics = {
        "assembly": "half" if use_half else "full",
        "contour_nodes": int(contour.size),
        "rephasing_time": grid.rephasing_time(),
        "stage2_substeps": stored.substeps + lifted.substeps,
        "stage2_matvecs": stored.matvecs + lifted.matvecs,
    }
    if use_half:
        values = 2.0 * values.real + 0.0j
    if not np.all(np.isfinite(values.view(float))):
        raise NumericsError("non-finite entries in the transfer kernel")
    diagnostics["max_abs"] = float(np.max(np.abs(values)))
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
    return kernel.values @ (kernel.in_grid.weights * e_in[::-1])


def build_efficiency_kernel(kernel: TransferKernel) -> EfficiencyKernel:
    """Weight-folded Hermitian efficiency matrix from the transfer kernel.

    With A = sqrt(w_out) K_E sqrt(w_in), the matrix is A^H A, explicitly
    re-Hermitized; the Rayleigh quotient of sqrt(w)-scaled input samples
    under it is the storage-and-retrieval efficiency.
    """
    sw_out = np.sqrt(kernel.out_grid.weights)
    sw_in = np.sqrt(kernel.in_grid.weights)
    a = sw_out[:, None] * kernel.values * sw_in[None, :]
    m = a.conj().T @ a
    m = 0.5 * (m + m.conj().T)
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
