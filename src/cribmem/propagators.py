"""Laplace-domain stage generators and the one stage-propagation primitive.

Each protocol stage evolves the polarization vector under a generator of the
form ``-i*diag(phases) - (1/u) * ones * weights^T`` (a diagonal matrix plus a
rank-one coupling through the radiated field), with the phases and weights
of the detuning grid the stage runs on (``DetuningGrid``: the grid itself
while the field dephases, ``controlled_by(-1)`` while it rephases,
``controlled_by(0)`` with it off, ``collapsed()`` for the K intrinsic
classes).  ``stage_action`` applies the exponential on any grid to blocks
of vectors without forming it, for a whole batch of contour nodes at once.
The rank-one coupling reduces each action to one scalar convolution
Volterra equation for the radiated field, solved by collocation on the
Gauss-Legendre rule of ``quadrature.GaussLegendre`` (the rule of the
kernel's core nodes and of the depth grid too; tanh-sinh serves only the
sweep's time grid) with one n x n matrix shared by every node, n set by the
bandwidth of the action; the states then follow from Duhamel's formula.
The phase of class (j, k) is an intrinsic node plus a controlled one, so
each time takes (K + N) * n exponentials and one matrix product for all
contour nodes.  In the read-out rows of stored states (``ReadOut``) stage 3
is reduced exactly onto the collapsed grid, and stage 4 always follows from
stage 2 by the controlled-detuning reflection: nothing in the package runs a
stage-4 action.  Nothing forms or decomposes a generator.

The collapsed grid weights each intrinsic class with the sum of the
controlled Riemann weights, which equals one only in the continuum limit:
with it, the K-dimensional stage-1/5 equations are the exact block
reduction of the joint-class system at any grid resolution, so the kernel
pipeline and a direct discrete solver agree to solver accuracy even on
coarse grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cribmem.errors import NumericsError
from cribmem.model import DetuningGrid
from cribmem.quadrature import GaussLegendre

_MARGIN = 8        # collocation nodes beyond the bandwidth beta*T
_MAX_NODES = 1024  # most collocation nodes: the complex n x n A is then 16 MB
CHUNK = 2 ** 15    # entries of the largest temporary array


def _class_exponentials(grid: DetuningGrid, s: np.ndarray) -> np.ndarray:
    """e^{i phi s} for the grid's phases phi in joint layout, (s.shape..., K*N).

    Only K + N exponentials per s are evaluated; the outer product of the
    intrinsic and controlled ones gives the K*N classes.
    """
    s = np.asarray(s, dtype=float)[..., None]
    ea, eb = np.exp(1j * grid.intrinsic_nodes * s), np.exp(1j * grid.controlled_nodes * s)
    return (ea[..., :, None] * eb[..., None, :]).reshape(s.shape[:-1] + (grid.k * grid.n,))


@dataclass(frozen=True)
class StagePropagation:
    """exp(M(u) t) x at each requested time t and contour node u.

    ``states`` has shape (times, nodes, dimension, m); ``collocation_nodes``
    is the number of Gauss-Legendre nodes on [0, max(times)] (0 when no time
    is positive).
    """

    states: np.ndarray
    collocation_nodes: int


def stage_action(grid: DetuningGrid, us, x, times) -> StagePropagation:
    """exp(M(u) t) x on one grid, for a batch of contour nodes and increasing t >= 0.

    ``x`` is a (dimension, m) block shared by every node or a
    (nodes, dimension, m) stack, dimension = K*N.  M(u) = -i diag(phi) -
    (1/u) 1 w^T, with phi = ``grid.phases`` and w = ``grid.joint_weights``,
    is never formed.  By Duhamel's formula the state is

        x(t) = e^{-i phi t} o [x - (1/u) int_0^t e^{i phi s} f(s) ds],

    where the scalar field f = w^T x(t) solves the convolution Volterra
    equation

        f(t) + (1/u) int_0^t chi(t - s) f(s) ds = (w o e^{-i phi t})^T x,
        chi(tau) = sum_i w_i e^{-i phi_i tau},

    one per node and column.  f is collocated at the n Gauss-Legendre
    nodes s_q on [0, T = max(times)]: the integral at s_q is an n-node
    Gauss-Legendre rule on [0, s_q] applied to the barycentric Lagrange
    interpolant of f, which gives one n x n matrix A for every node, and
    each node solves (I + A/u) F = R.  The states at every time follow from
    the same inner rule on [0, t]: its table e^{i phi (sigma - t)} is the
    outer product of the K intrinsic and N controlled exponentials, (K + N)
    * n of them per time, and one product with the weighted field of every
    node and column gives the integral.  All of it is resolved when n exceeds
    the bandwidth beta*T, with beta = max|phi| + max|1/u| sum(w) the
    max-norm bound of every generator in the batch; n = max(24,
    ceil(beta*T) + 8) (``collocation_count``) leaves 8 nodes of margin,
    and 8 more nodes change the states by rounding only.  An n above 1024
    raises NumericsError before anything of size n is built.  Nodes and
    times are taken in chunks so that a temporary holds about 2^15 entries
    (one time's dimension x n table at least): large arrays, once freed,
    raise the allocator's mmap threshold and with it the peak resident
    memory.
    A singular collocation system or a non-finite result raises
    NumericsError too; each such error names the action by its class
    counts K x N, T, beta and n.
    """
    us = np.asarray(us, dtype=complex).ravel()
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a 1-d array of finite values")
    if np.any(times < 0.0) or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be non-negative and non-decreasing")
    if np.any(us == 0):
        raise ValueError("u = 0 is a singular Laplace moment (1/u coupling)")
    phi, w = grid.phases, grid.joint_weights
    x = np.asarray(x, dtype=complex)
    if x.ndim == 2:
        x = x[None]
    if x.ndim != 3 or x.shape[1] != phi.size or x.shape[0] not in (1, us.size):
        raise ValueError(f"x must be (dim, m) or (nodes, dim, m) with dim = {phi.size}, "
                         f"got {x.shape}")
    out = np.empty((times.size, us.size) + x.shape[1:], dtype=complex)
    if times.size == 0:
        return StagePropagation(out, 0)
    t_end = float(times[-1])
    n_q = 0
    action = f"{grid.k} x {grid.n} action over T={t_end!r}"
    if t_end == 0.0:
        out[...] = x
    else:
        n_q, beta = collocation_count(grid, us, t_end)
        action += f" at beta={beta!r} with {n_q} collocation nodes"
        inv_u = 1.0 / us
        rule = GaussLegendre(n_q, t_end)
        sources = _class_exponentials(grid, -rule.nodes)    # e^{-i phi s_q}
        a = _volterra_matrix(rule, sources @ w)
        sources *= w
        f_rows = np.empty((us.size, x.shape[2], n_q), dtype=complex)   # -F^T/u per node
        step = max(1, CHUNK // (n_q * max(n_q, x.shape[2])))
        for j0 in range(0, us.size, step):
            j = slice(j0, j0 + step)
            f = _solve(action, a, us[j], sources @ (x if x.shape[0] == 1 else x[j]))
            np.multiply(f.transpose(0, 2, 1), -inv_u[j][:, None, None], out=f_rows[j])
        _evaluate(out, grid, x, f_rows, rule, times)
    bad = ~np.isfinite(out).all(axis=(0, 2, 3))
    if bad.any():
        raise NumericsError(f"{action} gave non-finite values at "
                            f"u={complex(us[np.flatnonzero(bad)[0]])!r}")
    return StagePropagation(out, n_q)


def collocation_count(grid: DetuningGrid, us, t_end: float) -> tuple[int, float]:
    """Gauss-Legendre nodes n of an action on ``grid`` over [0, t_end], and its beta.

    beta = max|phi| + max|1/u| sum(w) bounds the max norm of every
    generator of the batch ``us``, so exp(M(u) t) x is an entire function
    of t of exponential type beta, and n = max(24, ceil(beta*t_end) + 8)
    nodes resolve it on [0, t_end] to rounding: over 30 points (d0 from 10
    to 1600, gamma from 0.5 to 20) eta_max and eta_gauss at this margin of 8
    lie within 1.5e-14 of those at 16 and 3.7e-14 of those at 32, while 16
    and 32 differ by 2.2e-14; a floor of 16 in place of 24 moved eta_gauss
    by up to 7.5e-13.  An n above 1024 raises NumericsError, which names the
    action by K x N, t_end and beta.
    """
    inv_u = 1.0 / np.asarray(us, dtype=complex).ravel()
    beta = (float(np.max(np.abs(grid.phases)))
            + float(np.max(np.abs(inv_u))) * float(grid.joint_weights.sum()))
    n_q = max(24, math.ceil(beta * t_end) + _MARGIN)
    if n_q > _MAX_NODES:
        raise NumericsError(f"{grid.k} x {grid.n} action over T={t_end!r} at beta={beta!r} "
                            f"needs {n_q} collocation nodes, more than {_MAX_NODES}")
    return n_q, beta


def _volterra_matrix(rule: GaussLegendre, chi_nodes: np.ndarray) -> np.ndarray:
    """A[q, p] = sum_m omega_qm chi(s_q - sigma_qm) L_p(sigma_qm), the rule on [0, s_q].

    chi has the bandwidth of the field, so it is interpolated from its
    values at the nodes s_q.
    """
    n = rule.nodes.size
    a = np.empty((n, n), dtype=complex)
    rows = max(1, CHUNK // (n * n))
    for q0 in range(0, n, rows):
        s = rule.nodes[q0:q0 + rows]
        sigma, omega = rule.inner(s)
        chi = rule.interpolation(s[:, None] - sigma) @ chi_nodes
        a[q0:q0 + rows] = np.einsum("qm,qmp->qp", omega * chi, rule.interpolation(sigma))
    return a


def _solve(action: str, a, us, rhs) -> np.ndarray:
    """Field values F, (nodes, n, m), from (I + A/u) F = R at each node."""
    system = a / us[:, None, None]
    system += np.eye(a.shape[0])
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        u = us[np.argmin(np.abs(np.linalg.det(system)))]
        raise NumericsError(f"{action}: collocation system is singular at "
                            f"u={complex(u)!r}") from None


def _evaluate(out, grid: DetuningGrid, x, f_rows, rule: GaussLegendre, times) -> None:
    """out[i] = e^{-i phi t_i} o x - (1/u) int_0^t_i e^{i phi (s - t_i)} f(s) ds, in place.

    ``f_rows`` holds -F^T/u, (nodes, m, n).  The inner rule's table
    e^{i phi (sigma - t)} at one time is the outer product of its K- and
    N-factors, and it serves every contour node: the integral is one
    product of the weighted field of all nodes and columns with it.
    """
    nodes, m, n = f_rows.shape
    dim = out.shape[2]
    f_rows = f_rows.reshape(nodes * m, n)
    step = max(1, CHUNK // (n * max(dim, n)))
    for i0 in range(0, times.size, step):
        t = times[i0:i0 + step]
        sigma, omega = rule.inner(t)
        # omega_p L_q(sigma_p) as (times, q, p): the field at the inner nodes, weighted.
        weighted = (rule.interpolation(sigma) * omega[:, :, None]).transpose(0, 2, 1)
        table = _class_exponentials(grid, sigma - t[:, None])   # (times, n, dim)
        phase = _class_exponentials(grid, -t)[:, None, :, None]
        node_step = max(1, CHUNK // (t.size * m * max(dim, n)))
        for j0 in range(0, nodes, node_step):
            j = slice(j0, j0 + node_step)
            field = f_rows[j0 * m:(j0 + node_step) * m] @ weighted
            integral = (field @ table).reshape(t.size, -1, m, dim).swapaxes(2, 3)
            np.add(integral, phase * (x if x.shape[0] == 1 else x[j]),
                   out=out[i0:i0 + step, j])


# ---------------------------------------------------------------------------
# Structured shortcut used with the primitive: the read-out rows, by the
# controlled-detuning reflection that maps stage 2 onto stage 4, with the
# exact block reduction of the stage-3 generator onto the collapsed grid.


class ReadOut:
    """Read-out rows (P D x)^T exp(M3 tau_s) of stored states x on ``grid``.

    The row of a state x is what x gives the retrieved field: stage 4 is
    stage 2 with the controlled comb reflected (P), and M2^T = D M2 D^-1
    with D = diag(g), so g^T exp(M4 t) = (P D exp(M2 t) 1)^T, and storage
    for tau_s comes first.  P reverses each block of the mirror-symmetric
    comb and commutes with D and with the storage phase, constant on a
    block.

    Stage 3 reduces exactly onto the collapsed grid: its diagonal is
    constant inside each controlled block, so the block sums Y = sum_n gc_n
    x_(k, n) close on the K-dimensional system of ``grid.collapsed()``
    (generator M1), and

        exp(M3 t) x = e^{-i Delta0 t} o x - repeat_N(C Y),
        C = (diag(e^{-i Delta0 t}) - exp(M1 t)) / sum(gc),

    the K x K correction of each node of ``us``, from one collapsed action
    on the identity.  So entry (k, n) of a row is gc_n (g0_k e^{-i Delta0_k
    tau_s} x_(k, N-1-n) - T_k), T = (g0 o Y) C.  At tau_s = 0, C is
    exactly 0.
    """

    def __init__(self, grid: DetuningGrid, us, tau_s: float):
        self.grid = grid
        phase = np.exp(-1j * grid.intrinsic_nodes * tau_s)
        e1 = stage_action(grid.collapsed(), us, np.eye(grid.k), [tau_s]).states[0]
        self.correction = (np.diag(phase) - e1) / grid.controlled_weight_sum
        self.g0_phase = (grid.intrinsic_weights * phase)[:, None]

    def rows(self, x: np.ndarray, j) -> np.ndarray:
        """The rows of the states x, (..., rows, KN), at the nodes ``us[j]``.

        ``self.correction[j]`` broadcasts against the leading axes of x: an
        integer j takes every row at one node, and a (nodes, 1, KN) stack
        with j = slice(None) takes one row per node.
        """
        grid = self.grid
        blocks = x.reshape(x.shape[:-1] + (grid.k, grid.n))
        t = (grid.intrinsic_weights * (blocks @ grid.controlled_weights)) @ self.correction[j]
        rows = blocks[..., ::-1] * self.g0_phase
        rows -= t[..., None]
        rows *= grid.controlled_weights
        return rows.reshape(x.shape)
