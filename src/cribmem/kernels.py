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

The assembly has two steps.  The stored states do not depend on the
storage time (``_stored_states``): V = exp(M2 t) h at the lo times
(t <= tau_d), the lift L = exp(M2 tau_d) lift, and F = exp(M1 s) h at
the hi times, s = t - tau_d.  Each is the action of a stage exponential on
a few vectors, computed for all contour nodes at once by ``stage_action``
on the grid the stage runs on: stage 2 on the detuning grid itself,
read-in (F) on ``grid.collapsed()``.  The read-out holds all of tau_s
(``propagators.ReadOut``): the rows (P D x)^T exp(M3 tau_s) of states x,
with stage 3 reduced exactly onto the collapsed action (the correction C)
and the storage phase that of ``grid.controlled_by(0)``.  Nothing is
decomposed.

The contour sum then adds one node at a time (``_contour_sum``).  With
w = weight (-1/u^2) of the node u and R_x the read-out rows of x, the
lo-lo, lo-hi and hi-hi blocks of inputs and outputs before and after tau_d
gain Re(w R_V V^T), Re(w (R_V L) F^T) and Re(w F (R_L L) F^T): the lo-lo
block pairs the stored states with themselves, and the others enter
through the K columns of the lift.  Each real part is one real matrix
product, with the real and imaginary parts side by side: no complex block
of the kernel is formed.

The kernel is assembled on core nodes and kept with its interpolant.  As a
function of either time argument each block is an entire function of
exponential type at most beta, the bound of the stage its states run on:
exp(M2 t) h for t <= tau_d, exp(M1 s) h on the read-in side.  The
n = max(24, ceil(beta*T) + 16) Gauss-Legendre nodes on [0, T] that
``stage_action`` would collocate on for that side resolve such a function
to rounding, and barycentric interpolation (Berrut and Trefethen, SIAM Rev.
46, 501 (2004)) carries it to any time of the side.  So each side keeps the
smaller of its own times and those nodes, the contour sum runs on the core
nodes, and the kernel is the pair (K_core, Pi): K_E = Pi K_core Pi^T with Pi
block-diagonal, the interpolation matrix on a side that takes the nodes, the
identity on one that keeps its times.  When both sides keep their times
K_core is the direct assembly on the grid, bit for bit.  K_E itself, an
n x n array of the time grid, is never formed.

The efficiency kernel is A = sqrt(w) K_E sqrt(w) = B K_core B^T with the
basis B = sqrt(w) Pi, and it too is kept as its factors.  The efficiency
operator A^2 is never formed: an eigenvector of A with eigenvalue lambda is
an input mode of efficiency lambda^2.  Only a few modes are stored well: A
has rank at most the core node count c (56 of 1025 at d0 = 100,
gamma = 3, K = 9, N = 15, level 9).  Every efficiency kernel carries the
eigenpairs A = U Lambda U^T, computed once when it is built by
Rayleigh-Ritz on B = QR: Q^T A Q = R K_core R^T, a c x c matrix, and its
eigenpairs (theta, S) give U = Q S.  The error is rounding alone:
||B K_core B^T - U Lambda U^T||_2 is 1.1e-15 to 2.0e-15 |lambda_1| at
(d0, gamma, K, N, level) = (100, 3, 9, 15, 9), (100, 3, 21, 21, 6),
(100, 10, 33, 33, 6) and (800, 10, 33, 33, 6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from cribmem.errors import NumericsError
from cribmem.laplace import LaplaceContour
from cribmem.model import DetuningGrid, PhysicalParams, ProtocolSchedule
from cribmem.propagators import ReadOut, collocation_count, stage_action
from cribmem.quadrature import GaussLegendre, TimeGrid, check_time_reversible

_WINDOW_SLACK = 1e-9


def _check_core(core: np.ndarray, c: int) -> None:
    if (np.iscomplexobj(core) or core.shape != (c, c) or not np.array_equal(core, core.T)
            or not np.all(np.isfinite(core))):
        raise ValueError(f"the core kernel must be real, finite, symmetric and {c} x {c}")


@dataclass(frozen=True)
class TransferKernel:
    """K_E on grid x grid as K_E = Pi K_core Pi^T, plus assembly diagnostics.

    ``core`` is K_core, the real c x c kernel on the c core nodes, symmetric
    bit for bit, and ``interpolation`` is Pi, n x c (c <= n), which carries
    it to the n grid times.
    """

    grid: TimeGrid
    core: np.ndarray
    interpolation: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        check_time_reversible(self.grid)
        n, p = self.grid.size, self.interpolation
        if p.ndim != 2 or p.shape[0] != n or not 0 < p.shape[1] <= n:
            raise ValueError(f"the interpolation must be {n} x c with 0 < c <= {n}, "
                             f"got {p.shape}")
        _check_core(self.core, p.shape[1])


@dataclass(frozen=True)
class EfficiencyKernel:
    """A = sqrt(w_i) K_E(t_i, t_j) sqrt(w_j) as A = B K_core B^T.

    ``basis`` B is real, n x c (c <= n), and ``core`` K_core is real c x c,
    symmetric bit for bit.  ``eigenvalues`` (c values, by decreasing
    magnitude) and ``eigenvectors`` (n x c, orthonormal columns) are
    A = U Lambda U^T, set on construction (see ``_spectral_factor``).  Its
    error E = A - U Lambda U^T is rounding, ||E||_2 <= 2.0e-15 |lambda_1| on
    the kernels measured (module docstring), so every eigenvalue of A lies
    that close to one of the factor (zero for the n - c it lacks), and an
    efficiency ||A phi||^2 / ||phi||^2 moves by at most
    (2 |lambda_1| + ||E||_2) ||E||_2, about 4e-15 eta_max.
    """

    grid: TimeGrid
    basis: np.ndarray
    core: np.ndarray
    eigenvalues: np.ndarray = field(init=False)
    eigenvectors: np.ndarray = field(init=False)

    def __post_init__(self):
        check_time_reversible(self.grid)
        n, b = self.grid.size, self.basis
        if (np.iscomplexobj(b) or b.ndim != 2 or b.shape[0] != n
                or not 0 < b.shape[1] <= n or not np.all(np.isfinite(b))):
            raise ValueError(f"the basis must be real, finite and {n} x c with 0 < c <= {n}")
        _check_core(self.core, b.shape[1])
        try:
            values, vectors = _spectral_factor(b, self.core)
        except np.linalg.LinAlgError as exc:
            raise NumericsError(f"efficiency eigensolve failed: {exc}") from exc
        order = np.argsort(-np.abs(values), kind="stable")
        object.__setattr__(self, "eigenvalues", values[order])
        object.__setattr__(self, "eigenvectors", np.ascontiguousarray(vectors[:, order]))


def _spectral_factor(basis: np.ndarray, core: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of B K B^T, B = ``basis``.

    Rayleigh-Ritz, exact up to rounding: with B = QR, Q^T (B K B^T) Q =
    R K R^T, and its eigenpairs (theta, S) give B K B^T = (Q S) diag(theta)
    (Q S)^T.  Nothing of size n x n is formed.
    """
    q, r = np.linalg.qr(basis)
    theta, s = np.linalg.eigh(r @ core @ r.T)
    return theta, q @ s


def _stored_states(grid: DetuningGrid, schedule: ProtocolSchedule, us, lo_times, hi_times):
    """The tau_s-free stored states at the nodes ``us``: (V, L, F) and their work.

    V, (lo times, nodes, KN), is exp(M2 t) h at the lo core times; L, (nodes,
    KN, K), is exp(M2 tau_d) lift; F, (hi times, nodes, K), is exp(M1 s) h
    at s = t - tau_d on ``grid.collapsed()``.  Each comes from one
    ``stage_action``, which collocates at n = max(24, ceil(beta*T) + 16)
    Gauss-Legendre nodes on [0, T], T its last time and beta the stage's
    max-norm bound, so the lift's K columns share one solve per node.  The
    work is the node count n of the two stage-2 actions (V, L).
    """
    k, n = grid.k, grid.n
    stored = stage_action(grid, us, np.ones((k * n, 1)), lo_times)
    lift = stage_action(grid, us, np.kron(np.eye(k), np.ones((n, 1))), [schedule.tau_d])
    free = stage_action(grid.collapsed(), us, np.ones((k, 1)), hi_times - schedule.tau_d)
    return ((stored.states[..., 0], lift.states[0], free.states[..., 0]),
            (stored.collocation_nodes, lift.collocation_nodes))


def _real_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Re(left @ right.T) as one real product, overwriting ``left``.

    With the real and imaginary parts interleaved along the columns,
    Re(L R^T) = [Re L | -Im L] [Re R | Im R]^T, and conj(L) viewed as
    floats is the first factor: no complex product and no copy of ``right``.
    """
    return np.conjugate(left, out=left).view(float) @ right.view(float).T


def _contour_sum(states, read_out: ReadOut, contour: LaplaceContour) -> np.ndarray:
    """K_core from the stored states (V, L, F) and their read-out, one node at a time.

    With w = weight (-1/u^2) of each upper-half node u and R_x the read-out
    rows of the states x at u, the blocks sum lo-lo += Re(w R_V V^T), lo-hi
    += Re(w (R_V L) F^T) and hi-hi += Re(w F (R_L L) F^T), each one real
    product.  The diagonal blocks are then symmetrized bit for bit and
    lo-hi is mirrored.
    """
    v, lifted, f = states
    c_lo = v.shape[0]
    k_core = np.zeros((c_lo + f.shape[0],) * 2)
    lo_lo, lo_hi, hi_hi = k_core[:c_lo, :c_lo], k_core[:c_lo, c_lo:], k_core[c_lo:, c_lo:]
    wu = contour.weights * (-1.0 / (contour.nodes * contour.nodes))
    for j, w in enumerate(wu):
        v_j, l_j, f_j = v[:, j], lifted[j], f[:, j]
        r_v = read_out.rows(v_j, j)
        r_v *= w
        lo_hi += _real_product(r_v @ l_j, f_j)
        lo_lo += _real_product(r_v, v_j)
        r_l = read_out.rows(l_j.T, j) @ l_j
        r_l *= w
        hi_hi += _real_product(f_j @ r_l, f_j)
    k_core[c_lo:, :c_lo] = lo_hi.T
    for block in (lo_lo, hi_hi):                         # x + y == y + x:
        np.multiply(block + block.T, 0.5, out=block)    # symmetric bit for bit
    return k_core


def build_transfer_kernel(
    params: PhysicalParams,
    schedule: ProtocolSchedule,
    grid: DetuningGrid,
    contour: LaplaceContour,
    out_grid: TimeGrid,
    in_grid: TimeGrid,
) -> TransferKernel:
    """Assemble the real symmetric K_E(t_i, t_j) on one time grid, as K_core and Pi.

    ``out_grid`` and ``in_grid`` must be the same grid, spanning
    [0, tau_r], and the contour must invert at t_scale = 1: the protocol's
    times enter the stage actions, not the contour.  Both detuning families
    must be mirror-symmetric: stage 4 is obtained from stage 2 by
    reflecting the controlled comb, and the symmetry makes the kernel real,
    so the contour's upper-half nodes suffice and the real part of their
    weighted sum is kept, added one node at a time (``_contour_sum``) from
    the stored states and their ``ReadOut`` rows.

    The sum runs on core nodes.  The lo side (t <= tau_d, stage 2 on
    ``grid``) and the hi side (s = t - tau_d, read-in on
    ``grid.collapsed()``) each take the smaller of their own times and the
    ``collocation_count`` Gauss-Legendre nodes of an action over their last
    time: the kernel's bandwidth in that time argument is that action's
    beta, so those nodes resolve it, and the kernel is K_core on them with
    Pi, the interpolation onto the side's times, as the kernel's
    ``interpolation``.  The count is checked against its cap before any
    interpolant is built.  A non-finite K_core raises NumericsError.
    ``diagnostics`` gives the core sizes (lo, hi) as ``core_nodes``, the
    largest |K_core| as ``max_abs``, and the seconds of the stage actions
    (the stored states and the stage-3 correction of the read-out), of the
    contour sum (with the bit symmetrization of K_core) and of building Pi.
    """
    if not (np.array_equal(out_grid.nodes, in_grid.nodes)
            and np.array_equal(out_grid.weights, in_grid.weights)):
        raise ValueError("the kernel is symmetric: out_grid and in_grid must be one grid")
    tg = in_grid
    if abs(tg.a) > _WINDOW_SLACK or abs(tg.b - schedule.tau_r) > _WINDOW_SLACK * max(1.0, schedule.tau_r):
        raise ValueError(f"the time grid must span [0, tau_r], got [{tg.a}, {tg.b}]")
    if contour.t_scale != 1.0:
        raise ValueError(f"the contour must invert at t_scale = 1, got {contour.t_scale!r}")
    if not grid.is_symmetric():
        raise ValueError("the intrinsic and controlled detuning nodes and "
                         "weights must be mirror-symmetric about zero")
    lo = tg.nodes <= schedule.tau_d
    n_lo = int(np.count_nonzero(lo))   # nodes increase: the t <= tau_d ones lead
    # Each side: its grid times, the grid its states run on, and its stage's start.
    sides = ((tg.nodes[lo], grid, 0.0), (tg.nodes[~lo], grid.collapsed(), schedule.tau_d))
    core, rules = [], []
    for times, stage, shift in sides:
        local = times - shift
        m = collocation_count(stage, contour.nodes, float(local[-1]))[0] if local.size else 0
        rule = GaussLegendre(m, float(local[-1])) if m < local.size else None
        core.append(times if rule is None else rule.nodes + shift)
        rules.append((rule, local))
    start = time.perf_counter()
    states, (states_nodes, lift_nodes) = _stored_states(grid, schedule, contour.nodes, *core)
    read_out = ReadOut(grid, contour.nodes, schedule.tau_s)
    stored = time.perf_counter()
    k_core = _contour_sum(states, read_out, contour)
    if not np.all(np.isfinite(k_core)):
        raise NumericsError("non-finite entries in the transfer kernel")
    cored = time.perf_counter()

    # Pi is block-diagonal: a side's interpolation matrix, or the identity
    # where the side keeps its times.
    c_lo = core[0].size
    pi = np.zeros((tg.size, k_core.shape[0]))
    for block, (rule, local) in zip((pi[:n_lo, :c_lo], pi[n_lo:, c_lo:]), rules):
        block[...] = np.eye(local.size) if rule is None else rule.interpolation(local)
    end = time.perf_counter()
    diagnostics = {
        "assembly": "half",
        "contour_nodes": contour.m,
        "rephasing_time": grid.rephasing_time(),
        "stage2_states_collocation_nodes": states_nodes,
        "stage2_lift_collocation_nodes": lift_nodes,
        "core_nodes": (c_lo, core[1].size),
        "max_abs": float(np.abs(k_core).max()),
        "stage_actions_s": stored - start,
        "contour_sum_s": cored - stored,
        "interpolation_s": end - cored,
    }
    return TransferKernel(grid=tg, core=k_core, interpolation=pi, diagnostics=diagnostics)


def apply_output(kernel: TransferKernel, e_in) -> np.ndarray:
    """Retrieved field on the kernel's grid for an input sampled on it.

    The input enters time reversed, E_in(tau_r - t'); on the symmetric
    quadrature grid that is an index reversal of the samples.  The field is
    Pi (K_core (Pi^T x)), with the real and imaginary parts of x as two
    real columns.
    """
    e_in = np.asarray(e_in, dtype=complex)
    if e_in.shape != kernel.grid.nodes.shape:
        raise ValueError(
            f"input has {e_in.shape} samples, grid has {kernel.grid.nodes.shape}"
        )
    x = kernel.grid.weights * e_in[::-1]
    p = kernel.interpolation
    out = p @ (kernel.core @ (p.T @ np.column_stack((x.real, x.imag))))
    return out[:, 0] + 1j * out[:, 1]


def build_efficiency_kernel(kernel: TransferKernel) -> EfficiencyKernel:
    """A = sqrt(w) K_E sqrt(w): sqrt(w)-scaled reversed input to scaled output.

    A = B K_core B^T with the basis B = sqrt(w) Pi: only Pi's rows are
    scaled.
    """
    sw = np.sqrt(kernel.grid.weights)
    return EfficiencyKernel(grid=kernel.grid, basis=sw[:, None] * kernel.interpolation,
                            core=kernel.core)
