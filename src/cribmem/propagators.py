"""Laplace-domain stage generators and the one stage-propagation primitive.

Each protocol stage evolves the polarization vector under a generator of the
form ``-i*diag(phases) - (1/u) * ones * weights^T`` (a diagonal matrix plus a
rank-one coupling through the radiated field).  Stage 1 acts on the K
intrinsic classes, stages 2-4 on the K*N joint classes.  ``stage_action``
applies the exponential of any stage to blocks of vectors without forming
it, for a whole batch of contour nodes at once: a product with the
diagonal-plus-rank-one generator costs O(dimension) per vector, and each
Taylor step has a degree fixed in advance by a norm bound.  Stage 3 is
reduced exactly onto the stage-1 action (``stage3_correction``), and stage
4 follows from stage 2 by the controlled-detuning reflection wherever both
are needed.  Nothing is decomposed.

The stage-1 rank-one term carries the sum of the controlled Riemann weights,
which equals one only in the continuum limit: with it, the K-dimensional
stage-1/5 equations are the exact block reduction of the joint-class system
at any grid resolution, so the kernel pipeline and a direct discrete solver
agree to solver accuracy even on coarse grids.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from cribmem.errors import NumericsError
from cribmem.model import DetuningGrid

_TAYLOR_TOL = 2.0 ** -53 / math.e


class Stage(enum.Enum):
    S1 = 1
    S2 = 2
    S3 = 3
    S4 = 4


def _generator_terms(stage: Stage, grid: DetuningGrid) -> tuple[np.ndarray, np.ndarray]:
    """(phases, weights) of M = -i diag(phases) - (1/u) 1 weights^T."""
    if stage is Stage.S1:
        return grid.intrinsic_nodes, grid.controlled_weight_sum * grid.intrinsic_weights
    if stage is Stage.S2:
        phases = grid.delta_plus()
    elif stage is Stage.S4:
        phases = grid.delta_minus()
    else:
        phases = grid.delta_zero()
    return phases, grid.joint_weights


def stage_matrix(stage: Stage, u: complex, grid: DetuningGrid) -> np.ndarray:
    """Assemble the generator of one stage at Laplace moment u (a dense reference)."""
    if u == 0:
        raise ValueError("u = 0 is a singular Laplace moment (1/u coupling)")
    phases, weights = _generator_terms(stage, grid)
    m = -1j * np.diag(phases.astype(complex))
    m -= (1.0 / complex(u)) * np.outer(np.ones(phases.size), weights)
    return m


@dataclass(frozen=True)
class StagePropagation:
    """exp(M(u) t) x at each requested time t and contour node u.

    ``states`` has shape (times, nodes, dimension, m); ``substeps`` counts
    Taylor substeps and ``matvecs`` generator products, each over the whole
    batch.
    """

    states: np.ndarray
    substeps: int
    matvecs: int


def stage_action(stage: Stage, grid: DetuningGrid, us, x, times) -> StagePropagation:
    """exp(M(u) t) x for one stage, a batch of contour nodes and increasing t >= 0.

    ``x`` is a (dimension, m) block shared by every node or a
    (nodes, dimension, m) stack.  M(u) = -i diag(phi) - (1/u) 1 w^T is never
    formed.  The state is carried from one time to the next by truncated
    Taylor substeps h with beta*h <= 1, where beta = max|phi| + max|1/u| sum(w)
    bounds the max-norm of every generator in the batch.  The k-th term is
    then at most (beta h)^k / k! of the state at the step's start, and the
    state after the step at least e^-1 of it, so each step adds the m terms
    of the smallest m with (beta h)^m / m! <= 2^-53 / e: its last term is
    below 2^-53 of the state.  A non-finite result raises NumericsError.
    """
    us = np.asarray(us, dtype=complex).ravel()
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a 1-d array of finite values")
    if np.any(times < 0.0) or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be non-negative and non-decreasing")
    if np.any(us == 0):
        raise ValueError("u = 0 is a singular Laplace moment (1/u coupling)")
    phi, w = _generator_terms(stage, grid)
    x = np.asarray(x, dtype=complex)
    if x.ndim == 2:
        x = x[None]
    if x.ndim != 3 or x.shape[1] != phi.size or x.shape[0] not in (1, us.size):
        raise ValueError(f"x must be (dim, m) or (nodes, dim, m) with dim = {phi.size}, "
                         f"got {x.shape}")
    state = np.array(np.broadcast_to(x, (us.size,) + x.shape[1:]), order="C")
    term = np.empty_like(state)
    inv_u = 1.0 / us
    beta = float(np.max(np.abs(phi))) + float(np.max(np.abs(inv_u))) * float(w.sum())
    out = np.empty((times.size,) + state.shape, dtype=complex)
    substeps = matvecs = 0
    t_now = 0.0
    for i, t in enumerate(times):
        count = math.ceil(beta * (t - t_now))
        h = (t - t_now) / max(count, 1)
        degree = _taylor_degree(beta * h)
        for _ in range(count):
            _taylor_step(state, term, phi, w, inv_u, h, degree)
        substeps += count
        matvecs += count * degree
        out[i] = state
        t_now = t
    # A non-finite entry stays non-finite under the in-place additions of
    # every later step, so the final state shows any an output holds.
    bad = ~np.isfinite(state).all(axis=(1, 2))
    if bad.any():
        raise NumericsError(f"stage-{stage.value} action gave non-finite values at "
                            f"u={complex(us[np.flatnonzero(bad)[0]])!r}")
    return StagePropagation(out, substeps, matvecs)


def _taylor_degree(beta_h: float) -> int:
    """Smallest m with beta_h^m / m! <= 2^-53 / e (19 at beta_h = 1)."""
    m, bound = 1, beta_h
    while bound > _TAYLOR_TOL:
        m += 1
        bound *= beta_h / m
    return m


def _taylor_step(state, term, phi, w, inv_u, h, degree) -> None:
    """state <- exp(M h) state in place, by the Taylor polynomial of ``degree``."""
    term[...] = state
    coupling = (h * inv_u)[:, None]
    for k in range(1, degree + 1):
        field = coupling * (w @ term) / k           # (h/k)(1/u) w^T term
        term *= (-1j * h / k) * phi[:, None]
        term -= field[:, None, :]
        state += term


# ---------------------------------------------------------------------------
# Structured shortcuts used with the primitive: (a) the exact block
# degeneracy of the stage-3 generator and (b) the controlled-detuning
# reflection that maps stage 2 onto stage 4.


def block_sums(grid: DetuningGrid, x: np.ndarray) -> np.ndarray:
    """Controlled-weighted block sums y_j = sum_k gc_k x_jk.

    ``x`` has the joint layout on its second-to-last axis, (..., KN, m);
    the result is (..., K, m).
    """
    shape = x.shape[:-2] + (grid.k, grid.n, x.shape[-1])
    return np.einsum("...jkm,k->...jm", x.reshape(shape), grid.controlled_weights)


def stage3_correction(grid: DetuningGrid, us, y0, duration: float) -> np.ndarray:
    """Block correction C of the stage-3 exponential, for a batch of nodes.

    The stage-3 diagonal is constant inside each controlled block, so the
    block sums Y0 = ``block_sums(grid, X)`` of stored columns X close on the
    K-dimensional stage-1 system, and

        exp(M3 t) X = e^{-i Delta0 t} o X - repeat_N(C),
        C = (e^{-i Delta0 t} o Y0 - exp(M1 t) Y0) / sum(gc).

    ``y0`` is a (K, m) block or a (nodes, K, m) stack; C is (nodes, K, m).
    The stored columns outnumber the K classes, so the stage-1 action runs
    on the K x K identity and its result multiplies Y0.
    """
    phase = np.exp(-1j * grid.intrinsic_nodes * duration)[:, None]
    e1 = stage_action(Stage.S1, grid, us, np.eye(grid.k), [duration]).states[0]
    return (phase * y0 - e1 @ y0) / grid.controlled_weight_sum


def block_reversal_permutation(grid: DetuningGrid) -> np.ndarray:
    """Joint-layout permutation Delta_k -> -Delta_k (maps stage 2 onto 4)."""
    return np.arange(grid.k * grid.n).reshape(grid.k, grid.n)[:, ::-1].ravel()
