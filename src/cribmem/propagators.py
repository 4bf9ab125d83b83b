"""Laplace-domain stage generators and the two propagation primitives.

Each protocol stage evolves the polarization vector under a generator of the
form ``-i*diag(phases) - (1/u) * ones * weights^T`` (a diagonal matrix plus a
rank-one coupling through the radiated field).  Stage 1 acts on the K
intrinsic classes, stages 2-4 on the K*N joint classes.  Two primitives
apply every stage exponential in the package:

* ``stage_eigen`` decomposes the K-dimensional stage-1 generator; a
  decomposition that cannot be trusted raises NumericsError instead of
  being patched over.  Stage 3 is applied through it by its exact block
  reduction (``stage3_rows``).
* ``stage2_action`` applies the KN-dimensional stage-2 exponential to
  blocks of vectors without forming it, for a whole batch of contour nodes
  at once: a product with the diagonal-plus-rank-one generator costs
  O(KN) per vector.  Stage 4 follows by the controlled-detuning reflection.

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

_COND_LIMIT = 1e8
_RECON_TOL = 1e-9
_PROBE_LIMIT = 256  # full reconstruction check up to this size, probes beyond
_TAYLOR_TOL = 2.0 ** -53
_TAYLOR_MAX_TERMS = 40  # beta*h <= 1 needs at most ~20; more means non-finite data


class Stage(enum.Enum):
    S1 = 1
    S2 = 2
    S3 = 3
    S4 = 4


def stage_matrix(stage: Stage, u: complex, grid: DetuningGrid) -> np.ndarray:
    """Assemble the generator of one stage at Laplace moment u."""
    if u == 0:
        raise ValueError("u = 0 is a singular Laplace moment (1/u coupling)")
    u = complex(u)
    if stage is Stage.S1:
        phases = grid.intrinsic_nodes
        weights = grid.intrinsic_weights
        scale = grid.controlled_weight_sum / u
    else:
        if stage is Stage.S2:
            phases = grid.delta_plus()
        elif stage is Stage.S4:
            phases = grid.delta_minus()
        else:
            phases = grid.delta_zero()
        weights = grid.joint_weights
        scale = 1.0 / u
    m = -1j * np.diag(phases.astype(complex))
    m -= scale * np.outer(np.ones(phases.size), weights)
    return m


@dataclass(frozen=True)
class StageEigen:
    """Eigendecomposition M = V diag(values) V^-1 of one stage generator."""

    values: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray
    cond: float


def stage_eigen(stage: Stage, u: complex, grid: DetuningGrid) -> StageEigen:
    """Eigendecomposition of ``stage_matrix(stage, u, grid)``.

    Raises NumericsError when the eigenvector matrix is singular, too ill
    conditioned, or fails to reconstruct the generator (a defective or
    nearly defective generator; never observed for symmetric detuning grids).
    """
    matrix = stage_matrix(stage, u, grid)
    n = matrix.shape[0]
    values, vectors = np.linalg.eig(matrix)
    try:
        inverse = np.linalg.solve(vectors, np.eye(n, dtype=complex))
        cond = float(np.linalg.norm(vectors, 1) * np.linalg.norm(inverse, 1))
    except np.linalg.LinAlgError:
        inverse, cond = None, math.inf
    if not (cond < _COND_LIMIT and _reconstructs(matrix, values, vectors, inverse)):
        raise NumericsError(
            f"stage-{stage.value} eigendecomposition unusable at u={complex(u)!r} "
            f"(cond={cond:.3e})"
        )
    return StageEigen(values, vectors, inverse, cond)


def _reconstructs(matrix, values, vectors, inverse) -> bool:
    n = matrix.shape[0]
    scale = np.linalg.norm(matrix)
    if scale == 0.0:
        return True
    if n <= _PROBE_LIMIT:
        resid = np.linalg.norm(vectors @ (values[:, None] * inverse) - matrix)
        return resid <= _RECON_TOL * scale
    rng = np.random.default_rng(0)
    probes = rng.standard_normal((n, 4))
    resid = np.linalg.norm(vectors @ (values[:, None] * (inverse @ probes)) - matrix @ probes)
    return resid <= _RECON_TOL * scale * np.linalg.norm(probes) / math.sqrt(n)


@dataclass(frozen=True)
class Stage2Propagation:
    """exp(M2(u) t) x at each requested time t and contour node u.

    ``states`` has shape (times, nodes, KN, m); ``substeps`` counts Taylor
    substeps and ``matvecs`` generator products, each over the whole batch.
    """

    states: np.ndarray
    substeps: int
    matvecs: int


def stage2_action(grid: DetuningGrid, us, x, times) -> Stage2Propagation:
    """exp(M2(u) t) x for a batch of contour nodes and increasing times t >= 0.

    ``x`` is a (KN, m) block shared by every node or a (nodes, KN, m) stack.
    M2(u) = -i diag(phi) - (1/u) 1 g^T is never formed.  The state is
    carried from one time to the next by truncated Taylor substeps h with
    beta*h <= 1, where beta = max|phi| + max|1/u| sum(g) bounds the max-norm
    of every generator in the batch, so the k-th term is at most 1/k! of
    the state.  Terms are added until each node's term falls below 2^-53 of
    its state's max-abs.
    """
    us = np.asarray(us, dtype=complex).ravel()
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)):
        raise ValueError("times must be a 1-d array of finite values")
    if np.any(times < 0.0) or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be non-negative and non-decreasing")
    if np.any(us == 0):
        raise ValueError("u = 0 is a singular Laplace moment (1/u coupling)")
    phi = grid.delta_plus()
    g = grid.joint_weights
    x = np.asarray(x, dtype=complex)
    if x.ndim == 2:
        x = x[None]
    if x.ndim != 3 or x.shape[1] != phi.size or x.shape[0] not in (1, us.size):
        raise ValueError(f"x must be (KN, m) or (nodes, KN, m) with KN = {phi.size}, "
                         f"got {x.shape}")
    state = np.array(np.broadcast_to(x, (us.size,) + x.shape[1:]), order="C")
    term = np.empty_like(state)
    inv_u = 1.0 / us
    beta = float(np.max(np.abs(phi))) + float(np.max(np.abs(inv_u))) * float(g.sum())
    out = np.empty((times.size,) + state.shape, dtype=complex)
    substeps = matvecs = 0
    t_now = 0.0
    for i, t in enumerate(times):
        count = math.ceil(beta * (t - t_now))
        for _ in range(count):
            matvecs += _taylor_step(state, term, phi, g, inv_u, (t - t_now) / count, us)
        substeps += count
        out[i] = state
        t_now = t
    return Stage2Propagation(out, substeps, matvecs)


def _taylor_step(state, term, phi, g, inv_u, h, us) -> int:
    """state <- exp(M2 h) state in place; returns the number of products.

    A term's 2-norm bounds its max-abs and is cheap to take per node, so
    it is the one compared; the state's max-abs is taken at the start and
    again only once every term has passed against that.
    """
    term[...] = state
    coupling = (h * inv_u)[:, None]
    limit = _TAYLOR_TOL * _max_abs(state)
    for k in range(1, _TAYLOR_MAX_TERMS + 1):
        field = coupling * (g @ term) / k           # (h/k)(1/u) g^T term
        term *= (-1j * h / k) * phi[:, None]
        term -= field[:, None, :]
        state += term
        size = _norm(term)
        if np.all(size <= limit):
            limit = _TAYLOR_TOL * _max_abs(state)
            if np.all(size <= limit):
                return k
    bad = complex(us[np.flatnonzero(~(size <= limit))[0]])
    raise NumericsError(f"stage-2 Taylor series did not converge in "
                        f"{_TAYLOR_MAX_TERMS} terms at u={bad!r} (step {h:.3e})")


def _max_abs(a: np.ndarray) -> np.ndarray:
    """Per-node max of |Re| and |Im|, within sqrt(2) of the max modulus."""
    return np.abs(a.view(float)).max(axis=(1, 2))


def _norm(a: np.ndarray) -> np.ndarray:
    """Per-node 2-norm."""
    v = a.view(float).reshape(a.shape[0], -1)
    return np.sqrt(np.einsum("ij,ij->i", v, v))


# ---------------------------------------------------------------------------
# Structured shortcuts used with the primitive: (a) the exact block
# degeneracy of the stage-3 generator and (b) the controlled-detuning
# reflection that maps stage 2 onto stage 4.


def phi1(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1)/z, stable near z = 0."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-5
    zs = z[small]
    out[small] = 1.0 + zs / 2.0 + zs * zs / 6.0
    zb = z[~small]
    out[~small] = (np.exp(zb) - 1.0) / zb
    return out


def block_reversal_permutation(grid: DetuningGrid) -> np.ndarray:
    """Joint-layout permutation Delta_k -> -Delta_k (maps stage 2 onto 4)."""
    return np.arange(grid.k * grid.n).reshape(grid.k, grid.n)[:, ::-1].ravel()


def stage3_rows(a: np.ndarray, u: complex, grid: DetuningGrid, duration: float,
                ent: StageEigen) -> np.ndarray:
    """a @ exp(M3 * duration) for rows a of shape (m, KN).

    The KN x KN exponential is never formed: the stage-3 diagonal is
    constant inside each controlled block, so the block sums close on a
    K-dimensional system (the stage-1 generator, whose decomposition
    ``ent = stage_eigen(Stage.S1, u, grid)`` is passed in).  The action is
    the free block rotation plus a rank-one correction driven by that
    reduced system.
    """
    k, n = grid.k, grid.n
    d0 = grid.intrinsic_nodes
    z = (ent.values[None, :] + 1j * d0[:, None]) * duration
    # E[j, m] = integral_0^t e^{-i d0_j (t-s)} e^{lam_m s} ds
    emat = duration * np.exp(-1j * d0[:, None] * duration) * phi1(z)
    phase = np.exp(-1j * grid.delta_zero() * duration)
    x = a.T
    v0 = x.reshape(k, n, -1).sum(axis=1)
    c = (ent.vectors.T @ v0) * (ent.inverse @ np.ones(k))[:, None]
    corr = (emat @ c) / complex(u)
    g = grid.joint_weights
    out = phase[:, None] * x - g[:, None] * np.repeat(corr, n, axis=0)
    return out.T
