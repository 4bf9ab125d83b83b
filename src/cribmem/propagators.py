"""Laplace-domain stage generators and their eigendecompositions.

Each protocol stage evolves the polarization vector under a generator of the
form ``-i*diag(phases) - (1/u) * ones * weights^T`` (a diagonal matrix plus a
rank-one coupling through the radiated field).  Stage 1 acts on the K
intrinsic classes, stages 2-4 on the K*N joint classes.  ``stage_eigen`` is
the one propagation primitive: every stage exponential in the package is
applied through the decomposition it returns, and a decomposition that
cannot be trusted raises NumericsError instead of being patched over.

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
