"""Independent time-domain solver of the coupled field/polarization equations.

In the co-moving frame the field equation has no time derivative: at every
instant E(z) follows from spatial integration of the polarization source,

    dE/dz = i sum_jk g_jk sigma_jk(z),      E(0, t) = E_in(t),
    d sigma_jk / dt = -i phi_jk sigma_jk + i E(z, t),

with the per-class phase phi switching between Delta0, Delta0 +- Delta and
Delta0 across the five stages: the phases of the detuning grid with its
controlled field off (``controlled_by(0)``), on (the grid itself) and
reversed (``controlled_by(-1)``).  Time stepping is classical RK4 on the
method-of-lines system and space is a cumulative trapezoid.  The right-hand
side is linear, so each step is composed in closed form: every RK4 stage
input is p_i*sigma + sum_j E_j q_ij, with E_j the field at stage j and
p_i, q_ij per-class polynomials in h*phi, tabulated once per protocol stage.
A step then takes one product of sigma with those tables (the field sources
of all four stages and of the new state), one cumulative trapezoid per RK4
stage for E_1..E_4, and the update sigma <- r*sigma + E q; E(z=1) at the
new time follows from the tables without a second pass over sigma.  This
shares no code with the Laplace-domain kernel pipeline and exists to
validate it on small instances.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from cribmem.errors import NumericsError
from cribmem.model import DetuningGrid, ProtocolSchedule


@dataclass(frozen=True)
class FdConfig:
    nz: int
    dt: float
    grid: DetuningGrid
    schedule: ProtocolSchedule

    def __post_init__(self):
        nz = self.nz
        if isinstance(nz, bool) or not isinstance(nz, numbers.Integral) or nz < 32:
            raise ValueError(f"need an integer nz >= 32 spatial cells, got {nz!r}")
        limit = 0.5 / max(self.max_phase(), 1e-30)
        if not (0.0 < self.dt <= limit):
            raise ValueError(
                f"dt={self.dt!r} must lie in (0, {limit!r}] to resolve the "
                "fastest phase rotation"
            )

    def max_phase(self) -> float:
        return _max_phase(self.grid, self.schedule)


def _stages(grid: DetuningGrid, sched: ProtocolSchedule) -> list:
    """(duration, phase vector, driven) of each of the five protocol stages."""
    off = grid.controlled_by(0).phases
    return [
        (sched.tau_p, off, True),
        (sched.tau_d, grid.phases, True),
        (sched.tau_s, off, False),
        (sched.tau_d, grid.controlled_by(-1).phases, False),
        (sched.tau_p, off, False),
    ]


def _max_phase(grid: DetuningGrid, sched: ProtocolSchedule) -> float:
    """Fastest phase rotation of any stage."""
    return max(float(np.max(np.abs(phases))) for _, phases, _ in _stages(grid, sched))


def default_fd_config(grid: DetuningGrid, schedule: ProtocolSchedule,
                      nz: int = 128, safety: float = 0.2) -> FdConfig:
    dt = safety * 0.5 / max(_max_phase(grid, schedule), 1.0)
    dt = min(dt, schedule.tau_p / 50.0, 0.02)
    return FdConfig(nz=nz, dt=dt, grid=grid, schedule=schedule)


@dataclass(frozen=True)
class FdResult:
    """Solver output.

    out_times/e_out cover the retrieval window (stages 4 and 5) with the
    clock reset to zero at the start of stage 4, matching the transfer
    kernel's output convention.  end_times/e_end hold E(z=1, t) for the whole
    run in global time; p_final is the polarization snapshot P(z, Delta0)
    (controlled classes summed with their weights) at the final time.
    """

    out_times: np.ndarray
    e_out: np.ndarray
    p_final: np.ndarray
    end_times: np.ndarray
    e_end: np.ndarray
    energy: dict = field(default_factory=dict)


# Classical RK4: stage times as fractions of the step, and the weights of
# the four slopes in the update.
_RK4_NODES = (0.0, 0.5, 0.5, 1.0)
_RK4_WEIGHTS = (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0)


def _step_tables(h: float, phases: np.ndarray, g: np.ndarray, dz: float):
    """One RK4 step of ``sigma' = a*sigma + i E 1^T`` in closed form.

    With a = -i phases, every stage input is ``p_i*sigma + sum_j E_j q_ij``
    and the step's result is ``r*sigma + E q``, where E_j is the field at
    stage j and p_i, q_ij, r, q are per-class polynomials in h*a.  They are
    found by running the RK4 tableau on the coefficients themselves: row 0
    holds the coefficient of sigma, row 1 + j that of E_j.

    Returns ``(gw, c, r, q, qg)``, with the field source sigma @ g scaled by
    the trapezoid's i dz / 2: gw = [p_i g | r g] (KN x 5), so that
    sigma @ gw[:, i] is stage i's source from sigma; c[i, j] = q_ij . g,
    the source carried by E_j; and qg = q @ g, the source of the new state
    carried by E.
    """
    a = -1j * phases
    start = np.zeros((5, phases.size), dtype=complex)
    start[0] = 1.0
    inputs, new = [start], start.copy()
    for i, weight in enumerate(_RK4_WEIGHTS):
        slope = a * inputs[i]
        slope[1 + i] += 1j
        new += (h * weight) * slope
        if i < 3:
            inputs.append(start + (h * _RK4_NODES[i + 1]) * slope)
    scale = 0.5j * dz
    gw = scale * np.stack([coef[0] * g for coef in inputs] + [new[0] * g], axis=1)
    c = scale * np.array([coef[1:] @ g for coef in inputs])
    return gw, c, new[0], new[1:], scale * (new[1:] @ g)


def fd_solve(config: FdConfig, e_in) -> FdResult:
    grid, sched = config.grid, config.schedule
    k, n = grid.k, grid.n
    kn = k * n
    g = grid.joint_weights
    nz = config.nz
    dz = 1.0 / nz
    sigma = np.zeros((nz + 1, kn), dtype=complex)
    fields = np.empty((4, nz + 1), dtype=complex)
    increments = np.empty(nz + 1, dtype=complex)
    # E(1) = E(0) + i dz/2 * (trapezoid weights 1, 2, ..., 2, 1) . source
    end_weights = np.full(nz + 1, 2.0)
    end_weights[[0, -1]] = 1.0

    def boundary(t: float, driven: bool) -> complex:
        return complex(e_in(t)) if driven else 0.0

    t_glob = 0.0
    times: list[float] = []
    e_end: list[complex] = []
    in_energy = 0.0
    out_energy_all = 0.0
    peak_in = 0.0
    retrieval_start = sched.tau_p + sched.tau_d + sched.tau_s

    for duration, phases, driven in _stages(grid, sched):
        if duration <= 0.0:
            continue
        steps = max(1, math.ceil(duration / config.dt))
        h = duration / steps
        gw, c, r, q, qg = _step_tables(h, phases, g, dz)
        for _ in range(steps):
            # Row i: stage i's source from sigma; row 4: the new state's.
            source = gw.T @ sigma.T
            for i, node in enumerate(_RK4_NODES):
                e0 = boundary(t_glob + node * h, driven)
                s = source[i] + c[i, :i] @ fields[:i]
                # E_i is E_i(0) plus the running trapezoid sum of s.
                increments[0] = e0
                np.add(s[1:], s[:-1], out=increments[1:])
                np.cumsum(increments, out=fields[i])
            sigma *= r
            sigma += fields.T @ q
            t_glob += h
            e1 = e0 + end_weights @ (source[4] + qg @ fields)
            times.append(t_glob)
            e_end.append(e1)
            in_energy += h * abs(e0) ** 2
            out_energy_all += h * abs(e1) ** 2
            peak_in = max(peak_in, abs(e0))
            # The system is passive: far-end amplitudes beyond ~10x the peak
            # drive mean the explicit stepping went unstable.
            if abs(e1) > 10.0 * peak_in + 1e-12 or not math.isfinite(abs(e1)):
                raise NumericsError(
                    f"field amplitude blew up at t={t_glob:.4f} "
                    f"(|E(1)| = {abs(e1):.3e}, peak drive {peak_in:.3e})"
                )

    times_arr = np.asarray(times)
    e_end_arr = np.asarray(e_end)
    sel = times_arr >= retrieval_start - 1e-12
    # Excitation left in the atoms, in the norm conserved by the dynamics.
    stored = float(np.trapezoid((np.abs(sigma) ** 2) @ g, dx=dz))
    p_final = np.einsum("zjn,n->zj", sigma.reshape(nz + 1, k, n),
                        grid.controlled_weights)
    return FdResult(
        out_times=times_arr[sel] - retrieval_start,
        e_out=e_end_arr[sel],
        p_final=p_final,
        end_times=times_arr,
        e_end=e_end_arr,
        energy={
            "input": in_energy,
            "transmitted_total": out_energy_all,
            "stored_final": stored,
        },
    )


def resample(result: FdResult, out_nodes: np.ndarray) -> np.ndarray:
    """Linear resampling of the retrieved field onto arbitrary nodes."""
    re = np.interp(out_nodes, result.out_times, result.e_out.real)
    im = np.interp(out_nodes, result.out_times, result.e_out.imag)
    return re + 1j * im
