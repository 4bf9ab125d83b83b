import math
import re

import numpy as np
import pytest

from cribmem.errors import NumericsError
from cribmem.model import (
    DetuningGrid,
    ProtocolSchedule,
    build_detuning_grid,
    default_schedule,
    derive_params,
)
from cribmem.oracle import FdConfig, FdResult, default_fd_config, fd_solve, resample


def rk4_reference(config: FdConfig, e_in) -> FdResult:
    """Plain RK4 on the method-of-lines system (a reference for fd_solve).

    Every sub-stage evaluates the right-hand side from scratch, with the
    field recomputed from sigma by a cumulative trapezoid.
    """
    grid, sched = config.grid, config.schedule
    k, n = grid.k, grid.n
    kn = k * n
    g = grid.joint_weights
    nz = config.nz
    dz = 1.0 / nz
    sigma = np.zeros((nz + 1, kn), dtype=complex)

    a, b = grid.intrinsic_nodes[:, None], grid.controlled_nodes[None, :]
    off = np.repeat(grid.intrinsic_nodes, n)
    stages = [
        (sched.tau_p, off, True),
        (sched.tau_d, (a + b).ravel(), True),
        (sched.tau_s, off, False),
        (sched.tau_d, (a - b).ravel(), False),
        (sched.tau_p, off, False),
    ]

    def boundary(t: float, driven: bool) -> complex:
        return complex(e_in(t)) if driven else 0.0

    def field_profile(sig: np.ndarray, t: float, driven: bool) -> np.ndarray:
        source = sig @ g
        e = np.empty(nz + 1, dtype=complex)
        e[0] = boundary(t, driven)
        e[1:] = e[0] + 1j * np.cumsum(0.5 * dz * (source[1:] + source[:-1]))
        return e

    t_glob = 0.0
    times: list[float] = []
    e_end: list[complex] = []
    in_energy = 0.0
    out_energy_all = 0.0
    peak_in = 0.0
    retrieval_start = sched.tau_p + sched.tau_d + sched.tau_s

    for duration, phases, driven in stages:
        if duration <= 0.0:
            continue
        steps = max(1, math.ceil(duration / config.dt))
        h = duration / steps
        for _ in range(steps):
            def rhs(sig, t):
                e = field_profile(sig, t, driven)
                return -1j * phases[None, :] * sig + 1j * e[:, None]

            k1 = rhs(sigma, t_glob)
            k2 = rhs(sigma + 0.5 * h * k1, t_glob + 0.5 * h)
            k3 = rhs(sigma + 0.5 * h * k2, t_glob + 0.5 * h)
            k4 = rhs(sigma + h * k3, t_glob + h)
            sigma = sigma + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_glob += h
            e1 = field_profile(sigma, t_glob, driven)[-1]
            times.append(t_glob)
            e_end.append(e1)
            e0 = boundary(t_glob, driven)
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


def j0_series(x: float) -> float:
    total, term = 1.0, 1.0
    for m in range(1, 80):
        term *= -(x * x / 4.0) / (m * m)
        total += term
    return total


def test_config_validation():
    grid = build_detuning_grid(0.25, 3.0, 5, 5)
    sched = default_schedule(derive_params(10.0, 3.0))
    with pytest.raises(ValueError):
        FdConfig(nz=16, dt=0.001, grid=grid, schedule=sched)
    with pytest.raises(ValueError):
        FdConfig(nz=64, dt=1.0, grid=grid, schedule=sched)  # too coarse for phases
    cfg = default_fd_config(grid, sched)
    assert cfg.dt <= 0.5 / cfg.max_phase()


def test_zero_input_gives_zero_output():
    grid = build_detuning_grid(0.25, 3.0, 3, 3)
    sched = default_schedule(derive_params(10.0, 3.0))
    res = fd_solve(default_fd_config(grid, sched, nz=32), lambda t: 0.0)
    assert np.all(res.e_out == 0.0)
    assert np.all(res.p_final == 0.0)
    assert res.energy["input"] == 0.0


def test_single_class_polarization_follows_bessel_convolution():
    # Stage-1 dynamics of the single resonant class: the polarization at the
    # far end follows P(1, t) = i * integral J0(2 sqrt(s)) E_in(t - s) ds.
    grid = build_detuning_grid(0.1, 0.0, k=1, n=1)
    sched = ProtocolSchedule(tau_p=5.0, tau_d=1e-9, tau_s=1e-9)
    t_c, t_w = 0.25, 0.05
    def e_in(t):
        return math.exp(-((t - t_c) ** 2) / (4.0 * t_w * t_w)) if t <= sched.tau_r else 0.0

    # The final snapshot sits at the end of stage 5, i.e. at an elapsed
    # time of 2 tau_p (the middle stages last 1e-9); with zero detuning the
    # convolution law holds across all stages.
    for tau_p in (0.5, 1.0, 2.5):
        sched_t = ProtocolSchedule(tau_p=tau_p, tau_d=1e-9, tau_s=1e-9)
        cfg_t = FdConfig(nz=192, dt=0.002, grid=grid, schedule=sched_t)
        res = fd_solve(cfg_t, lambda t: e_in(t) if t <= sched_t.tau_r else 0.0)
        got = res.p_final[-1, 0]
        t_snap = 2.0 * tau_p
        s = np.linspace(0.0, t_snap, 4001)
        kernel = np.array([j0_series(2.0 * math.sqrt(si)) for si in s])
        drive = np.array([e_in(t_snap - si) if t_snap - si <= sched_t.tau_r else 0.0
                          for si in s])
        want = 1j * np.trapezoid(kernel * drive, s)
        assert abs(got - want) <= 0.01 * max(abs(want), 0.05)


def test_self_convergence():
    d0, gamma_rel = 10.0, 3.0
    params = derive_params(d0, gamma_rel)
    sched = default_schedule(params)
    grid = build_detuning_grid(params.gamma0_rel, gamma_rel, 5, 5)
    t_c, t_w = 0.8 * sched.tau_p, sched.tau_p / 3.0

    def e_in(t):
        return math.exp(-((t - t_c) ** 2) / (4.0 * t_w * t_w)) if t <= sched.tau_r else 0.0

    coarse = fd_solve(FdConfig(nz=96, dt=0.008, grid=grid, schedule=sched), e_in)
    fine = fd_solve(FdConfig(nz=192, dt=0.004, grid=grid, schedule=sched), e_in)
    probe = np.linspace(0.01, sched.tau_r - 0.01, 200)
    a = resample(coarse, probe)
    b = resample(fine, probe)
    rel = np.linalg.norm(a - b) / np.linalg.norm(b)
    assert rel < 0.005


def test_energy_passivity():
    # Conservation: field flux out minus flux in balances stored excitation
    # up to discretization error.
    d0, gamma_rel = 10.0, 3.0
    params = derive_params(d0, gamma_rel)
    sched = default_schedule(params)
    grid = build_detuning_grid(params.gamma0_rel, gamma_rel, 5, 5)
    t_c, t_w = 0.8 * sched.tau_p, sched.tau_p / 3.0

    def e_in(t):
        return math.exp(-((t - t_c) ** 2) / (4.0 * t_w * t_w)) if t <= sched.tau_r else 0.0

    res = fd_solve(FdConfig(nz=128, dt=0.004, grid=grid, schedule=sched), e_in)
    budget = res.energy
    total_out = budget["transmitted_total"] + budget["stored_final"]
    assert total_out <= budget["input"] * 1.01
    assert total_out >= budget["input"] * 0.99


@pytest.mark.parametrize("nz", [64.5, 40.0, True, "64", 31, np.int64(31)])
def test_config_requires_an_integral_cell_count(nz):
    # A float nz used to pass and fail later in fd_solve with a TypeError.
    grid = build_detuning_grid(0.25, 3.0, 5, 5)
    sched = default_schedule(derive_params(10.0, 3.0))
    with pytest.raises(ValueError, match="integer nz"):
        FdConfig(nz=nz, dt=0.001, grid=grid, schedule=sched)
    assert FdConfig(nz=np.int64(32), dt=0.001, grid=grid, schedule=sched).nz == 32


def test_dt_bound_covers_every_stage():
    # Stage 4 rotates at Delta0 - Delta, up to |5 - (-3)| = 8 here, while
    # stage 2's Delta0 + Delta peaks at 6.
    grid = DetuningGrid(intrinsic_nodes=[0.0, 5.0], intrinsic_weights=[0.5, 0.5],
                        controlled_nodes=[-3.0, 1.0], controlled_weights=[0.5, 0.5])
    sched = ProtocolSchedule(tau_p=1.0, tau_d=1.0, tau_s=1.0)
    with pytest.raises(ValueError):
        FdConfig(nz=32, dt=0.5 / 6.0, grid=grid, schedule=sched)
    cfg = default_fd_config(grid, sched, nz=32)
    assert cfg.max_phase() == 8.0
    assert cfg.dt <= 0.5 / 8.0


def _relative_max_abs(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("case", ["criterion5_gamma3", "bessel_k1n1"])
def test_fd_solve_matches_plain_rk4(case):
    if case == "criterion5_gamma3":
        params = derive_params(10.0, 3.0)
        sched = default_schedule(params)
        grid = build_detuning_grid(params.gamma0_rel, 3.0, 5, 5)
        t_c, t_w = sched.tau_p, sched.tau_p / 3.0
        config = FdConfig(nz=64, dt=0.008, grid=grid, schedule=sched)
    else:
        grid = build_detuning_grid(0.1, 0.0, k=1, n=1)
        sched = ProtocolSchedule(tau_p=1.0, tau_d=1e-9, tau_s=1e-9)
        t_c, t_w = 0.25, 0.05
        config = FdConfig(nz=192, dt=0.002, grid=grid, schedule=sched)

    def e_in(t):
        return math.exp(-((t - t_c) ** 2) / (4.0 * t_w * t_w)) if t <= sched.tau_r else 0.0

    if case == "criterion5_gamma3":
        # Half the pulse arrives while stage 2 broadens the line.
        assert e_in(sched.tau_p + 2.0 * t_w) > 0.1
    got = fd_solve(config, e_in)
    want = rk4_reference(config, e_in)
    np.testing.assert_array_equal(got.end_times, want.end_times)
    assert _relative_max_abs(got.e_end, want.e_end) <= 1e-12
    assert _relative_max_abs(got.p_final, want.p_final) <= 1e-12
    for name, value in want.energy.items():
        assert abs(got.energy[name] - value) <= 1e-12 * abs(value), name


def test_nan_drive_raises_with_the_time():
    grid = build_detuning_grid(0.25, 3.0, 3, 3)
    sched = default_schedule(derive_params(10.0, 3.0))
    t_bad, dt = 0.3, 0.002

    def e_in(t):
        return math.nan if t >= t_bad else math.exp(-((t - 0.2) ** 2) / 0.01)

    with pytest.raises(NumericsError) as info:
        fd_solve(FdConfig(nz=32, dt=dt, grid=grid, schedule=sched), e_in)
    when = re.search(r"t=([0-9.]+)", str(info.value))
    assert when is not None, str(info.value)
    assert t_bad - 1e-4 <= float(when.group(1)) <= t_bad + dt + 1e-4
