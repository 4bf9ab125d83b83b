import math

import numpy as np
import pytest

from cribmem.model import ProtocolSchedule, build_detuning_grid, default_schedule, derive_params
from cribmem.oracle import FdConfig, default_fd_config, fd_solve, resample


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
