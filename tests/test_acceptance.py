"""Acceptance suite: every criterion at its stated tolerance.

Criterion 3's sweep (d0 in {25, 50, 100} x gamma in {0.5, 1, 2, 3, 10},
K = N = 33, 32 contour nodes, 129 time nodes) is computed once in a shared
fixture and reused by criteria 2-4.  Each test prints one PASS/FAIL line;
a failing line is followed by the assertion carrying the same numbers.
"""

import math
import os
import time

import numpy as np
import pytest

from cribmem.analytic import (
    Profile,
    broadening_stage_efficiency_numeric,
    dephasing_envelope,
    perturbative_efficiency,
    polarization_decay,
    transmission_spectrum,
)
from cribmem.kernels import apply_output, build_efficiency_kernel, build_transfer_kernel
from cribmem.laplace import invert, talbot_contour
from cribmem.model import build_detuning_grid, default_schedule, derive_params
from cribmem.modes import gaussian_mode
from cribmem.oracle import FdConfig, fd_solve, resample
from cribmem.propagators import stage_action
from cribmem.quadrature import tanh_sinh_grid
from cribmem.sweeps import GridSettings, run_points

D0_LIST = (25.0, 50.0, 100.0)
GAMMA_LIST = (0.5, 1.0, 2.0, 3.0, 10.0)
SETTINGS = GridSettings(k=33, n=33, extent_sigmas=5.0, quad_level=6,
                        contour_nodes=32)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def sweep():
    points = [(d0, g) for d0 in D0_LIST for g in GAMMA_LIST]
    threads = min(2, os.cpu_count() or 1)
    t0 = time.perf_counter()
    rows = run_points(points, SETTINGS, threads=threads,
                      include_gaussian=True, include_mode=True)
    elapsed = time.perf_counter() - t0
    table = {(r["d0"], r["gamma_rel"]): r for r in rows}
    print(f"[sweep: {len(points)} points in {elapsed:.0f}s "
          f"on {threads} workers]")
    return {"table": table, "elapsed": elapsed, "threads": threads}


def test_criterion_1_perturbative_agreement():
    flat = Profile.flat()
    closed_inf = perturbative_efficiency(flat, 10.0, math.inf)
    exact = 1.0 - math.sqrt(math.pi) / 10.0
    legs = []
    for tau_d in (1.0, 2.0):
        for gamma in (5.0, 7.0, 10.0):
            closed = perturbative_efficiency(flat, gamma, tau_d)
            numeric = broadening_stage_efficiency_numeric(flat, gamma, tau_d)
            gap = abs(numeric - closed)
            legs.append((gamma, tau_d, closed, numeric, gap))
            print(f"  gamma={gamma:4.1f} tau_d={tau_d}: closed={closed:.4f} "
                  f"numeric={numeric:.4f} gap={gap:.4f} "
                  f"{'ok' if gap <= 0.05 else 'EXCEEDS 0.05'}")
    ok_closed = abs(closed_inf - exact) <= 1e-10
    ok_gaps = all(gap <= 0.05 for *_, gap in legs)
    report("criterion 1 (perturbative agreement)", ok_closed and ok_gaps,
           f"closed-form |err|={abs(closed_inf - exact):.1e}, "
           f"max gap={max(gap for *_, gap in legs):.4f} (tolerance 0.05)")
    assert ok_closed
    for gamma, tau_d, closed, numeric, gap in legs:
        # The gamma = 5 legs exceed the stated tolerance: the first-order
        # formula omits the quadratic term a2 c^2 (c = sqrt(pi)/5; a2 ~ 0.589
        # fitted to the numeric over gamma = 7-50, not derived, so about
        # 0.074 here) and the true gap, cross-validated by two independent
        # solvers, is 0.0646.  See the decisions ledger.
        assert gap <= 0.05, (
            f"gamma={gamma}, tau_d={tau_d}: |{numeric:.4f} - {closed:.4f}| "
            f"= {gap:.4f} > 0.05")


def test_criterion_2_decoherence_bound(sweep):
    bound = math.exp(-0.25) + 0.01
    worst = max(r["eta_max"] for r in sweep["table"].values())
    ok = worst <= bound
    report("criterion 2 (decoherence bound)", ok,
           f"max eta={worst:.4f} <= exp(-1/4)+0.01={bound:.4f}")
    assert ok


def test_criterion_3_efficiency_trends(sweep):
    table = sweep["table"]
    failures = []
    # (a) eta non-decreasing in gamma up to 3 mu, 0.01 tolerance per step
    for d0 in D0_LIST:
        etas = [table[(d0, g)]["eta_max"] for g in GAMMA_LIST if g <= 3.0]
        for lo, hi in zip(etas, etas[1:]):
            if hi < lo - 0.01:
                failures.append(f"(a) d0={d0}: {hi:.4f} < {lo:.4f} - 0.01")
    # (b) saturation by gamma = 3 mu
    for d0 in D0_LIST:
        e3, e10 = table[(d0, 3.0)]["eta_max"], table[(d0, 10.0)]["eta_max"]
        if e3 < 0.95 * e10:
            failures.append(f"(b) d0={d0}: eta(3)={e3:.4f} < 0.95*eta(10)={0.95*e10:.4f}")
    # (c) eta(gamma=10) strictly increasing with d0
    e10s = [table[(d0, 10.0)]["eta_max"] for d0 in D0_LIST]
    if not all(b > a for a, b in zip(e10s, e10s[1:])):
        failures.append(f"(c) eta(10) not increasing with d0: {e10s}")
    # (d) surpass the static-broadening two-level bound
    eta_best = table[(100.0, 10.0)]["eta_max"]
    if not eta_best > 0.42:
        failures.append(f"(d) eta(d0=100, gamma=10)={eta_best:.4f} <= 0.42")
    for d0 in D0_LIST:
        print(f"  d0={d0:5.0f}: " + " ".join(
            f"eta({g})={table[(d0, g)]['eta_max']:.4f}" for g in GAMMA_LIST))
    print(f"  sweep runtime {sweep['elapsed']:.0f}s on {sweep['threads']} "
          "workers (target: 900s on 4 cores)")
    ok = not failures
    report("criterion 3 (efficiency trends at desk scale)", ok,
           f"eta(100,10)={eta_best:.4f}; " + ("; ".join(failures) or "all trends hold"))
    assert ok, failures


def test_criterion_4_gaussian_modes(sweep):
    table = sweep["table"]
    failures = []
    for (d0, g), row in table.items():
        if row["eta_gauss"] > row["eta_max"] + 1e-9:
            failures.append(f"gaussian above optimal at (d0={d0}, gamma={g})")
    row = table[(100.0, 10.0)]
    params = derive_params(100.0, 10.0)
    tau_p = default_schedule(params).tau_p
    t_c = row["t_c_opt"]
    if not t_c <= tau_p + 1.0:
        failures.append(f"t_c={t_c:.3f} > tau_p+1={tau_p + 1.0:.3f}")
    # qualitative saturation/decline of the best Gaussian past 3 mu
    eg3, eg10 = table[(100.0, 3.0)]["eta_gauss"], table[(100.0, 10.0)]["eta_gauss"]
    if not eg10 <= eg3 + 0.02:
        failures.append(f"eta_gauss(10)={eg10:.4f} > eta_gauss(3)+0.02={eg3 + 0.02:.4f}")
    print(f"  d0=100: t_c*={t_c:.3f} (tau_p={tau_p:.3f}), "
          f"eta_gauss(3)={eg3:.4f}, eta_gauss(10)={eg10:.4f}")
    ok = not failures
    report("criterion 4 (gaussian modes)", ok, "; ".join(failures) or
           f"gaussian <= optimal everywhere; t_c*={t_c:.2f} <= tau_p+1")
    assert ok, failures


def test_optimal_mode_shape_drops_after_broadening(sweep):
    # Past tau_p the optimal mode collapses on the 1/gamma dephasing scale:
    # from its maximum at tau_p to ~0.18 of it two dephasing times later
    # (value converged at 513 time nodes) and under 0.05 after three.
    row = sweep["table"][(100.0, 10.0)]
    params = derive_params(100.0, 10.0)
    sched = default_schedule(params)
    times, mode = row["mode_times"], np.abs(row["mode"])
    peak = float(np.max(mode))
    at2 = float(np.interp(sched.tau_p + 2.0 / 10.0, times, mode)) / peak
    at3 = float(np.interp(sched.tau_p + 3.0 / 10.0, times, mode)) / peak
    ok = at2 < 0.25 and at3 < 0.05
    report("modes shape (optimal mode drop past tau_p)", ok,
           f"|mode|/max = {at2:.3f} at tau_p+2/gamma (<0.25), "
           f"{at3:.3f} at tau_p+3/gamma (<0.05)")
    assert ok, (at2, at3)


def test_criterion_5_oracle_equivalence():
    d0 = 10.0
    rels = {}
    for gamma in (1.0, 3.0):
        params = derive_params(d0, gamma)
        sched = default_schedule(params)
        grid = build_detuning_grid(params.gamma0_rel, gamma, 5, 5)
        tg = tanh_sinh_grid(0.0, sched.tau_r, 6)
        kern = build_transfer_kernel(params, sched, grid,
                                     talbot_contour(32, 1.0), tg, tg)
        t_c, t_w = 0.8 * sched.tau_p, sched.tau_p / 3.0
        e_samp = gaussian_mode(tg, t_c, t_w)
        e_out_kernel = apply_output(kern, e_samp)

        norm = math.sqrt(float(np.sum(
            tg.weights * np.abs(np.exp(-((tg.nodes - t_c) ** 2)
                                       / (4.0 * t_w * t_w))) ** 2)))

        def e_in(t):
            if 0.0 <= t <= sched.tau_r:
                return math.exp(-((t - t_c) ** 2) / (4.0 * t_w * t_w)) / norm
            return 0.0

        res = fd_solve(FdConfig(nz=192, dt=0.004, grid=grid, schedule=sched), e_in)
        e_out_fd = resample(res, tg.nodes)
        rel = math.sqrt(float(np.sum(tg.weights * np.abs(e_out_fd - e_out_kernel) ** 2)
                              / np.sum(tg.weights * np.abs(e_out_fd) ** 2)))
        rels[gamma] = rel
        print(f"  gamma={gamma}: relative L2 difference {rel:.4f}")
    ok = all(r <= 0.02 for r in rels.values())
    report("criterion 5 (oracle equivalence)", ok,
           f"rel L2 = {rels[1.0]:.4f} (gamma=1), {rels[3.0]:.4f} (gamma=3); "
           "tolerance 0.02")
    assert ok, rels


def test_criterion_6_numerics_invariants():
    checks = {}
    c = talbot_contour(32, 1.0)
    checks["talbot 1/u"] = abs(invert(c, 1.0 / c.nodes) - 1.0) <= 1e-10
    checks["talbot 1/u^2"] = abs(invert(c, c.nodes**-2.0) - 1.0) <= 1e-10
    checks["talbot 1/(u+3)"] = abs(invert(c, 1.0 / (c.nodes + 3.0))
                                   - math.exp(-3.0)) <= 1e-8

    def j0(x, n=60):
        tot = term = 1.0
        for m in range(1, n):
            term *= -(x * x / 4.0) / (m * m)
            tot += term
        return tot

    def j1(x, n=60):
        tot = term = x / 2.0
        for m in range(1, n):
            term *= -(x * x / 4.0) / (m * (m + 1))
            tot += term
        return tot

    checks["talbot bessel j0"] = abs(
        invert(c, np.exp(-1.0 / c.nodes) / c.nodes) - j0(2.0)) <= 1e-8
    checks["talbot bessel j1"] = abs(
        invert(c, np.exp(-1.0 / c.nodes) / c.nodes**2) - j1(2.0)) <= 1e-8

    tg = tanh_sinh_grid(0.0, 1.0, 6)
    checks["tanh-sinh singular"] = abs(
        (tg.weights @ tg.nodes**-0.5).real - 2.0) <= 1e-8

    grid = build_detuning_grid(0.2, 1.0, 3, 3)
    semigroup_ok = True
    us = talbot_contour(16, 1.0).nodes
    # Read-in, dephasing, storage and rephasing grids.
    for stage in (grid.collapsed(), grid, grid.controlled_by(0), grid.controlled_by(-1)):
        eye = np.eye(stage.k * stage.n)
        whole = stage_action(stage, us, eye, [1.0]).states[0]
        first = stage_action(stage, us, eye, [0.4]).states[0]
        parts = stage_action(stage, us, first, [0.6]).states[0]
        for w, p in zip(whole, parts):
            if np.linalg.norm(w - p) > 1e-8 * np.linalg.norm(w):
                semigroup_ok = False
    checks["matrix-exponential semigroup"] = semigroup_ok

    params = derive_params(10.0, 3.0)
    sched = default_schedule(params)
    dgrid = build_detuning_grid(params.gamma0_rel, 3.0, 5, 5)
    tg2 = tanh_sinh_grid(0.0, sched.tau_r, 5)
    kern = build_transfer_kernel(params, sched, dgrid, c, tg2, tg2)
    eff = build_efficiency_kernel(kern)
    symmetric = np.array_equal(eff.core, eff.core.T)
    a = eff.basis @ eff.core @ eff.basis.T                   # A = B K_core B^T
    evals = np.sort(np.linalg.eigvalsh(a) ** 2)              # spectrum of A^2
    checks["core kernel symmetric bit for bit"] = symmetric
    checks["efficiency spectrum in [-1e-9, 1+1e-9]"] = (
        evals[0] >= -1e-9 and evals[-1] <= 1.0 + 1e-9)

    tau_p_800 = default_schedule(derive_params(800.0, 10.0)).tau_p
    checks["schedule tau_p(800) = 39.89"] = abs(tau_p_800 - 39.89) <= 0.01

    for name, ok in checks.items():
        print(f"  {name}: {'ok' if ok else 'FAILED'}")
    ok = all(checks.values())
    report("criterion 6 (numerics invariants)", ok,
           f"{sum(checks.values())}/{len(checks)} checks hold")
    assert ok, checks


def test_criterion_7_transmission_and_decay():
    checks = {}
    params = derive_params(5.0, 0.0)
    w0 = params.gamma0_rel
    # frequency-domain oracle: attenuation exponent by quadrature
    tg = tanh_sinh_grid(0.0, 12.0 / w0, 8)
    kappa = tg.weights @ np.exp(-0.5 * (w0 * tg.nodes) ** 2)
    oracle_resonant = math.exp(-2.0 * kappa.real)
    t_res = transmission_spectrum(0.0, params)
    checks["transmission resonance vs oracle"] = (
        abs(t_res - oracle_resonant) <= 1e-6 and
        abs(t_res - math.exp(-5.0)) <= 1e-12)

    p100 = derive_params(100.0, 1.0)
    decay_ok = all(
        abs(polarization_decay(t, p100)
            - math.exp(-(t / p100.t2_rel) ** 2)) <= 1e-12
        for t in (0.0, 5.0, p100.t2_rel, 100.0))
    checks["polarization decay identity"] = decay_ok

    grid = build_detuning_grid(0.1, 2.0, 3, 33)
    env_ok = all(
        abs(np.sum(grid.controlled_weights
                   * np.exp(-1j * grid.controlled_nodes * t))
            - dephasing_envelope(t, 2.0)) <= 1e-5
        for t in (0.0, 0.25, 0.6, 1.2))
    checks["grid-sum dephasing envelope"] = env_ok

    for name, ok in checks.items():
        print(f"  {name}: {'ok' if ok else 'FAILED'}")
    ok = all(checks.values())
    report("criterion 7 (transmission and decay relations)", ok,
           f"{sum(checks.values())}/{len(checks)} checks hold")
    assert ok, checks
