import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import cribmem
from cribmem.errors import NumericsError
from cribmem.kernels import (EfficiencyKernel, TransferKernel, build_efficiency_kernel,
                             build_transfer_kernel)
from cribmem.laplace import talbot_contour
from cribmem.model import build_detuning_grid, default_schedule, derive_params
from cribmem.modes import (gaussian_efficiencies, gaussian_lattice, gaussian_mode,
                           mode_efficiency, optimal_mode, optimize_gaussian)
from cribmem.quadrature import TimeGrid, tanh_sinh_grid
from cribmem.sweeps import GridSettings, build_pipeline


@pytest.fixture(scope="module")
def pipeline():
    # Resolved regime: gamma = 3 mu with 21 controlled classes keeps the
    # comb rephasing time (4.2/mu) beyond the dephasing stage.
    d0, gamma_rel = 50.0, 3.0
    params = derive_params(d0, gamma_rel)
    sched = default_schedule(params)
    grid = build_detuning_grid(params.gamma0_rel, gamma_rel, 21, 21)
    tg = tanh_sinh_grid(0.0, sched.tau_r, 6)
    kern = build_transfer_kernel(params, sched, grid, talbot_contour(32, 1.0), tg, tg)
    return params, sched, build_efficiency_kernel(kern)


def weighted(eff) -> np.ndarray:
    """A = B K_core B^T: the dense reference of the efficiency kernel."""
    b = eff.basis
    return b @ eff.core @ b.T


def toy_kernel(diagonal) -> EfficiencyKernel:
    # Symmetric two-node grid with unit weights; A = diag(diagonal).
    grid = TimeGrid(nodes=np.array([0.25, 0.75]), weights=np.array([1.0, 1.0]),
                    a=0.0, b=1.0)
    return EfficiencyKernel(grid=grid, basis=np.eye(2), core=np.diag(diagonal))


def test_optimal_mode_toy_diagonal():
    res = optimal_mode(toy_kernel([math.sqrt(0.3), math.sqrt(0.7)]))
    assert res.mode.dtype == np.float64
    assert res.efficiency == pytest.approx(0.7, abs=1e-12)
    # the top eigenvector sits on the second (reversed-time) node, which is
    # the first node in input time
    assert abs(res.mode[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(res.mode[1]) < 1e-12
    assert res.gaussian_params is None


def test_optimal_mode_takes_largest_magnitude_eigenvalue():
    # The dominant eigenvalue of A may be negative: its square, not the
    # largest signed eigenvalue, is the maximal efficiency.
    res = optimal_mode(toy_kernel([0.5, -0.8]))
    assert res.efficiency == pytest.approx(0.64, abs=1e-12)
    assert res.mode[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(res.mode[1]) < 1e-12


def test_optimal_mode_normalization_and_quotient(pipeline):
    _, _, eff = pipeline
    res = optimal_mode(eff)
    energy = float(np.sum(eff.grid.weights * np.abs(res.mode) ** 2))
    assert energy == pytest.approx(1.0, abs=1e-10)
    assert mode_efficiency(eff, res.mode) == pytest.approx(res.efficiency, abs=1e-10)
    # phase convention: largest sample real positive
    peak = res.mode[np.argmax(np.abs(res.mode))]
    assert peak.imag == pytest.approx(0.0, abs=1e-12)
    assert peak.real > 0.0


def test_optimal_mode_eigen_residual(pipeline):
    _, _, eff = pipeline
    res = optimal_mode(eff)
    v = np.sqrt(eff.grid.weights) * res.mode[::-1]
    v /= np.linalg.norm(v)
    lam = math.sqrt(res.efficiency)
    av = weighted(eff) @ v
    assert min(np.linalg.norm(av - lam * v), np.linalg.norm(av + lam * v)) <= 1e-9


def test_optimal_mode_matches_formed_gram_reference(pipeline):
    # Reference: the efficiency operator A^T A formed explicitly.
    _, _, eff = pipeline
    a = weighted(eff)
    evals = np.linalg.eigvalsh(a.T @ a)
    assert optimal_mode(eff).efficiency == pytest.approx(evals[-1], abs=1e-13)
    assert evals[0] >= -1e-9
    assert evals[-1] <= 1.0 + 1e-9


def test_optimal_mode_peaks_before_broadening(pipeline):
    _, sched, eff = pipeline
    res = optimal_mode(eff)
    peak_t = eff.grid.nodes[np.argmax(np.abs(res.mode))]
    assert abs(peak_t - sched.tau_p) < 0.5
    # drops fast once the broadening is on
    gamma_rel = 3.0
    i_after = int(np.argmin(np.abs(eff.grid.nodes - (sched.tau_p + 2.0 / gamma_rel))))
    assert abs(res.mode[i_after]) < 0.5 * np.max(np.abs(res.mode))


def test_gaussian_mode_shape_and_normalization():
    grid = tanh_sinh_grid(0.0, 6.0, 6)
    for t_c, t_w in ((3.0, 0.5), (5.0, 1.0), (1.0, 0.2)):
        m = gaussian_mode(grid, t_c, t_w)
        assert m.dtype == np.float64
        assert float(np.sum(grid.weights * np.abs(m) ** 2)) == pytest.approx(1.0, abs=1e-12)
        peak_node = grid.nodes[np.argmax(np.abs(m))]
        # peak sits at the node nearest the center
        nearest = grid.nodes[np.argmin(np.abs(grid.nodes - t_c))]
        assert peak_node == nearest


def test_gaussian_mode_window_renormalization_matches_erf_tail():
    # The quadrature renormalization must equal 1/(retained mass) with the
    # retained energy mass given by the erf tail integral.
    grid = tanh_sinh_grid(0.0, 6.0, 7)
    for t_c, t_w in ((5.0, 1.0), (5.0, 0.25), (3.0, 0.7)):
        raw = (2.0 * math.pi * t_w * t_w) ** -0.25 * np.exp(
            -((grid.nodes - t_c) ** 2) / (4.0 * t_w * t_w))
        mass = float(np.sum(grid.weights * raw ** 2))
        want = 0.5 * (math.erf((6.0 - t_c) / (math.sqrt(2.0) * t_w))
                      - math.erf((0.0 - t_c) / (math.sqrt(2.0) * t_w)))
        assert mass == pytest.approx(want, abs=1e-9)
        m = gaussian_mode(grid, t_c, t_w)
        assert float(np.sum(grid.weights * np.abs(m) ** 2)) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_mode_rejects_bad_width():
    grid = tanh_sinh_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        gaussian_mode(grid, 0.5, 0.0)
    with pytest.raises(ValueError):
        gaussian_mode(grid, 0.5, -1.0)


def test_mode_efficiency_scale_invariance(pipeline):
    _, _, eff = pipeline
    mode = gaussian_mode(eff.grid, 1.0, 0.5)
    assert mode_efficiency(eff, 7.0 * mode) == pytest.approx(
        mode_efficiency(eff, mode), rel=1e-12)


def test_mode_efficiency_orthogonal_complement(pipeline):
    _, _, eff = pipeline
    second = np.sort(np.linalg.eigvalsh(weighted(eff)) ** 2)[-2]
    res = optimal_mode(eff)
    rng = np.random.default_rng(0)
    w = eff.grid.weights
    top = res.mode
    for _ in range(5):
        e = rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)
        overlap = np.sum(w * np.conj(top) * e) / np.sum(w * np.abs(top) ** 2)
        e = e - overlap * top
        assert mode_efficiency(eff, e) <= second + 1e-9


def test_mode_efficiency_rejects_zero_and_mismatch(pipeline):
    _, _, eff = pipeline
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="energy"):
            mode_efficiency(eff, np.full(eff.grid.size, bad))
    with pytest.raises(ValueError):
        mode_efficiency(eff, np.ones(eff.grid.size + 1))


def test_optimize_gaussian_below_optimal_and_stable(pipeline):
    _, sched, eff = pipeline
    best = optimal_mode(eff)
    gauss = optimize_gaussian(eff, sched)
    assert gauss.efficiency <= best.efficiency + 1e-9
    assert gauss.converged
    assert gauss.gaussian_params is not None
    # a local maximum: no neighbour 1e-3 away in the clipped box does better
    t_c, t_w = gauss.gaussian_params
    steps = np.array([-1e-3, 0.0, 1e-3])
    near = gaussian_efficiencies(eff, np.clip(t_c + steps, 0.0, sched.tau_r)[:, None],
                                 np.clip(t_w + steps, 0.05, sched.tau_r)[None, :])
    assert near.max() <= gauss.efficiency + 1e-12
    # center lands just before the broadening switches on
    assert t_c <= sched.tau_p + 1.0
    assert t_c >= sched.tau_p - 5.0
    assert 0.05 <= t_w <= sched.tau_r


def test_optimize_gaussian_mode_is_normalized(pipeline):
    _, sched, eff = pipeline
    gauss = optimize_gaussian(eff, sched)
    energy = float(np.sum(eff.grid.weights * np.abs(gauss.mode) ** 2))
    assert energy == pytest.approx(1.0, abs=1e-10)
    assert mode_efficiency(eff, gauss.mode) == pytest.approx(gauss.efficiency, abs=1e-10)


def five_start_gaussian(eff, sched):
    """The former optimizer: Nelder-Mead from five fixed starts, best result.

    Returns (efficiency, (t_c, t_w)).
    """
    tp, tr = sched.tau_p, sched.tau_r
    lo, hi = np.array([0.0, 0.05]), np.array([tr, tr])

    def objective(x):
        t_c, t_w = np.clip(x, lo, hi)
        return -mode_efficiency(eff, gaussian_mode(eff.grid, t_c, t_w))

    best_eta, best_x = -np.inf, None
    for x0 in [(tp, 0.5), (tp, 2.0), (tp - 3.0, 1.0), (tr / 2.0, tp / 4.0), (tp - 1.0, 1.0)]:
        res = scipy.optimize.minimize(
            objective, np.clip(np.asarray(x0, dtype=float), lo, hi), method="Nelder-Mead",
            options={"fatol": 1e-9, "xatol": 1e-6, "maxiter": 400})
        if -res.fun > best_eta:
            best_eta, best_x = -float(res.fun), np.clip(res.x, lo, hi)
    return best_eta, (float(best_x[0]), float(best_x[1]))


def test_gaussian_efficiencies_match_mode_efficiency(pipeline):
    _, sched, eff = pipeline
    tcs, tws = gaussian_lattice(sched)
    got = gaussian_efficiencies(eff, tcs[:, None], tws[None, :])
    assert got.shape == (25, 20)
    want = np.array([[mode_efficiency(eff, gaussian_mode(eff.grid, tc, tw)) for tw in tws]
                     for tc in tcs])
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_gaussian_efficiencies_rejects_zero_energy(pipeline):
    # A narrow pulse centred far outside [0, tau_r] underflows to zero samples.
    _, sched, eff = pipeline
    with pytest.raises(ValueError, match="energy"):
        gaussian_efficiencies(eff, np.array([1.0, 100.0 * sched.tau_r]), 0.05)
    with pytest.raises(ValueError, match="energy"):
        gaussian_efficiencies(eff, math.nan, 1.0)


def test_gaussian_efficiencies_tell_a_bad_center_from_a_coarse_grid():
    # A center off [0, tau_r] is bad input.  A valid pulse narrower than the
    # gaps between the nodes has zero energy on them: the time grid is too
    # coarse, a numerical failure that names t_w, the nodes and quad_level.
    tg = tanh_sinh_grid(0.0, 10.0, 2)
    eff = EfficiencyKernel(grid=tg, basis=np.ones((tg.size, 1)), core=np.eye(1))
    for t_c in (-0.5, 10.5):
        with pytest.raises(ValueError, match=r"t_c must be finite and in \[0, 10\].*energy"):
            gaussian_efficiencies(eff, [5.0, t_c], 1.0)
    t_c = 0.5 * (tg.nodes[4] + tg.nodes[5])
    assert gaussian_efficiencies(eff, t_c, 1.0) > 0.0
    with pytest.raises(NumericsError, match=r"t_w = 0.05 has zero energy on the 9 time "
                                            r"nodes; raise quad_level"):
        gaussian_efficiencies(eff, [t_c, t_c], [1.0, 0.05])


def test_gaussian_efficiencies_memory_is_chunked():
    # modes-q9 size: 1025 time nodes and the 25 x 20 lattice.  Unchunked, every
    # nodes x lattice temporary would take 4.1 MB.  The chunking does not
    # depend on A, so A = B (2 I) B^T has rank 8.
    sched = default_schedule(derive_params(100.0, 3.0))
    tg = tanh_sinh_grid(0.0, sched.tau_r, 9)
    assert tg.size == 1025
    b = np.random.default_rng(1).standard_normal((tg.size, 8))
    eff = EfficiencyKernel(grid=tg, basis=b, core=2.0 * np.eye(8))
    assert eff.eigenvalues.size == 8
    tcs, tws = gaussian_lattice(sched)
    tracemalloc.start()
    try:
        gaussian_efficiencies(eff, tcs[:, None], tws[None, :])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20


def test_a_fine_time_grid_forms_no_time_by_time_array():
    # modes-q9's point: n = 1025 times.  The kernels are kept as their core
    # (56 x 56) and its n x 56 interpolant or basis, so a whole point, Gaussian
    # search included, stays below the n^2 * 8 B = 8 MiB of one n x n array.
    assert {f.name for f in dataclasses.fields(TransferKernel)} == {
        "grid", "core", "interpolation", "diagnostics"}
    assert {f.name for f in dataclasses.fields(EfficiencyKernel) if f.init} == {
        "grid", "basis", "core"}
    tracemalloc.start()
    try:
        _, sched, _, eff = build_pipeline(100.0, 3.0, GridSettings(k=9, n=15, quad_level=9))
        optimal_mode(eff)
        optimize_gaussian(eff, sched)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = eff.grid.size
    assert n == 1025
    assert peak < n * n * 8, peak


@pytest.fixture(scope="module")
def small_eff():
    return build_pipeline(10.0, 3.0, GridSettings(k=5, n=11))[3]


@pytest.mark.parametrize("t_c, t_w, match", [(1.0, -1.0, "t_w"), (1.0, 0.0, "t_w"),
                                             (1.0, math.inf, "t_w"), (1.0, math.nan, "t_w"),
                                             (math.inf, 1.0, "energy"),
                                             (-math.inf, 1.0, "energy"),
                                             (math.nan, 1.0, "energy")])
def test_gaussian_efficiencies_reject_what_gaussian_mode_rejects(small_eff, t_c, t_w, match):
    # t_w = -1 used to score as t_w = 1 (0.2105), and t_w = inf as a flat
    # input (0.2114).
    with pytest.raises(ValueError, match=match):
        gaussian_mode(small_eff.grid, t_c, t_w)
    with pytest.raises(ValueError, match=match):
        gaussian_efficiencies(small_eff, [1.0, t_c], [0.5, t_w])


@pytest.fixture(scope="module",
                params=["pipeline", (25.0, 0.5, 33), (100.0, 10.0, 33), (100.0, 3.0, 21)],
                ids=["pipeline", "25-0.5", "100-10", "point-kn441"])
def gaussian_case(request):
    if request.param == "pipeline":
        _, sched, eff = request.getfixturevalue("pipeline")
        return sched, eff
    d0, gamma_rel, kn = request.param
    _, sched, _, eff = build_pipeline(d0, gamma_rel, GridSettings(k=kn, n=kn, quad_level=6))
    return sched, eff


def test_optimize_gaussian_matches_five_start_search(gaussian_case):
    sched, eff = gaussian_case
    eta, (t_c, t_w) = five_start_gaussian(eff, sched)
    gauss = optimize_gaussian(eff, sched)
    assert gauss.efficiency == pytest.approx(eta, abs=1e-10)
    assert gauss.gaussian_params == pytest.approx((t_c, t_w), abs=1e-4)


@pytest.mark.parametrize("peak", ["interior", "box-edge"])
def test_optimize_gaussian_finds_a_known_peak(peak):
    # A = v v^T with v = sqrt(w) times the reversed Gaussian samples at
    # (t_c0, t_w0): by Cauchy-Schwarz eta peaks there, at exactly 1.
    sched = default_schedule(derive_params(50.0, 3.0))
    tg = tanh_sinh_grid(0.0, sched.tau_r, 6)
    t_c0, t_w0 = (0.43 * sched.tau_r, 0.37) if peak == "interior" else (sched.tau_r, 0.8)
    v = np.sqrt(tg.weights) * gaussian_mode(tg, t_c0, t_w0)[::-1]
    eff = EfficiencyKernel(grid=tg, basis=v[:, None], core=np.ones((1, 1)))
    gauss = optimize_gaussian(eff, sched)
    assert gauss.converged
    assert gauss.gaussian_params == pytest.approx((t_c0, t_w0), abs=1e-6)
    assert gauss.efficiency == pytest.approx(1.0, abs=1e-12)


@pytest.fixture(scope="module")
def fine_pipeline():
    # modes-q9's point: 1025 time nodes, a factor of rank 56.
    _, sched, _, eff = build_pipeline(100.0, 3.0, GridSettings(k=9, n=15, quad_level=9))
    assert eff.eigenvalues.size < eff.grid.size
    return sched, eff, weighted(eff)


def dense_efficiency(a, eff, e_in) -> float:
    # ||A phi||^2 / ||phi||^2 with the dense A, the quotient the factor replaces.
    phi = np.sqrt(eff.grid.weights) * np.asarray(e_in)[::-1]
    a_phi = a @ phi
    return float(np.vdot(a_phi, a_phi).real / np.vdot(phi, phi).real)


def test_mode_efficiency_matches_dense_quotient(fine_pipeline):
    sched, eff, a = fine_pipeline
    t = eff.grid.nodes
    rng = np.random.default_rng(5)
    inputs = [gaussian_mode(eff.grid, t_c, t_w)
              for t_c, t_w in ((sched.tau_p, 0.5), (0.3 * sched.tau_r, 2.0), (sched.tau_r, 0.05))]
    inputs += [
        np.where(t < sched.tau_p, 1.0, 0.0),                 # a step
        np.where(np.arange(t.size) == t.size // 3, 1.0, 0.0),  # one node
        np.resize([1.0, -1.0], t.size),                      # node-scale oscillation
        rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size),
    ]
    for e_in in inputs:
        assert abs(mode_efficiency(eff, e_in) - dense_efficiency(a, eff, e_in)) <= 1e-13
    dense_top = np.max(np.abs(np.linalg.eigvalsh(a))) ** 2
    assert abs(optimal_mode(eff).efficiency - dense_top) <= 1e-13


def test_gaussian_efficiencies_match_dense_quotient(fine_pipeline):
    sched, eff, a = fine_pipeline
    tcs, tws = gaussian_lattice(sched)
    got = gaussian_efficiencies(eff, tcs[:, None], tws[None, :])
    want = np.array([[dense_efficiency(a, eff, gaussian_mode(eff.grid, tc, tw)) for tw in tws]
                     for tc in tcs])
    assert np.max(np.abs(got - want)) <= 1e-13


def test_a_sweep_point_does_not_import_numpy_random():
    # numpy.random alone adds about 6 MB of resident memory to every worker;
    # the spectral factor needs no random start.
    probe = ("import sys, cribmem.cli\n"
             "from cribmem.sweeps import GridSettings, evaluate_point\n"
             "evaluate_point(10.0, 3.0, GridSettings(k=5, n=11, quad_level=5),\n"
             "               include_gaussian=True, include_mode=True)\n"
             "print('numpy.random' in sys.modules)\n")
    src = str(Path(cribmem.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert done.stdout.strip() == "False"
