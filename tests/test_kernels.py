import math

import numpy as np
import pytest
import scipy.linalg

from cribmem.analytic import Profile, broadening_stage_efficiency_numeric
from cribmem.kernels import (
    TransferKernel,
    _contour_sum,
    _stored_states,
    apply_output,
    build_transfer_kernel,
)
from cribmem.laplace import invert, talbot_contour
from cribmem.model import (
    DetuningGrid,
    ProtocolSchedule,
    build_detuning_grid,
    default_schedule,
    derive_params,
)
from cribmem.modes import gaussian_mode
from cribmem.propagators import ReadOut, collocation_count
from cribmem.quadrature import TimeGrid, tanh_sinh_grid
from cribmem.sweeps import GridSettings, build_pipeline


def j1_series(x: float) -> float:
    total = term = x / 2.0
    for m in range(1, 60):
        term *= -(x * x / 4.0) / (m * (m + 1))
        total += term
    return total


def build_small(d0=10.0, gamma_rel=3.0, k=5, n=5, level=5, m=32, schedule=None):
    params = derive_params(d0, gamma_rel)
    sched = schedule or default_schedule(params)
    grid = build_detuning_grid(params.gamma0_rel, gamma_rel, k, n)
    contour = talbot_contour(m, 1.0)
    tg = tanh_sinh_grid(0.0, sched.tau_r, level)
    kern = build_transfer_kernel(params, sched, grid, contour, tg, tg)
    return params, sched, grid, contour, kern


def dense_sample(which: str, u: complex, t: float, t_prime: float,
                 grid: DetuningGrid, sched: ProtocolSchedule) -> complex:
    """Laplace-domain kernel piece k1..k4 from raw dense generators and expm.

    Times are measured from the start of the emitting / injecting stage:
    k1, k2 emit during rephasing (t <= tau_d), k3, k4 during read-out;
    k1, k3 take inputs from dephasing (t' <= tau_d), k2, k4 from read-in.
    """
    g = grid.joint_weights
    g0 = grid.intrinsic_weights
    sg = grid.controlled_weights.sum()
    kn = grid.k * grid.n
    ones_kn, ones_k = np.ones(kn), np.ones(grid.k)
    m1 = -1j * np.diag(grid.intrinsic_nodes.astype(complex)) - (sg / u) * np.outer(ones_k, g0)
    a, b = grid.intrinsic_nodes[:, None], grid.controlled_nodes[None, :]
    m2 = -1j * np.diag((a + b).ravel().astype(complex)) - np.outer(ones_kn, g) / u
    m3 = -1j * np.diag(np.repeat(a, grid.n).astype(complex)) - np.outer(ones_kn, g) / u
    m4 = -1j * np.diag((a - b).ravel().astype(complex)) - np.outer(ones_kn, g) / u
    e = scipy.linalg.expm
    lift = np.kron(np.eye(grid.k), np.ones((grid.n, 1)))
    lw = np.kron(np.eye(grid.k), grid.controlled_weights[None, :])
    td, ts = sched.tau_d, sched.tau_s
    if which == "k1":
        chain = g @ e(m4 * t) @ e(m3 * ts) @ e(m2 * t_prime) @ ones_kn
    elif which == "k2":
        chain = g @ e(m4 * t) @ (e(m3 * ts) @ e(m2 * td) @ lift) @ e(m1 * t_prime) @ ones_k
    elif which == "k3":
        chain = g0 @ e(m1 * t) @ (lw @ e(m4 * td) @ e(m3 * ts)) @ e(m2 * t_prime) @ ones_kn
    else:
        chain = (g0 @ e(m1 * t) @ (lw @ e(m4 * td) @ e(m3 * ts) @ e(m2 * td) @ lift)
                 @ e(m1 * t_prime) @ ones_k)
    return complex(-chain / u**2)


def dense_kernel_entry(t: float, t_prime: float, grid: DetuningGrid,
                       sched: ProtocolSchedule, contour) -> complex:
    """K_E(t, t') on the read window by inverting dense_sample on the contour."""
    td = sched.tau_d
    which = ("k1" if t <= td else "k3") if t_prime <= td else ("k2" if t <= td else "k4")
    t_loc = t if t <= td else t - td
    tp_loc = t_prime if t_prime <= td else t_prime - td
    samples = np.array([dense_sample(which, complex(u), t_loc, tp_loc, grid, sched)
                        for u in contour.nodes])
    return invert(contour, samples)


def stored_on(grid: DetuningGrid, sched: ProtocolSchedule, us, times):
    """The stored states (V, L, F) with ``times`` as the core times of both sides."""
    times = np.asarray(times)
    lo = times <= sched.tau_d
    return _stored_states(grid, sched, us, times[lo], times[~lo])[0]


def assembled_at(u: complex, grid: DetuningGrid, sched: ProtocolSchedule, times):
    """K_E-hat at one contour node, as the kernel's lo-lo, lo-hi and hi-hi blocks."""
    v, lifted, f = stored_on(grid, sched, [u], times)
    v, l, f = v[:, 0], lifted[0], f[:, 0]
    read_out = ReadOut(grid, [u], sched.tau_s)
    r_v = read_out.rows(v, 0)
    return r_v @ v.T, r_v @ l @ f.T, f @ (read_out.rows(l.T, 0) @ l) @ f.T


def direct_kernel(grid: DetuningGrid, sched: ProtocolSchedule, contour, times):
    """K_E assembled on ``times`` themselves."""
    states = stored_on(grid, sched, contour.nodes, times)
    return _contour_sum(states, ReadOut(grid, contour.nodes, sched.tau_s), contour)


def on_grid(kern) -> np.ndarray:
    """K_E on the time grid, Pi K_core Pi^T: the dense reference of the kernel."""
    p = kern.interpolation
    return p @ kern.core @ p.T


def weighted(kern) -> np.ndarray:
    """A = B K_core B^T, B = sqrt(w) Pi: the dense reference of the efficiency kernel."""
    b = np.sqrt(kern.grid.weights)[:, None] * kern.interpolation
    return b @ kern.core @ b.T


def record_nodes(monkeypatch) -> list:
    """The contour nodes j of every read-out of the kernels built afterwards."""
    nodes = []
    real = ReadOut.rows

    def recording(self, x, j):
        nodes.append(j)
        return real(self, x, j)

    monkeypatch.setattr(ReadOut, "rows", recording)
    return nodes


def test_kernel_samples_matches_direct_matrix_chain():
    # Independent re-derivation: raw dense products at one Laplace moment.
    params, sched, grid, contour, _ = build_small(k=3, n=3, level=3)
    u = complex(contour.nodes[12])
    t, tp = 0.35, 0.45   # inside both the tau_d and tau_p windows
    td = sched.tau_d
    k_ll, k_lh, k_hh = assembled_at(u, grid, sched, [t, tp, t + td, tp + td])
    # lo: times t, tp (dephasing input, rephasing output); hi: t + td, tp + td
    # (read-in input, read-out output).  The read-out row of t + td against
    # the dephasing input tp is the hi-lo entry, the mirror of lo-hi.
    got = {"k1": k_ll[0, 1], "k2": k_lh[0, 1], "k3": k_lh[1, 0], "k4": k_hh[0, 1]}
    for which, q in got.items():
        expect = dense_sample(which, u, t, tp, grid, sched)
        assert abs(-q / u**2 - expect) < 1e-10 * max(1.0, abs(expect))


def test_degenerate_resonant_k4_is_bessel():
    # Single resonant class: k4(t, t') = -J1(2 sqrt(a))/sqrt(a) with
    # a = t + t' + 2 tau_d + tau_s, via L^-1[u^-2 e^(-a/u)] = sqrt(z/a) J1(2 sqrt(a z)).
    grid = build_detuning_grid(0.1, 0.0, k=1, n=1)
    contour = talbot_contour(32, 1.0)
    for tau_d, tau_s in ((0.0, 0.0), (1.0, 0.7)):
        sched = ProtocolSchedule(tau_p=2.0, tau_d=tau_d, tau_s=tau_s)
        for (t, tp) in ((0.0, 0.0), (0.6, 1.1), (2.0, 2.0)):
            samples = np.array([
                dense_sample("k4", complex(u), t, tp, grid, sched) for u in contour.nodes])
            got = invert(contour, samples)
            a = t + tp + 2.0 * tau_d + tau_s
            want = -1.0 if a == 0.0 else -j1_series(2.0 * math.sqrt(a)) / math.sqrt(a)
            assert got == pytest.approx(want, abs=1e-8)


def test_degenerate_resonant_kernel_depends_on_storage_time():
    # With a single resonant class nothing dephases, so the stored
    # polarization keeps radiating during storage and the kernel must
    # depend on tau_s (the closed form above shifts by tau_s).
    grid = build_detuning_grid(0.1, 0.0, k=1, n=1)
    contour = talbot_contour(32, 1.0)
    vals = []
    for tau_s in (0.0, 1.0):
        sched = ProtocolSchedule(tau_p=2.0, tau_d=1.0, tau_s=tau_s)
        samples = np.array([
            dense_sample("k4", complex(u), 0.0, 0.0, grid, sched) for u in contour.nodes])
        vals.append(invert(contour, samples))
    assert abs(vals[0] - vals[1]) > 0.05


def test_degenerate_k3_continues_k1():
    # For n = 1 (no controlled broadening) and tau_s = 0 the stages merge,
    # so the stage-5 kernel continues the stage-4 kernel shifted by tau_d:
    # k3(t, t') = k1(t + tau_d, t') evaluated by the shared matrix chain.
    grid = build_detuning_grid(0.25, 0.0, k=3, n=1)
    sched = ProtocolSchedule(tau_p=1.5, tau_d=0.8, tau_s=0.0)
    contour = talbot_contour(24, 1.0)
    for u in contour.nodes[-4:]:
        u = complex(u)
        got = dense_sample("k3", u, 0.3, 0.5, grid, sched)
        m1 = -1j * np.diag(grid.intrinsic_nodes.astype(complex)) \
            - np.outer(np.ones(3), grid.intrinsic_weights) / u
        chain = grid.intrinsic_weights @ scipy.linalg.expm(m1 * (0.3 + sched.tau_d)) \
            @ scipy.linalg.expm(m1 * 0.5) @ np.ones(3)
        assert abs(got - (-chain / u**2)) < 1e-10


def test_transfer_kernel_quadrants_match_pointwise_samples():
    params, sched, grid, contour, kern = build_small(k=3, n=3, level=4)
    rng = np.random.default_rng(2)
    nodes, values = kern.grid.nodes, on_grid(kern)
    for _ in range(5):
        i = rng.integers(0, nodes.size)
        j = rng.integers(0, nodes.size)
        want = dense_kernel_entry(nodes[i], nodes[j], grid, sched, contour)
        assert abs(values[i, j] - want) < 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("m", [32, 26])
def test_contour_sum_matches_dense_entries_on_a_fine_grid(monkeypatch, m):
    # n_lo = 137 and n_hi = 120 times against KN = 9 classes, interpolated
    # from 33 and 24 core nodes: the stored states and the rank-K lift
    # differ in shape.  The sum reads out each of the m/2 upper-half nodes
    # in turn, the stored states and the lift once each.
    params = derive_params(10.0, 3.0)
    sched = default_schedule(params)
    grid = build_detuning_grid(params.gamma0_rel, 3.0, 3, 3)
    contour = talbot_contour(m, 1.0)
    tg = tanh_sinh_grid(0.0, sched.tau_r, 7)
    n_lo = int(np.count_nonzero(tg.nodes <= sched.tau_d))
    assert n_lo > 9 and tg.size - n_lo > 9
    core_lo = collocation_count(grid, contour.nodes, tg.nodes[n_lo - 1])[0]
    assert 9 < core_lo < n_lo
    nodes = record_nodes(monkeypatch)
    kern = build_transfer_kernel(params, sched, grid, contour, tg, tg)
    assert kern.diagnostics["core_nodes"][0] == core_lo
    assert nodes == [j for j in range(m // 2) for _ in range(2)]
    assert np.array_equal(kern.core, kern.core.T)
    values = on_grid(kern)
    for i, j in ((0, 5), (60, 136), (136, 136),        # lo-lo
                 (3, 137), (100, 200), (136, 256),     # lo-hi
                 (137, 140), (180, 250), (256, 256)):  # hi-hi
        want = dense_kernel_entry(tg.nodes[i], tg.nodes[j], grid, sched, contour)
        assert abs(values[i, j] - want) < 1e-10 * max(1.0, abs(want))


def test_kernel_is_interpolated_from_its_core_nodes():
    # At q8 each side has far more times (273 lo, 240 hi) than the 40 and 24
    # Gauss-Legendre nodes that resolve its bandwidth: the kernel on those
    # nodes, interpolated onto the grid, is the kernel assembled on the grid.
    # Here the bandwidth beta*T sets the lo count, 8 nodes beyond it;
    # without that margin the kernels differ by about 8e-12.
    params = derive_params(10.0, 6.0)
    sched = default_schedule(params)
    grid = build_detuning_grid(params.gamma0_rel, 6.0, 3, 3)
    contour = talbot_contour(32, 1.0)
    tg = tanh_sinh_grid(0.0, sched.tau_r, 8)
    n_lo = int(np.count_nonzero(tg.nodes <= sched.tau_d))
    assert (n_lo, tg.size - n_lo) == (273, 240)
    kern = build_transfer_kernel(params, sched, grid, contour, tg, tg)
    assert kern.diagnostics["core_nodes"] == (40, 24)
    assert kern.core.shape == (64, 64) and kern.interpolation.shape == (513, 64)
    assert np.array_equal(kern.core, kern.core.T)
    values = on_grid(kern)
    want = direct_kernel(grid, sched, contour, tg.nodes)
    err = float(np.abs(values - want).max() / np.abs(want).max())
    assert err <= 1e-13, err
    for i, j in ((0, 5), (90, 272), (272, 272),        # lo-lo
                 (3, 273), (150, 400), (272, 512),     # lo-hi
                 (273, 280), (350, 470), (512, 512)):  # hi-hi
        want = dense_kernel_entry(tg.nodes[i], tg.nodes[j], grid, sched, contour)
        assert abs(values[i, j] - want) < 1e-10 * max(1.0, abs(want))


def test_kernel_on_few_times_is_assembled_on_them():
    # At q3 each side has fewer times than core nodes: Pi is the identity, and
    # the core is the direct assembly bit for bit.
    params, sched, grid, contour, kern = build_small(k=3, n=3, level=3)
    n_lo = int(np.count_nonzero(kern.grid.nodes <= sched.tau_d))
    assert kern.diagnostics["core_nodes"] == (n_lo, kern.grid.size - n_lo)
    assert np.array_equal(kern.interpolation, np.eye(kern.grid.size))
    assert np.array_equal(kern.core, direct_kernel(grid, sched, contour, kern.grid.nodes))


def test_stored_states_read_out_at_two_storage_times_give_each_kernel():
    # The stored states do not depend on tau_s: built once, they give the
    # kernel of either storage time through that time's read-out, bit for
    # bit.  At q3 both sides keep their times, so the core times are known.
    params = derive_params(10.0, 3.0)
    default = default_schedule(params)
    grid = build_detuning_grid(params.gamma0_rel, 3.0, 3, 3)
    contour = talbot_contour(32, 1.0)
    tg = tanh_sinh_grid(0.0, default.tau_r, 3)
    states = stored_on(grid, default, contour.nodes, tg.nodes)
    cores = []
    for tau_s in (default.tau_s, 0.0):
        sched = ProtocolSchedule(tau_p=default.tau_p, tau_d=default.tau_d, tau_s=tau_s)
        kern = build_transfer_kernel(params, sched, grid, contour, tg, tg)
        assert np.array_equal(kern.interpolation, np.eye(tg.size))
        cores.append(_contour_sum(states, ReadOut(grid, contour.nodes, tau_s), contour))
        assert np.array_equal(cores[-1], kern.core)
    assert default.tau_s > 0.0
    assert np.abs(cores[0] - cores[1]).max() > 1e-3 * np.abs(cores[0]).max()


def test_contour_off_the_unit_abscissa_is_rejected():
    # The protocol's times enter the stage actions; a contour scaled for
    # another abscissa would invert the kernel of a medium of another length.
    params = derive_params(10.0, 3.0)
    sched = default_schedule(params)
    grid = build_detuning_grid(params.gamma0_rel, 3.0, 5, 11)
    tg = tanh_sinh_grid(0.0, sched.tau_r, 5)
    for z in (2.0, 0.5, 1.0 + 1e-15):
        with pytest.raises(ValueError, match="t_scale"):
            build_transfer_kernel(params, sched, grid, talbot_contour(32, z), tg, tg)


def test_dense_kernel_is_symmetric():
    # Time reversal, checked on raw expm chains with no shared code: the
    # read-in -> rephasing piece k2 equals the dephasing -> read-out piece k3
    # with the times swapped, and k1 and k4 are each symmetric.
    params, sched, grid, contour, _ = build_small(k=3, n=3, level=3)
    td, tr = sched.tau_d, sched.tau_r
    rng = np.random.default_rng(5)
    for lo_a, hi_a, lo_b, hi_b in ((0, td, td, tr), (0, td, 0, td), (td, tr, td, tr)):
        for _ in range(2):
            t, tp = rng.uniform(lo_a, hi_a), rng.uniform(lo_b, hi_b)
            a = dense_kernel_entry(t, tp, grid, sched, contour)
            b = dense_kernel_entry(tp, t, grid, sched, contour)
            assert abs(a - b) < 1e-10 * max(1.0, abs(a))


def test_transfer_kernel_is_exactly_symmetric():
    for k, n, level in ((3, 3, 4), (5, 5, 5)):
        *_, kern = build_small(k=k, n=n, level=level)
        assert np.array_equal(kern.core, kern.core.T)


def test_unequal_out_and_in_grids_are_rejected():
    params = derive_params(10.0, 3.0)
    sched = default_schedule(params)
    grid = build_detuning_grid(params.gamma0_rel, 3.0, 3, 3)
    tg3, tg4 = (tanh_sinh_grid(0.0, sched.tau_r, q) for q in (3, 4))
    with pytest.raises(ValueError, match="one grid"):
        build_transfer_kernel(params, sched, grid, talbot_contour(16, 1.0), tg3, tg4)


def test_time_irreversible_grid_is_rejected_at_construction():
    # Time reversal is an index reversal only on a grid mirrored about its
    # midpoint; the kernel checks that once, when the grid is attached.
    grid = TimeGrid(nodes=np.array([0.1, 0.2, 0.9]), weights=np.full(3, 1.0 / 3.0),
                    a=0.0, b=1.0)
    with pytest.raises(ValueError, match="not symmetric"):
        TransferKernel(grid=grid, core=np.zeros((3, 3)), interpolation=np.eye(3))


@pytest.mark.parametrize("shape", [(2, 2), (4, 2), (3, 4), (3, 0), (3,)])
def test_interpolation_off_the_grid_is_rejected(shape):
    # Pi maps the c <= n core nodes onto the n grid times.
    grid = TimeGrid(nodes=np.array([0.1, 0.5, 0.9]), weights=np.full(3, 1.0 / 3.0),
                    a=0.0, b=1.0)
    with pytest.raises(ValueError, match="interpolation"):
        TransferKernel(grid=grid, core=np.zeros((3, 3)), interpolation=np.ones(shape))


def test_zero_dephasing_kernel_has_empty_low_block():
    # With tau_d = 0 no input enters during dephasing and no output leaves
    # during rephasing: the whole kernel is the read-in -> read-out block.
    params = derive_params(10.0, 3.0)
    sched = ProtocolSchedule(tau_p=2.0, tau_d=0.0, tau_s=0.7)
    grid = build_detuning_grid(params.gamma0_rel, 3.0, 3, 3)
    contour = talbot_contour(32, 1.0)
    tg = tanh_sinh_grid(0.0, sched.tau_r, 3)
    u = complex(contour.nodes[12])
    k_ll, k_lh, k_hh = assembled_at(u, grid, sched, tg.nodes)
    assert k_ll.shape == (0, 0)
    assert k_lh.shape == (0, tg.size)
    assert k_hh.shape == (tg.size, tg.size)
    kern = build_transfer_kernel(params, sched, grid, contour, tg, tg)
    values = on_grid(kern)
    for i, j in ((0, 0), (2, 7), (8, 4), (16, 16)):
        want = dense_kernel_entry(tg.nodes[i], tg.nodes[j], grid, sched, contour)
        assert abs(values[i, j] - want) < 1e-10 * max(1.0, abs(want))


def test_kernel_reports_stage2_work():
    *_, kern = build_small(k=3, n=3, level=3)
    # The full node count m, of which the "half" assembly evaluates m/2.
    assert kern.diagnostics["contour_nodes"] == 32
    assert kern.diagnostics["assembly"] == "half"
    for key in ("stage2_states_collocation_nodes", "stage2_lift_collocation_nodes"):
        assert isinstance(kern.diagnostics[key], int)
        assert kern.diagnostics[key] > 0
    lo, hi = kern.diagnostics["core_nodes"]
    assert isinstance(lo, int) and isinstance(hi, int)
    assert 0 < lo and 0 < hi and lo + hi <= kern.grid.size
    for key in ("stage_actions_s", "contour_sum_s", "interpolation_s"):
        assert math.isfinite(kern.diagnostics[key])
        assert kern.diagnostics[key] >= 0.0


def test_kernel_and_perturbative_numeric_decompose_nothing(monkeypatch):
    # Every stage exponential is applied by its action; no eigendecomposition.
    def no_eig(*args, **kwargs):
        raise AssertionError("numpy.linalg.eig was called")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    *_, kern = build_small(k=3, n=3, level=3)
    assert np.all(np.isfinite(kern.core))
    eta = broadening_stage_efficiency_numeric(Profile.flat(), 10.0, 1.0)
    assert 0.0 < eta < 1.0


def test_asymmetric_intrinsic_grid_is_rejected():
    # Only the conjugate half of the contour is summed, which is exact for
    # the real kernel of mirror-symmetric families and wrong otherwise.
    params = derive_params(10.0, 3.0)
    sched = default_schedule(params)
    tg = tanh_sinh_grid(0.0, sched.tau_r, 3)
    for nodes, weights in (([-0.1, 0.0, 0.3], [0.3, 0.4, 0.3]),
                           ([-0.3, 0.0, 0.3], [0.2, 0.4, 0.4])):
        grid = DetuningGrid(np.array(nodes), np.array(weights),
                            np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="mirror-symmetric"):
            build_transfer_kernel(params, sched, grid, talbot_contour(16, 1.0), tg, tg)


def test_kernel_and_efficiency_matrix_are_real():
    *_, kern = build_small(k=3, n=3, level=3)
    assert kern.core.dtype == kern.interpolation.dtype == np.float64
    assert kern.diagnostics["assembly"] == "half"
    assert kern.eigenvalues.dtype == kern.eigenvectors.dtype == np.float64
    p = kern.interpolation
    with pytest.raises(ValueError, match="real"):
        TransferKernel(grid=kern.grid, core=kern.core.astype(complex), interpolation=p)
    with pytest.raises(ValueError, match="symmetric"):
        TransferKernel(grid=kern.grid, core=np.triu(kern.core), interpolation=p)


def test_asymmetric_controlled_comb_is_rejected():
    # Stage 4 is stage 2 reflected through the controlled comb; on this comb
    # the reflection is wrong, so the kernel must not be built at all.
    params = derive_params(10.0, 3.0)
    sched = default_schedule(params)
    grid = DetuningGrid(np.array([0.0]), np.array([1.0]),
                        np.array([-2.0, 0.0, 3.0]), np.array([0.3, 0.4, 0.3]))
    tg = tanh_sinh_grid(0.0, sched.tau_r, 3)
    with pytest.raises(ValueError, match="mirror-symmetric"):
        build_transfer_kernel(params, sched, grid, talbot_contour(16, 1.0), tg, tg)


def test_vanishing_input_window_kills_stage5_quadrant():
    params = derive_params(10.0, 3.0)
    sched_tiny = ProtocolSchedule(tau_p=1e-6, tau_d=1.0,
                                  tau_s=default_schedule(params).tau_s)
    grid = build_detuning_grid(params.gamma0_rel, 3.0, 5, 5)
    tg = tanh_sinh_grid(0.0, sched_tiny.tau_r, 5)
    kern = build_transfer_kernel(params, sched_tiny, grid, talbot_contour(32, 1.0),
                                 tg, tg)
    sel = tg.nodes > sched_tiny.tau_d
    wq = tg.weights
    quadrant = on_grid(kern)[np.ix_(sel, sel)]
    energy = np.einsum("i,ij,j->", wq[sel], np.abs(quadrant) ** 2, wq[sel])
    assert energy < 1e-10


def test_apply_output_zero_and_linearity():
    *_, kern = build_small(level=4)
    n = kern.grid.size
    assert np.all(apply_output(kern, np.zeros(n)) == 0.0)
    rng = np.random.default_rng(4)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    al, be = 0.3 - 1.1j, 2.2 + 0.4j
    lhs = apply_output(kern, al * a + be * b)
    rhs = al * apply_output(kern, a) + be * apply_output(kern, b)
    assert np.allclose(lhs, rhs, atol=1e-12)
    with pytest.raises(ValueError):
        apply_output(kern, np.ones(n + 1))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_apply_output_rejects_non_finite_samples(bad):
    # One non-finite sample used to spread to every output sample, with no error.
    *_, kern = build_small(k=3, n=3, level=3)
    e_in = np.ones(kern.grid.size, dtype=complex)
    e_in[2] = bad
    with pytest.raises(ValueError, match="finite"):
        apply_output(kern, e_in)


def test_output_energy_between_zero_and_one():
    params, sched, grid, contour, kern = build_small(d0=100.0, gamma_rel=10.0,
                                                     k=9, n=33, level=5)
    e_in = gaussian_mode(kern.grid, 0.8 * sched.tau_p, 0.5)
    e_out = apply_output(kern, e_in)
    energy = float(np.sum(kern.grid.weights * np.abs(e_out) ** 2))
    assert 0.0 < energy < 1.0


def test_energy_passivity_random_inputs():
    *_, kern = build_small(d0=25.0, gamma_rel=3.0, k=9, n=9, level=4)
    rng = np.random.default_rng(9)
    w = kern.grid.weights
    for _ in range(50):
        e = rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)
        e /= math.sqrt(float(np.sum(w * np.abs(e) ** 2)))
        out = apply_output(kern, e)
        energy = float(np.sum(w * np.abs(out) ** 2))
        assert energy <= 1.0 + 1e-6


def test_storage_decay_follows_intrinsic_dephasing():
    # The intrinsic spread dephases throughout the protocol, so for a fixed
    # input ln(eta(tau_s)/eta(0)) = -gamma0^2 (tau_s^2 + 2 T_eff tau_s) with
    # T_eff a fixed offset bounded by the non-storage stage durations.  The
    # quadratic coefficient is the exp(-2 (tau_s/T2)^2) law; the linear
    # cross term only vanishes when tau_s dominates every other stage.
    d0, gamma_rel = 25.0, 10.0
    params = derive_params(d0, gamma_rel)
    base = default_schedule(params)
    t2 = params.t2_rel
    grid = build_detuning_grid(params.gamma0_rel, gamma_rel, 21, 21)
    contour = talbot_contour(32, 1.0)
    energies = []
    taus = (0.0, t2 / 2.0, t2)
    for tau_s in taus:
        sched = ProtocolSchedule(tau_p=base.tau_p, tau_d=base.tau_d, tau_s=tau_s)
        tg = tanh_sinh_grid(0.0, sched.tau_r, 5)
        kern = build_transfer_kernel(params, sched, grid, contour, tg, tg)
        e_in = gaussian_mode(tg, sched.tau_p, 0.3)
        out = apply_output(kern, e_in)
        energies.append(float(np.sum(tg.weights * np.abs(out) ** 2)))
    r1 = math.log(energies[1] / energies[0])
    r2 = math.log(energies[2] / energies[0])
    # solve r = c2 tau^2 + c1 tau at the two nonzero storage times
    c2 = (r2 / taus[2] - r1 / taus[1]) / (taus[2] - taus[1])
    c1 = r1 / taus[1] - c2 * taus[1]
    gamma0_sq = params.gamma0_rel ** 2
    assert c2 == pytest.approx(-gamma0_sq, rel=0.03)
    t_eff = -c1 / (2.0 * gamma0_sq)
    assert 0.0 < t_eff < 2.0 * base.tau_d + 2.0 * base.tau_r
    # monotone: storing longer never helps
    assert energies[0] > energies[1] > energies[2]


def test_efficiency_kernel_hermitian_psd_contractive():
    *_, kern = build_small(level=5)
    assert np.array_equal(kern.core, kern.core.T)
    evals = np.sort(np.linalg.eigvalsh(weighted(kern)) ** 2)   # spectrum of A^2
    assert evals[0] >= -1e-9
    assert evals[-1] <= 1.0 + 1e-9


def factor_residual(kern) -> float:
    # ||A - U Lambda U^T||_2 relative to |lambda_1|.
    u, values = kern.eigenvectors, kern.eigenvalues
    return float(np.linalg.norm(weighted(kern) - (u * values) @ u.T, 2) / abs(values[0]))


def by_magnitude(values):
    return values[np.argsort(-np.abs(values), kind="stable")]


@pytest.mark.parametrize("d0, gamma_rel, k, n, level", [(100.0, 3.0, 9, 15, 9),
                                                       (100.0, 3.0, 21, 21, 6),
                                                       (100.0, 10.0, 33, 33, 6),
                                                       (800.0, 10.0, 33, 33, 6)],
                         ids=["modes-q9", "point-kn441", "100-10", "800-10"])
def test_spectral_factor_matches_dense_eigh(d0, gamma_rel, k, n, level):
    # A = B K_core B^T on the basis B = sqrt(w) Pi: the factor has one pair
    # per core node, every value it keeps is the dense eigenvalue of the
    # same rank to rounding, and A - U Lambda U^T is rounding (2.0e-15
    # |lambda_1| at most on these four).
    *_, kern = build_pipeline(d0, gamma_rel, GridSettings(k=k, n=n, quad_level=level))
    values, u = kern.eigenvalues, kern.eigenvectors
    size, rank = kern.grid.size, values.size
    assert rank == sum(kern.diagnostics["core_nodes"]) < size
    assert u.shape == (size, rank)
    dense = by_magnitude(np.linalg.eigvalsh(weighted(kern)))
    top = abs(dense[0])
    assert np.max(np.abs(values - dense[:rank])) <= 1e-13 * top
    assert np.all(np.diff(np.abs(values)) <= 0.0)
    assert np.max(np.abs(u.T @ u - np.eye(rank))) <= 1e-13
    assert factor_residual(kern) <= 1e-14


def test_spectral_factor_on_kept_times_is_the_dense_spectrum():
    # At q3 both sides keep their times: Pi is the identity, and the factor
    # is A's full eigendecomposition.
    *_, kern = build_small(k=3, n=3, level=3)
    assert sum(kern.diagnostics["core_nodes"]) == kern.grid.size
    assert np.array_equal(kern.interpolation, np.eye(kern.grid.size))
    dense = by_magnitude(np.linalg.eigvalsh(weighted(kern)))
    assert kern.eigenvalues.size == kern.grid.size
    assert np.max(np.abs(kern.eigenvalues - dense)) <= 1e-13 * abs(dense[0])


def test_spectral_factor_eigensolves_on_the_core_nodes(monkeypatch):
    # At modes-q9's settings A is 1025 x 1025 and the core has 24 + 24
    # nodes: no eigensolve sees a larger matrix (the transfer kernel runs
    # none).
    sizes, eigh = [], np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    *_, kern = build_pipeline(100.0, 3.0, GridSettings(k=9, n=15, quad_level=9))
    core = sum(kern.diagnostics["core_nodes"])
    assert kern.grid.size == 1025 and core == 48
    assert sizes and max(sizes) <= core
    assert kern.eigenvalues.size == core


def test_spectral_factor_of_a_full_rank_matrix_is_the_dense_spectrum():
    # On the identity basis, Pi = 1/sqrt(w), the factor is the core's dense
    # eigendecomposition.
    tg = tanh_sinh_grid(0.0, 1.0, 8)
    a = np.random.default_rng(3).standard_normal((tg.size, tg.size))
    kern = TransferKernel(grid=tg, core=a + a.T, interpolation=np.diag(1.0 / np.sqrt(tg.weights)))
    values, u = kern.eigenvalues, kern.eigenvectors
    dense = by_magnitude(np.linalg.eigvalsh(a + a.T))
    assert values.size == tg.size
    assert np.max(np.abs(values - dense)) <= 1e-12 * abs(dense[0])
    assert np.max(np.abs((u * values) @ u.T - (a + a.T))) <= 1e-12 * abs(dense[0])


@pytest.mark.parametrize("basis", [np.ones((5, 2), dtype=complex), np.full((5, 2), np.nan),
                                   np.ones((4, 2)), np.ones((5, 6)), np.ones((5, 0)),
                                   np.ones(5)],
                         ids=["complex", "non-finite", "rows", "columns", "empty", "1-d"])
def test_efficiency_kernel_rejects_a_bad_basis(basis):
    # The basis B = sqrt(w) Pi of the efficiency kernel is checked through Pi.
    tg = TimeGrid(nodes=np.linspace(0.1, 0.9, 5), weights=np.full(5, 0.2), a=0.0, b=1.0)
    with pytest.raises(ValueError, match="interpolation"):
        TransferKernel(grid=tg, core=np.eye(2), interpolation=basis)


def test_non_finite_efficiency_kernel_is_rejected():
    *_, kern = build_small(k=3, n=3, level=3)
    core = kern.core.copy()
    core[0, 0] = math.inf
    with pytest.raises(ValueError, match="finite"):
        TransferKernel(grid=kern.grid, core=core, interpolation=kern.interpolation)
