import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from cribmem import propagators
from cribmem.errors import NumericsError
from cribmem.laplace import talbot_contour
from cribmem.model import DetuningGrid, build_detuning_grid, default_schedule, derive_params
from cribmem.propagators import ReadOut, stage_action
from cribmem.quadrature import GaussLegendre, tanh_sinh_grid


# The grid each protocol stage runs on, from the grid of the stored classes.
STAGE_GRIDS = {
    "S1": DetuningGrid.collapsed,          # read-in and read-out
    "S2": lambda g: g.controlled_by(1),    # dephasing
    "S3": lambda g: g.controlled_by(0),    # storage
    "S4": lambda g: g.controlled_by(-1),   # rephasing
}


def block_reversal_permutation(grid: DetuningGrid) -> np.ndarray:
    """Joint-layout permutation Delta_k -> -Delta_k (maps stage 2 onto 4)."""
    return np.arange(grid.k * grid.n).reshape(grid.k, grid.n)[:, ::-1].ravel()


def stage_matrix(u: complex, grid: DetuningGrid) -> np.ndarray:
    """Assemble the generator on one grid at Laplace moment u (a dense reference)."""
    if u == 0:
        raise ValueError("u = 0 is a singular Laplace moment (1/u coupling)")
    m = -1j * np.diag(grid.phases.astype(complex))
    m -= (1.0 / complex(u)) * np.outer(np.ones(grid.phases.size), grid.joint_weights)
    return m


def action_expm(u, grid: DetuningGrid, duration: float) -> np.ndarray:
    """exp(M * duration) as the action on the identity at one node."""
    dim = grid.k * grid.n
    return stage_action(grid, [u], np.eye(dim), [duration]).states[0, 0]


def brute_force_stage(stage: str, u: complex, grid: DetuningGrid) -> np.ndarray:
    """Element-by-element generator assembly from the index formulas."""
    k, n = grid.k, grid.n
    sg = grid.controlled_weights.sum()
    if stage == "S1":
        m = np.zeros((k, k), dtype=complex)
        for j in range(k):
            for jj in range(k):
                m[j, jj] = -(sg / u) * grid.intrinsic_weights[jj]
                if j == jj:
                    m[j, jj] += -1j * grid.intrinsic_nodes[j]
        return m
    m = np.zeros((k * n, k * n), dtype=complex)
    for j in range(k):
        for kk in range(n):
            row = j * n + kk
            if stage == "S2":
                phase = grid.intrinsic_nodes[j] + grid.controlled_nodes[kk]
            elif stage == "S4":
                phase = grid.intrinsic_nodes[j] - grid.controlled_nodes[kk]
            else:
                phase = grid.intrinsic_nodes[j]
            for jj in range(k):
                for ll in range(n):
                    col = jj * n + ll
                    m[row, col] = -(1.0 / u) * (
                        grid.intrinsic_weights[jj] * grid.controlled_weights[ll])
                    if row == col:
                        m[row, col] += -1j * phase
    return m


def small_grid(k=2, n=2) -> DetuningGrid:
    # Hand-built asymmetric-weight grid; exercises the generic paths.
    return DetuningGrid(
        intrinsic_nodes=np.linspace(-0.5, 0.5, k) if k > 1 else np.array([0.0]),
        intrinsic_weights=np.linspace(0.4, 0.6, k) if k > 1 else np.array([1.0]),
        controlled_nodes=np.linspace(-2.0, 2.0, n) if n > 1 else np.array([0.0]),
        controlled_weights=np.linspace(0.45, 0.55, n) if n > 1 else np.array([1.0]),
    )


def test_stage_matrix_degenerate_scalar():
    g = build_detuning_grid(0.1, 0.0, k=1, n=1)
    u = 2.0 + 1.5j
    gen = stage_matrix(u, g.collapsed())
    assert gen.shape == (1, 1)
    assert gen[0, 0] == pytest.approx(-1.0 / u, rel=1e-15)


def test_stage_s2_s4_sign_reversal():
    delta = 0.8
    g = DetuningGrid(np.array([0.0]), np.array([1.0]),
                     np.array([delta]), np.array([1.0]))
    u = 1.0 + 1.0j
    m2 = stage_matrix(u, g)
    m4 = stage_matrix(u, g.controlled_by(-1))
    assert m2[0, 0] - m4[0, 0] == pytest.approx(-2j * delta, rel=1e-15)
    assert (m2 + 1j * delta * np.eye(1) == m4 - 1j * delta * np.eye(1)).all()


@pytest.mark.parametrize("stage", STAGE_GRIDS, ids=lambda stage: f"Stage.{stage}")
def test_stage_matrix_matches_brute_force(stage):
    g = small_grid(2, 2)
    u = -1.3 + 2.2j
    got = stage_matrix(u, STAGE_GRIDS[stage](g))
    want = brute_force_stage(stage, u, g)
    assert np.allclose(got, want, rtol=0.0, atol=1e-15)


def test_stage_matrix_rejects_zero_u():
    with pytest.raises(ValueError):
        stage_matrix(0.0, small_grid().collapsed())


def test_s2_on_negated_grid_equals_s4_exactly():
    g = build_detuning_grid(0.1, 1.0, k=3, n=5)
    negated = DetuningGrid(g.intrinsic_nodes, g.intrinsic_weights,
                           -g.controlled_nodes, g.controlled_weights)
    u = 0.9 - 1.1j
    m2_negated = stage_matrix(u, negated)
    m4 = stage_matrix(u, g.controlled_by(-1))
    assert np.array_equal(m2_negated, m4)


def test_block_reversal_permutation_maps_s2_to_s4():
    g = build_detuning_grid(0.1, 1.0, k=3, n=5)
    u = 0.9 - 1.1j
    perm = block_reversal_permutation(g)
    m2 = stage_matrix(u, g)
    m4 = stage_matrix(u, g.controlled_by(-1))
    assert np.array_equal(m2[np.ix_(perm, perm)], m4)


def test_degenerate_controlled_grid_lifts_to_s1():
    g = build_detuning_grid(0.25, 0.0, k=3, n=1)
    u = 1.7 + 0.3j
    m1 = stage_matrix(u, g.collapsed())
    for stage in ("S2", "S3", "S4"):
        assert np.array_equal(stage_matrix(u, STAGE_GRIDS[stage](g)), m1)


def test_propagator_exp_scalar():
    g = build_detuning_grid(0.1, 0.0, k=1, n=1)
    u = 1.0 + 2.0j
    out = action_expm(u, g.collapsed(), 0.8)
    assert out[0, 0] == pytest.approx(np.exp(-0.8 / u), rel=1e-13)


def test_propagator_exp_matches_scaling_and_squaring():
    g = small_grid(2, 3)
    u = 0.6 - 1.4j
    for to_stage in STAGE_GRIDS.values():
        got = action_expm(u, to_stage(g), 0.7)
        want = scipy.linalg.expm(0.7 * stage_matrix(u, to_stage(g)))
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-9


def test_stage_action_on_defective_generator_matches_expm():
    # Two intrinsic classes at +-1/2 with equal weights: at u = 1 the stage-1
    # generator is -I/2 plus a nilpotent part, a 2x2 Jordan block, which has
    # no eigenvector basis.  The action needs none.
    g = DetuningGrid(np.array([-0.5, 0.5]), np.array([0.5, 0.5]),
                     np.array([0.0]), np.array([1.0]))
    m = stage_matrix(1.0, g.collapsed())
    jordan = m + 0.5 * np.eye(2)
    assert np.array_equal(jordan @ jordan, np.zeros((2, 2)))
    assert np.any(jordan != 0.0)
    for t in (0.3, 1.0, 4.0):
        want = scipy.linalg.expm(m * t)
        got = action_expm(1.0, g.collapsed(), t)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_semigroup_property_all_stages_all_nodes():
    g = build_detuning_grid(0.2, 1.0, k=3, n=3)
    us = talbot_contour(16, 1.0).nodes
    for to_stage in STAGE_GRIDS.values():
        sg = to_stage(g)
        eye = np.eye(sg.k * sg.n)
        whole = stage_action(sg, us, eye, [1.0]).states[0]
        first = stage_action(sg, us, eye, [0.65]).states[0]
        part = stage_action(sg, us, first, [0.35]).states[0]
        for j in range(us.size):
            rel = np.linalg.norm(whole[j] - part[j]) / np.linalg.norm(whole[j])
            assert rel < 1e-8


def stage3_by_reduction(g: DetuningGrid, us, tau: float, x: np.ndarray) -> np.ndarray:
    """exp(M3 tau) x from the block reduction, for each node in us."""
    sums = x.reshape(g.k, g.n, -1).transpose(0, 2, 1) @ g.controlled_weights
    corr = ReadOut(g, us, tau).correction @ sums
    phase = np.exp(-1j * g.controlled_by(0).phases * tau)[:, None]
    return phase * x - np.repeat(corr, g.n, axis=1)


def test_stage3_action_matches_dense_exponential():
    g = build_detuning_grid(0.3, 1.2, k=3, n=3)
    us = [0.8 + 1.7j, -0.4 + 2.5j]
    tau = 2.3
    rng = np.random.default_rng(5)
    x = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    got = stage3_by_reduction(g, us, tau, x)
    for j, u in enumerate(us):
        dense = scipy.linalg.expm(stage_matrix(u, g.controlled_by(0)) * tau)
        assert np.allclose(got[j], dense @ x, atol=1e-11)


def test_stage3_action_zero_duration_is_identity():
    g = build_detuning_grid(0.3, 1.2, k=3, n=3)
    x = np.eye(9, dtype=complex)
    got = stage3_by_reduction(g, [1.0 + 1.0j], 0.0, x)
    assert np.allclose(got[0], x, atol=1e-14)


def stage2_nodes():
    # Three Talbot nodes, one of them in the left half plane.
    contour = talbot_contour(16, 1.0)
    us = contour.nodes[[7, 2, 0]]
    assert us[0].real < 0.0 < us[2].real
    return us


def test_stage2_action_matches_dense_exponential():
    g = build_detuning_grid(0.3, 2.0, k=3, n=5)
    tau_d = 1.0
    times = [0.0, 1e-9, 2e-9, tau_d]
    rng = np.random.default_rng(7)
    x = rng.standard_normal((15, 2)) + 1j * rng.standard_normal((15, 2))
    us = stage2_nodes()
    got = stage_action(g, us, x, times)
    assert got.states.shape == (4, 3, 15, 2)
    for j, u in enumerate(us):
        for i, t in enumerate(times):
            want = scipy.linalg.expm(stage_matrix(u, g) * t) @ x
            err = np.abs(got.states[i, j] - want).max() / np.abs(want).max()
            assert err <= 1e-12


def extreme_nodes():
    # The left-most Talbot node and the one of largest |1/u|.
    nodes = talbot_contour(32, 1.0).nodes
    left = nodes[np.argmin(nodes.real)]
    assert left.real < 0.0
    return [left, nodes[np.argmax(np.abs(1.0 / nodes))]]


@pytest.mark.parametrize("stage, d0, gamma, k, n, duration", [
    ("S2", 100.0, 10.0, 3, 33, 1.0),           # tau_d at gamma = 10
    ("S4", 100.0, 10.0, 3, 33, 1.0),
    ("S1", 800.0, 10.0, 33, 33, 39.894228),    # tau_p at d0 = 800
], ids=["S2", "S4", "S1"])
def test_action_at_widest_default_bandwidths_matches_expm(stage, d0, gamma, k, n, duration):
    params = derive_params(d0, gamma)
    g = STAGE_GRIDS[stage](build_detuning_grid(params.gamma0_rel, gamma, k, n))
    dim = g.k * g.n
    for u in extreme_nodes():
        got = stage_action(g, [u], np.eye(dim), [0.5 * duration, duration]).states
        for i, t in enumerate((0.5 * duration, duration)):
            want = scipy.linalg.expm(stage_matrix(u, g) * t)
            err = np.abs(got[i, 0] - want).max() / np.abs(want).max()
            assert err <= 1e-13, (stage, u, t, err)


@pytest.mark.parametrize("d0", [100.0, 800.0])
def test_lift_unchanged_by_sixteen_more_collocation_nodes(d0, monkeypatch):
    params = derive_params(d0, 10.0)
    g = build_detuning_grid(params.gamma0_rel, 10.0, 33, 33)
    contour = talbot_contour(32, 1.0)
    us = contour.nodes
    lift = np.kron(np.eye(g.k), np.ones((g.n, 1)))
    base = stage_action(g, us, lift, [1.0])
    monkeypatch.setattr(propagators, "_MARGIN", propagators._MARGIN + 16)
    more = stage_action(g, us, lift, [1.0])
    assert more.collocation_nodes == base.collocation_nodes + 16
    err = np.abs(more.states - base.states).max() / np.abs(base.states).max()
    assert err <= 1e-13


def test_stored_state_action_memory_stays_near_its_output():
    # modes-q9's stored states: K = 9, N = 15, the q9 times t <= tau_d and
    # the 16 upper-half contour nodes.  Chunked temporaries keep the traced
    # peak within twice the output array.
    params = derive_params(100.0, 3.0)
    schedule = default_schedule(params)
    g = build_detuning_grid(params.gamma0_rel, 3.0, 9, 15)
    contour = talbot_contour(32, 1.0)
    us = contour.nodes
    nodes = tanh_sinh_grid(0.0, schedule.tau_r, 9).nodes
    times = nodes[nodes <= schedule.tau_d]
    x = np.ones((g.k * g.n, 1))
    tracemalloc.start()
    try:
        states = stage_action(g, us, x, times).states
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states.shape == (times.size, 16, 135, 1)
    assert peak <= 2 * states.nbytes, (peak, states.nbytes)


def test_lift_action_memory_stays_near_its_output():
    # The lift of a K = N = 33, gamma = 10 kernel: one time and K columns on
    # the 16 upper-half contour nodes, so the node chunks bound the products.
    params = derive_params(100.0, 10.0)
    g = build_detuning_grid(params.gamma0_rel, 10.0, 33, 33)
    us = talbot_contour(32, 1.0).nodes
    lift = np.kron(np.eye(g.k), np.ones((g.n, 1)))
    tracemalloc.start()
    try:
        states = stage_action(g, us, lift, [1.0]).states
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states.shape == (1, 16, 1089, 33)
    assert peak <= 2 * states.nbytes, (peak, states.nbytes)


def unfactored_action(grid: DetuningGrid, us, x, times) -> np.ndarray:
    """The stage action with a full K*N exponential table at each time's inner
    nodes and one product per (time, node): the route the phase factors replaced."""
    phi, w = grid.phases, grid.joint_weights
    x = np.asarray(x, dtype=complex)
    x = x[None] if x.ndim == 2 else x
    beta = np.max(np.abs(phi)) + np.max(np.abs(1.0 / us)) * w.sum()
    n = max(24, int(np.ceil(beta * times[-1])) + propagators._MARGIN)
    rule = GaussLegendre(n, times[-1])
    waves = np.exp(-1j * np.multiply.outer(rule.nodes, phi))
    a = propagators._volterra_matrix(rule, waves @ w)
    fields = [np.linalg.solve(np.eye(n) + a / u, (w * waves) @ x[j % x.shape[0]])
              for j, u in enumerate(us)]
    out = np.empty((len(times), len(us)) + x.shape[1:], dtype=complex)
    for i, t in enumerate(times):
        sigma, omega = rule.inner(np.array([t]))
        interp = omega[0][:, None] * rule.interpolation(sigma[0])
        table = np.exp(1j * np.multiply.outer(phi, sigma[0]))
        for j, u in enumerate(us):
            integral = table @ (interp @ fields[j])
            out[i, j] = np.exp(-1j * phi * t)[:, None] * (x[j % x.shape[0]] - integral / u)
    return out


def kn33_gamma10():
    params = derive_params(100.0, 10.0)
    schedule = default_schedule(params)
    g = build_detuning_grid(params.gamma0_rel, 10.0, 33, 33)
    nodes = tanh_sinh_grid(0.0, schedule.tau_r, 6).nodes
    return g, talbot_contour(32, 1.0).nodes, nodes[nodes <= schedule.tau_d]


@pytest.mark.parametrize("case", ["stored", "lift", "k1-batch"])
def test_action_matches_the_unfactored_route(case):
    if case == "k1-batch":
        # The perturbative numeric's shape: K = 1, about a thousand nodes.
        g = build_detuning_grid(1.0, 10.0, k=1, n=33)
        us = np.divide.outer(talbot_contour(32, 1.0).nodes, np.linspace(0.05, 1.0, 64)).ravel()
        x, times = np.ones((33, 1)), np.array([1.0])
    else:
        g, us, times = kn33_gamma10()
        if case == "stored":
            x = np.ones((g.k * g.n, 1))
        else:
            x, times = np.kron(np.eye(g.k), np.ones((g.n, 1))), np.array([1.0])
    got = stage_action(g, us, x, times).states
    want = unfactored_action(g, us, x, times)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_action_without_positive_time_returns_x():
    g = build_detuning_grid(0.3, 2.0, k=3, n=5)
    us = stage2_nodes()
    x = np.arange(30.0).reshape(15, 2)
    empty = stage_action(g, us, x, [])
    assert empty.states.shape == (0, 3, 15, 2)
    zero = stage_action(g, us, x, [0.0, 0.0])
    assert zero.collocation_nodes == 0
    assert np.array_equal(zero.states, np.broadcast_to(x, (2, 3, 15, 2)))


def test_singular_collocation_system_raises_numerics_error(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    g = build_detuning_grid(0.3, 2.0, k=3, n=5)
    with pytest.raises(NumericsError, match=r"3 x 5 action over T=0\.5 at beta=.* with "
                                            r"\d+ collocation nodes: collocation system "
                                            r"is singular at u="):
        stage_action(g, stage2_nodes(), np.ones((15, 1)), [0.5])


def test_collocation_count_above_the_cap_raises_before_building(monkeypatch):
    # A duration whose bandwidth asks for about 1100 nodes, just over the
    # cap of 1024; the check must come before the rule of that size.
    def never(*args, **kwargs):
        raise AssertionError("collocation rule built past the cap")

    monkeypatch.setattr(propagators, "GaussLegendre", never)
    g = build_detuning_grid(0.3, 2.0, k=3, n=5).collapsed()
    beta = np.max(np.abs(g.phases)) + g.joint_weights.sum()   # u = 1
    duration = (1100 - propagators._MARGIN) / beta
    with pytest.raises(NumericsError, match=r"3 x 1 action over T=.* at beta=.* "
                                            r"needs 110[01] collocation nodes, more than 1024"):
        stage_action(g, [1.0], np.ones((3, 1)), [duration])


def test_stage2_action_batch_equals_single_nodes():
    g = build_detuning_grid(0.3, 2.0, k=3, n=5)
    us = stage2_nodes()
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 15, 1)) + 1j * rng.standard_normal((3, 15, 1))
    batch = stage_action(g, us, x, [0.2, 0.7]).states
    for j, u in enumerate(us):
        single = stage_action(g, [u], x[j], [0.2, 0.7]).states[:, 0]
        assert np.allclose(batch[:, j], single, rtol=0.0, atol=1e-14)


def test_stage2_action_rejects_bad_times():
    g = build_detuning_grid(0.3, 2.0, k=3, n=5)
    x = np.ones((15, 1))
    for times in ([0.5, 0.2], [-0.1, 0.3]):
        with pytest.raises(ValueError, match="non-decreasing"):
            stage_action(g, stage2_nodes(), x, times)


def test_stage2_action_non_finite_input_raises():
    g = build_detuning_grid(0.3, 2.0, k=3, n=5)
    x = np.ones((15, 1))
    x[4, 0] = np.nan
    with pytest.raises(NumericsError, match="3 x 5 action over T=0.5 .*non-finite.*u="):
        stage_action(g, stage2_nodes(), x, [0.5])


def test_stage2_action_gives_stage4_read_out_rows():
    # M2^T = D M2 D^-1 with D = diag(g), and stage 4 is stage 2 reflected:
    # g^T exp(M4 t) = (P D exp(M2 t) 1)^T, the read-out rows with no storage.
    g = build_detuning_grid(0.3, 2.0, k=3, n=5)
    w = g.joint_weights
    times = [0.3, 1.0]
    us = stage2_nodes()
    states = stage_action(g, us, np.ones((15, 1)), times).states[..., 0]
    read_out = ReadOut(g, us, 0.0)
    for j, u in enumerate(us):
        rows = read_out.rows(states[:, j], j)
        for i, t in enumerate(times):
            want = w @ scipy.linalg.expm(stage_matrix(u, g.controlled_by(-1)) * t)
            assert np.abs(rows[i] - want).max() <= 1e-12 * np.abs(want).max()


def test_read_out_rows_match_dense_exponentials():
    # (P D x)^T exp(M3 tau_s) for random states x after a storage tau_s > 0,
    # against expm of the storage generator; the rows of all nodes at once
    # (a (nodes, 1, KN) stack) equal those of each node by itself.
    g = build_detuning_grid(0.3, 2.0, k=3, n=5)
    d, perm = np.diag(g.joint_weights), block_reversal_permutation(g)
    us = stage2_nodes()
    rng = np.random.default_rng(11)
    x = rng.standard_normal((us.size, 4, 15)) + 1j * rng.standard_normal((us.size, 4, 15))
    tau_s = 0.8
    read_out = ReadOut(g, us, tau_s)
    stacked = read_out.rows(x[:, :1], slice(None))
    for j, u in enumerate(us):
        m3 = stage_matrix(u, g.controlled_by(0))
        want = (d @ x[j].T)[perm].T @ scipy.linalg.expm(m3 * tau_s)
        got = read_out.rows(x[j], j)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(stacked[j, 0] - want[0]).max() <= 1e-12 * np.abs(want).max()
