import numpy as np
import pytest
import scipy.linalg

from cribmem import NumericsError, build_detuning_grid, talbot_contour
from cribmem.model import DetuningGrid
from cribmem.propagators import (
    Stage,
    block_reversal_permutation,
    phi1,
    stage2_action,
    stage3_rows,
    stage_eigen,
    stage_matrix,
)


def eigen_expm(e, duration: float) -> np.ndarray:
    """exp(M * duration) assembled from a stage_eigen decomposition of M."""
    return e.vectors @ (np.exp(e.values * duration)[:, None] * e.inverse)


def brute_force_stage(stage: Stage, u: complex, grid: DetuningGrid) -> np.ndarray:
    """Element-by-element generator assembly from the index formulas."""
    k, n = grid.k, grid.n
    sg = grid.controlled_weights.sum()
    if stage is Stage.S1:
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
            if stage is Stage.S2:
                phase = grid.intrinsic_nodes[j] + grid.controlled_nodes[kk]
            elif stage is Stage.S4:
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
    gen = stage_matrix(Stage.S1, u, g)
    assert gen.shape == (1, 1)
    assert gen[0, 0] == pytest.approx(-1.0 / u, rel=1e-15)


def test_stage_s2_s4_sign_reversal():
    delta = 0.8
    g = DetuningGrid(np.array([0.0]), np.array([1.0]),
                     np.array([delta]), np.array([1.0]))
    u = 1.0 + 1.0j
    m2 = stage_matrix(Stage.S2, u, g)
    m4 = stage_matrix(Stage.S4, u, g)
    assert m2[0, 0] - m4[0, 0] == pytest.approx(-2j * delta, rel=1e-15)
    assert (m2 + 1j * delta * np.eye(1) == m4 - 1j * delta * np.eye(1)).all()


@pytest.mark.parametrize("stage", list(Stage))
def test_stage_matrix_matches_brute_force(stage):
    g = small_grid(2, 2)
    u = -1.3 + 2.2j
    got = stage_matrix(stage, u, g)
    want = brute_force_stage(stage, u, g)
    assert np.allclose(got, want, rtol=0.0, atol=1e-15)


def test_stage_matrix_rejects_zero_u():
    with pytest.raises(ValueError):
        stage_matrix(Stage.S1, 0.0, small_grid())


def test_s2_on_negated_grid_equals_s4_exactly():
    g = build_detuning_grid(0.1, 1.0, k=3, n=5)
    negated = DetuningGrid(g.intrinsic_nodes, g.intrinsic_weights,
                           -g.controlled_nodes, g.controlled_weights)
    u = 0.9 - 1.1j
    m2_negated = stage_matrix(Stage.S2, u, negated)
    m4 = stage_matrix(Stage.S4, u, g)
    assert np.array_equal(m2_negated, m4)


def test_block_reversal_permutation_maps_s2_to_s4():
    g = build_detuning_grid(0.1, 1.0, k=3, n=5)
    u = 0.9 - 1.1j
    perm = block_reversal_permutation(g)
    m2 = stage_matrix(Stage.S2, u, g)
    m4 = stage_matrix(Stage.S4, u, g)
    assert np.array_equal(m2[np.ix_(perm, perm)], m4)


def test_degenerate_controlled_grid_lifts_to_s1():
    g = build_detuning_grid(0.25, 0.0, k=3, n=1)
    u = 1.7 + 0.3j
    m1 = stage_matrix(Stage.S1, u, g)
    for stage in (Stage.S2, Stage.S3, Stage.S4):
        assert np.array_equal(stage_matrix(stage, u, g), m1)


def test_propagator_exp_scalar():
    g = build_detuning_grid(0.1, 0.0, k=1, n=1)
    u = 1.0 + 2.0j
    out = eigen_expm(stage_eigen(Stage.S1, u, g), 0.8)
    assert out[0, 0] == pytest.approx(np.exp(-0.8 / u), rel=1e-13)


def test_propagator_exp_matches_scaling_and_squaring():
    g = small_grid(2, 3)
    u = 0.6 - 1.4j
    for stage in Stage:
        got = eigen_expm(stage_eigen(stage, u, g), 0.7)
        want = scipy.linalg.expm(0.7 * stage_matrix(stage, u, g))
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-9


def test_stage_eigen_defective_generator_raises():
    # Two intrinsic classes at +-1/2 with equal weights: at u = 1 the stage-1
    # generator is -I/2 plus a nilpotent part, a 2x2 Jordan block.
    g = DetuningGrid(np.array([-0.5, 0.5]), np.array([0.5, 0.5]),
                     np.array([0.0]), np.array([1.0]))
    m = stage_matrix(Stage.S1, 1.0, g)
    jordan = m + 0.5 * np.eye(2)
    assert np.array_equal(jordan @ jordan, np.zeros((2, 2)))
    assert np.any(jordan != 0.0)
    with pytest.raises(NumericsError, match=r"stage-1 .*u=\(1\+0j\).*cond="):
        stage_eigen(Stage.S1, 1.0, g)


def test_semigroup_property_all_stages_all_nodes():
    g = build_detuning_grid(0.2, 1.0, k=3, n=3)
    contour = talbot_contour(16, 1.0)
    for stage in Stage:
        for u in contour.nodes:
            e = stage_eigen(stage, complex(u), g)
            whole = eigen_expm(e, 1.0)
            part = eigen_expm(e, 0.35) @ eigen_expm(e, 0.65)
            rel = np.linalg.norm(whole - part) / np.linalg.norm(whole)
            assert rel < 1e-8


def test_phi1_small_and_large_arguments():
    z = np.array([0.0, 1e-9, 1e-9j, 0.3 + 0.1j, 4.0 - 2.0j])
    got = phi1(z)
    assert got[0] == pytest.approx(1.0)
    for zi, gi in zip(z[1:], got[1:]):
        want = (np.exp(zi) - 1.0) / zi if abs(zi) > 1e-7 else 1.0 + zi / 2.0
        assert abs(gi - want) < 1e-12


def test_stage3_action_matches_dense_exponential():
    g = build_detuning_grid(0.3, 1.2, k=3, n=3)
    u = 0.8 + 1.7j
    tau = 2.3
    dense = scipy.linalg.expm(stage_matrix(Stage.S3, u, g) * tau)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
    got = stage3_rows(a, u, g, tau, stage_eigen(Stage.S1, u, g))
    assert np.allclose(got, a @ dense, atol=1e-11)


def test_stage3_action_zero_duration_is_identity():
    g = build_detuning_grid(0.3, 1.2, k=3, n=3)
    a = np.eye(9, dtype=complex)
    got = stage3_rows(a, 1.0 + 1.0j, g, 0.0, stage_eigen(Stage.S1, 1.0 + 1.0j, g))
    assert np.allclose(got, a, atol=1e-14)


def stage2_nodes():
    # Three Talbot nodes, one of them in the left half plane.
    contour = talbot_contour(16, 1.0)
    us = contour.nodes[[0, 5, 8]]
    assert us[0].real < 0.0 < us[2].real
    return us


def test_stage2_action_matches_dense_exponential():
    g = build_detuning_grid(0.3, 2.0, k=3, n=5)
    tau_d = 1.0
    times = [0.0, 1e-9, 2e-9, tau_d]
    rng = np.random.default_rng(7)
    x = rng.standard_normal((15, 2)) + 1j * rng.standard_normal((15, 2))
    us = stage2_nodes()
    got = stage2_action(g, us, x, times)
    assert got.states.shape == (4, 3, 15, 2)
    for j, u in enumerate(us):
        for i, t in enumerate(times):
            want = scipy.linalg.expm(stage_matrix(Stage.S2, u, g) * t) @ x
            err = np.abs(got.states[i, j] - want).max() / np.abs(want).max()
            assert err <= 1e-12


def test_stage2_action_batch_equals_single_nodes():
    g = build_detuning_grid(0.3, 2.0, k=3, n=5)
    us = stage2_nodes()
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 15, 1)) + 1j * rng.standard_normal((3, 15, 1))
    batch = stage2_action(g, us, x, [0.2, 0.7]).states
    for j, u in enumerate(us):
        single = stage2_action(g, [u], x[j], [0.2, 0.7]).states[:, 0]
        assert np.allclose(batch[:, j], single, rtol=0.0, atol=1e-14)


def test_stage2_action_rejects_bad_times():
    g = build_detuning_grid(0.3, 2.0, k=3, n=5)
    x = np.ones((15, 1))
    for times in ([0.5, 0.2], [-0.1, 0.3]):
        with pytest.raises(ValueError, match="non-decreasing"):
            stage2_action(g, stage2_nodes(), x, times)


def test_stage2_action_non_finite_input_raises():
    g = build_detuning_grid(0.3, 2.0, k=3, n=5)
    x = np.ones((15, 1))
    x[4, 0] = np.nan
    with pytest.raises(NumericsError, match="did not converge.*u="):
        stage2_action(g, stage2_nodes(), x, [0.5])


def test_stage2_action_gives_stage4_read_out_rows():
    # M2^T = D M2 D^-1 with D = diag(g), and stage 4 is stage 2 reflected:
    # g^T exp(M4 t) = (g o exp(M2 t) 1)[perm].
    g = build_detuning_grid(0.3, 2.0, k=3, n=5)
    w = g.joint_weights
    perm = block_reversal_permutation(g)
    times = [0.3, 1.0]
    us = stage2_nodes()
    states = stage2_action(g, us, np.ones((15, 1)), times).states
    for j, u in enumerate(us):
        for i, t in enumerate(times):
            want = w @ scipy.linalg.expm(stage_matrix(Stage.S4, u, g) * t)
            got = (w * states[i, j, :, 0])[perm]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
