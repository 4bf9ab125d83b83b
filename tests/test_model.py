import math
import warnings
from decimal import Decimal, getcontext

import numpy as np
import pytest

from cribmem.model import (
    DetuningGrid,
    PhysicalParams,
    ProtocolSchedule,
    build_detuning_grid,
    default_schedule,
    derive_params,
    gaussian_pdf,
)
from cribmem.quadrature import tanh_sinh_grid

# 50-digit references so closed forms are checked against arithmetic that is
# independent of the float64 evaluation order.
getcontext().prec = 50
_PI = Decimal("3.14159265358979323846264338327950288419716939937511")
_SQRT_2PI = (2 * _PI).sqrt()
_SQRT_PI = _PI.sqrt()


def test_derive_params_d0_800():
    p = derive_params(800.0, 10.0)
    expected = float(_SQRT_2PI / 800)
    assert p.gamma0_rel == pytest.approx(expected, rel=1e-12)
    assert p.gamma0_rel == pytest.approx(3.1333e-3, rel=1e-4)


def test_derive_params_identity_case():
    p = derive_params(math.sqrt(2.0 * math.pi), 0.0)
    assert p.gamma0_rel == pytest.approx(1.0, rel=1e-12)


def test_derive_params_t2():
    p = derive_params(800.0, 10.0)
    assert p.t2_rel == pytest.approx(float(800 / _SQRT_PI), rel=1e-12)
    assert p.t2_rel == pytest.approx(451.35, rel=1e-4)


def test_derive_params_roundtrip():
    for d0 in (0.37, 5.0, 100.0, 800.0, 4096.0):
        p = derive_params(d0, 1.0)
        assert math.sqrt(2.0 * math.pi) / p.gamma0_rel == pytest.approx(d0, rel=1e-12)


def test_derive_params_rejects_bad_inputs():
    with pytest.raises(ValueError):
        derive_params(0.0, 1.0)
    with pytest.raises(ValueError):
        derive_params(-5.0, 1.0)
    with pytest.raises(ValueError):
        derive_params(10.0, -1.0)


def test_params_derive_width_and_coherence_time_from_d0():
    p = PhysicalParams(d0=100.0, gamma_rel=3.0)
    assert p.gamma0_rel == math.sqrt(2.0 * math.pi) / 100.0
    assert p.t2_rel == math.sqrt(2.0) / p.gamma0_rel
    with pytest.raises(ValueError):
        PhysicalParams(d0=math.nan, gamma_rel=3.0)


def test_default_schedule_d0_800():
    sched = default_schedule(derive_params(800.0, 10.0))
    assert sched.tau_p == pytest.approx(800.0 / (8.0 * math.sqrt(2.0 * math.pi)), rel=1e-12)
    assert sched.tau_p == pytest.approx(39.89, abs=5e-3)
    assert sched.tau_s == pytest.approx(4.0 * sched.tau_p, rel=1e-12)
    assert sched.tau_s == pytest.approx(159.58, abs=0.01)
    assert sched.tau_d == 1.0
    assert sched.tau_r == sched.tau_p + 1.0


def test_schedule_storage_fraction_of_t2():
    for d0 in (10.0, 100.0, 800.0):
        p = derive_params(d0, 1.0)
        sched = default_schedule(p)
        assert sched.tau_s / p.t2_rel == pytest.approx(1.0 / math.sqrt(8.0), rel=1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ProtocolSchedule(tau_p=-1.0, tau_d=1.0, tau_s=0.5)
    with pytest.raises(ValueError):
        ProtocolSchedule(tau_p=1.0, tau_d=math.inf, tau_s=0.5)


def test_gaussian_pdf_center_value():
    assert gaussian_pdf(0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)
    assert gaussian_pdf(0.0, 1.0) == pytest.approx(0.398942, abs=1e-6)


def test_gaussian_pdf_even():
    for a in (0.3, 1.7, 4.2):
        for w in (0.5, 2.0):
            assert gaussian_pdf(a, w) == gaussian_pdf(-a, w)


def test_gaussian_pdf_normalization():
    # +-8 widths capture all mass to below 1e-12
    for w in (0.25, 1.0, 3.0):
        grid = tanh_sinh_grid(-8.0 * w, 8.0 * w, 7)
        total = (grid.weights @ gaussian_pdf(grid.nodes, w)).real
        assert total >= 1.0 - 1e-12
        assert total == pytest.approx(1.0, abs=1e-11)


def test_gaussian_pdf_rejects_bad_width():
    with pytest.raises(ValueError):
        gaussian_pdf(0.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_pdf(0.0, -1.0)


def test_grid_degenerate_single_class():
    g = build_detuning_grid(0.1, 1.0, k=1, n=1)
    assert g.intrinsic_nodes.tolist() == [0.0]
    assert g.intrinsic_weights.tolist() == [1.0]
    assert g.controlled_weights.tolist() == [1.0]
    assert g.joint_weights.tolist() == [1.0]


def test_grid_weight_sum_default_extent():
    g = build_detuning_grid(0.1, 1.0, k=33, n=33, extent_sigmas=5.0)
    # erfc bounds the truncated tail; the node-centered rectangles reach
    # half a step past the extreme nodes, so the actual deficit is smaller.
    tail = math.erfc(5.0 / math.sqrt(2.0))
    for total in (g.intrinsic_weights.sum(), g.controlled_weights.sum()):
        assert total >= 1.0 - 6e-7
        assert total <= 1.0
        assert 0.0 <= (1.0 - total) <= tail


def test_grid_joint_layout():
    g = build_detuning_grid(0.1, 1.0, k=3, n=3)
    assert g.joint_weights.size == 9
    # entry 4 (0-based) is the center x center product
    assert g.joint_weights[4] == pytest.approx(
        g.intrinsic_weights[1] * g.controlled_weights[1], rel=1e-15)


def test_grid_joint_weights_brute_force():
    for k, n in ((1, 3), (3, 1), (3, 3)):
        g = build_detuning_grid(0.2, 1.5, k=k, n=n)
        for j in range(k):
            for kk in range(n):
                assert g.joint_weights[j * n + kk] == pytest.approx(
                    g.intrinsic_weights[j] * g.controlled_weights[kk], rel=1e-15)


def test_grid_symmetry_and_spacing():
    g = build_detuning_grid(0.05, 2.0, k=9, n=7)
    for nodes in (g.intrinsic_nodes, g.controlled_nodes):
        assert np.array_equal(nodes, -nodes[::-1])  # exact by construction
        steps = np.diff(nodes)
        assert np.allclose(steps, steps[0], rtol=1e-12)
    assert g.is_symmetric()


def test_grid_rejects_even_counts():
    with pytest.raises(ValueError):
        build_detuning_grid(0.1, 1.0, k=4, n=3)
    with pytest.raises(ValueError):
        build_detuning_grid(0.1, 1.0, k=3, n=8)


def test_grid_zero_controlled_width_needs_degenerate_n():
    with pytest.raises(ValueError):
        build_detuning_grid(0.1, 0.0, k=3, n=3)
    g = build_detuning_grid(0.1, 0.0, k=3, n=1)
    assert g.controlled_nodes.tolist() == [0.0]


def test_grid_rejects_underflowing_weights():
    # At 40 sigmas the edge weights exp(-800) underflow to zero; the kernel
    # divides by the weights, so such a grid must not be built.
    with pytest.raises(ValueError, match="intrinsic weights must be positive"):
        build_detuning_grid(0.1, 1.0, k=5, n=5, extent_sigmas=40.0)
    with pytest.raises(ValueError, match="controlled weights must be positive"):
        build_detuning_grid(0.1, 1.0, k=1, n=5, extent_sigmas=40.0)
    g = build_detuning_grid(0.1, 1.0, k=5, n=5, extent_sigmas=30.0)
    assert np.all(g.intrinsic_weights > 0.0) and np.all(g.controlled_weights > 0.0)


def test_grid_rejects_denormal_width():
    # A denormal width squares to a zero variance; it is refused by name
    # before any density is evaluated, so no floating-point warning fires.
    for width in (5e-324, 1e-320, 1e-310):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="variance underflows to zero"):
                build_detuning_grid(0.1, width, k=3, n=9)


def test_grid_coarse_riemann_sum_reported_not_hidden():
    # At K = 5 the node-centered Riemann sum overshoots one (comb aliasing);
    # the weights keep it rather than renormalizing it away.
    g = build_detuning_grid(0.1, 1.0, k=5, n=5)
    assert 1.0 - g.intrinsic_weights.sum() < 0.0
    assert g.intrinsic_weights.sum() == pytest.approx(1.085, abs=1e-3)


def test_grid_phase_vectors():
    # Asymmetric nodes and unequal weights, so a reflected comb differs from
    # a negated one and every weight product is distinct.
    g = DetuningGrid(np.array([-0.3, 0.1, 0.45]), np.array([0.2, 0.3, 0.35]),
                     np.array([-1.1, 0.2, 0.7, 2.5]), np.array([0.1, 0.2, 0.3, 0.25]))
    g0, gc = g.intrinsic_weights, g.controlled_weights
    dephase, rephase, off = g, g.controlled_by(-1), g.controlled_by(0)
    for j in range(3):
        for kk in range(4):
            i = j * 4 + kk
            assert dephase.phases[i] == g.intrinsic_nodes[j] + g.controlled_nodes[kk]
            assert rephase.phases[i] == g.intrinsic_nodes[j] - g.controlled_nodes[kk]
            assert off.phases[i] == g.intrinsic_nodes[j]
            for stage in (dephase, rephase, off):
                assert stage.joint_weights[i] == g0[j] * gc[kk]
    collapsed = g.collapsed()
    assert (collapsed.k, collapsed.n) == (3, 1)
    assert np.array_equal(collapsed.phases, g.intrinsic_nodes)
    for j in range(3):
        assert collapsed.joint_weights[j] == g0[j] * gc.sum()


def test_grid_rephasing_time():
    g = build_detuning_grid(0.1, 2.0, k=3, n=11)
    dd = g.controlled_nodes[1] - g.controlled_nodes[0]
    assert g.rephasing_time() == pytest.approx(2.0 * math.pi / dd, rel=1e-12)
    assert build_detuning_grid(0.1, 0.0, k=3, n=1).rephasing_time() == math.inf
    # Reversing the field reverses the comb but not its step; with the
    # field off the comb has no spread and never rephases.
    assert g.controlled_by(-1).rephasing_time() == g.rephasing_time()
    assert g.controlled_by(0).rephasing_time() == math.inf
    assert g.collapsed().rephasing_time() == math.inf


def test_custom_grid_construction_checked():
    with pytest.raises(ValueError):
        DetuningGrid(np.array([0.0, 1.0]), np.array([1.0]),
                     np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="intrinsic weights must be positive"):
        DetuningGrid(np.array([-0.1, 0.0, 0.1]), np.array([0.0, 1.0, 0.0]),
                     np.array([0.0]), np.array([1.0]))
