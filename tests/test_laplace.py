import math

import numpy as np
import pytest

from cribmem.laplace import LaplaceContour, invert, talbot_contour


# Bessel-series oracles for the classic transform pairs
#   L^-1[e^(-a/u)/u](z)   = J0(2 sqrt(a z))
#   L^-1[e^(-a/u)/u^2](z) = sqrt(z/a) J1(2 sqrt(a z))
def j0_series(x: float) -> float:
    total, term = 1.0, 1.0
    for m in range(1, 60):
        term *= -(x * x / 4.0) / (m * m)
        total += term
    return total


def j1_series(x: float) -> float:
    total = term = x / 2.0
    for m in range(1, 60):
        term *= -(x * x / 4.0) / (m * (m + 1))
        total += term
    return total


def test_unit_step_pair():
    c = talbot_contour(32, 1.0)
    assert invert(c, 1.0 / c.nodes) == pytest.approx(1.0, abs=1e-10)


def test_ramp_pair():
    c = talbot_contour(32, 1.0)
    assert invert(c, c.nodes**-2.0) == pytest.approx(1.0, abs=1e-10)


def test_exponential_pair():
    c = talbot_contour(32, 1.0)
    val = invert(c, 1.0 / (c.nodes + 3.0))
    assert val == pytest.approx(math.exp(-3.0), abs=1e-8)


def test_bessel_j0_pair():
    c = talbot_contour(32, 1.0)
    val = invert(c, np.exp(-1.0 / c.nodes) / c.nodes)
    assert val == pytest.approx(j0_series(2.0), abs=1e-8)
    assert j0_series(2.0) == pytest.approx(0.223891, abs=1e-6)


def test_bessel_j1_pair():
    c = talbot_contour(32, 1.0)
    val = invert(c, np.exp(-1.0 / c.nodes) / c.nodes**2)
    assert val == pytest.approx(j1_series(2.0), abs=1e-8)
    assert j1_series(2.0) == pytest.approx(0.576725, abs=1e-6)


def test_zero_transform():
    c = talbot_contour(32, 1.0)
    assert invert(c, np.zeros(16)) == 0.0


def test_inversion_at_other_abscissa():
    c = talbot_contour(32, 2.5)
    val = invert(c, 1.0 / (c.nodes + 3.0))
    assert val == pytest.approx(math.exp(-7.5), abs=1e-10)


def test_nodes_off_real_axis():
    for m in (8, 32):
        c = talbot_contour(m, 1.0)
        assert np.all(np.abs(c.nodes.imag) > 1e-12 * np.abs(c.nodes.real))


def test_contour_keeps_the_upper_half():
    c = talbot_contour(32, 1.0)
    assert c.m == 32 and c.nodes.shape == c.weights.shape == (16,)
    assert np.all(c.nodes.imag > 0.0)


def test_contour_at_z_is_the_unit_contour_divided_by_z():
    # Nodes scale like 1/z and the weights' exp(u z) does not change.
    unit = talbot_contour(32, 1.0)
    for z in (1e-3, 0.37, 1.0, 2.5, 40.0):
        c = talbot_contour(32, z)
        assert np.allclose(c.nodes, unit.nodes / z, rtol=1e-15, atol=0.0)
        assert np.allclose(c.weights, unit.weights / z, rtol=1e-14, atol=0.0)


def test_half_sum_equals_full_contour_sum():
    # For a real function the conjugate pairs sum to twice the real part of
    # the upper-half term, so the half rule is the full midpoint rule up to
    # the rounding of the cancelling terms (~1e-15 here).  The lower half is
    # the conjugate of the upper, each pair's weight halved.
    for m in (16, 32):
        c = talbot_contour(m, 1.5)
        nodes = np.concatenate([c.nodes, np.conj(c.nodes)])
        weights = 0.5 * np.concatenate([c.weights, np.conj(c.weights)])
        for transform in (lambda u: 1.0 / (u + 3.0), lambda u: np.exp(-1.0 / u) / u**2):
            full = np.dot(weights, transform(nodes))
            assert abs(full.imag) < 1e-13
            assert abs(invert(c, transform(c.nodes)) - full.real) < 1e-13


def test_rejects_small_m_and_bad_scale():
    for m in (7, 17, 33, 66, 200):
        with pytest.raises(ValueError, match="even integer of 8 to 64"):
            talbot_contour(m, 1.0)
    for m in (16.5, 16.0):
        with pytest.raises(ValueError, match="integer"):
            talbot_contour(m, 1.0)
    with pytest.raises(ValueError):
        talbot_contour(32, 0.0)


def test_sample_length_mismatch():
    c = talbot_contour(16, 1.0)
    with pytest.raises(ValueError):
        invert(c, np.ones(17))


def test_linearity():
    # The inverse of a real function is linear over the reals.
    rng = np.random.default_rng(7)
    c = talbot_contour(32, 1.0)
    f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    g = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    alpha, beta = 1.3, -0.7
    lhs = invert(c, alpha * f + beta * g)
    rhs = alpha * invert(c, f) + beta * invert(c, g)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_inverts_each_trailing_column():
    c = talbot_contour(32, 1.0)
    fam = np.array([0.5, 1.0, 2.0])
    both = invert(c, 1.0 / np.add.outer(c.nodes, fam))
    assert both.shape == (3,)
    # Summed in another order: equal to the rounding of terms up to ~50.
    one = [invert(c, 1.0 / (c.nodes + a)) for a in fam]
    assert np.allclose(both, one, rtol=0.0, atol=1e-14)


def slowed(c: LaplaceContour, speed: float) -> LaplaceContour:
    """``c`` with every node scaled by ``speed`` and its weights to match.

    A Talbot weight carries the node scale and exp(u * t_scale).
    """
    return LaplaceContour(
        nodes=speed * c.nodes,
        weights=speed * c.weights * np.exp((speed - 1.0) * c.nodes * c.t_scale),
        t_scale=c.t_scale, m=c.m)


def test_exponential_family_order_doubling():
    # At the optimized contour geometry, errors reach the float64
    # cancellation floor (~1e-13) already at M = 24, where squaring is not
    # measurable; a slowed contour keeps both node counts in the
    # truncation-dominated regime, where doubling M squares the error.
    fam = (0.5, 1.0, 2.0, 3.0)
    slow24, slow48 = (slowed(talbot_contour(m, 1.0), 0.2) for m in (24, 48))
    err24 = max(abs(invert(slow24, 1.0 / (slow24.nodes + a))
                    - math.exp(-a)) for a in fam)
    err48 = max(abs(invert(slow48, 1.0 / (slow48.nodes + a))
                    - math.exp(-a)) for a in fam)
    assert err48 < 10.0 * err24**2
    # ... and at the default geometry both counts sit at/below the floor.
    for m in (24, 48):
        c = talbot_contour(m, 1.0)
        worst = max(abs(invert(c, 1.0 / (c.nodes + a)) - math.exp(-a))
                    for a in fam)
        assert worst < 1e-12


def test_default_contour_reaches_rounding_floor():
    # The largest terms sit next to theta = 0, where cot x - x/sin^2 x in
    # the weights cancels; summed without that cancellation, the 32-node
    # rule inverts the exponential family to a few ulps of its terms
    # (4.1e-15, against 6.8e-14 with the cancelling form).
    c = talbot_contour(32, 1.0)
    worst = max(abs(invert(c, 1.0 / (c.nodes + a)) - math.exp(-a))
                for a in (0.5, 1.0, 2.0, 3.0))
    assert worst < 2e-14
