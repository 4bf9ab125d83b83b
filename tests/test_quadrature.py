import numpy as np
import pytest

from cribmem.quadrature import GaussLegendre, MAX_LEVEL, TimeGrid, integrate, tanh_sinh_grid


def test_constant_integrand():
    g = tanh_sinh_grid(0.0, 1.0, 6)
    assert integrate(g, np.ones(g.size)).real == pytest.approx(1.0, abs=1e-12)


def test_linear_integrand():
    g = tanh_sinh_grid(0.0, 1.0, 6)
    assert integrate(g, g.nodes).real == pytest.approx(0.5, abs=1e-12)


def test_endpoint_singularity():
    g = tanh_sinh_grid(0.0, 1.0, 6)
    assert integrate(g, g.nodes**-0.5).real == pytest.approx(2.0, abs=1e-8)


def test_singular_error_monotone_while_truncation_dominates():
    # Past level 4 the error sits at the float64 round-off floor (~1e-12),
    # where monotonicity is no longer meaningful; assert it below the floor
    # threshold and monotone decay before reaching it.
    errs = []
    for level in range(1, 7):
        g = tanh_sinh_grid(0.0, 1.0, level)
        errs.append(abs(integrate(g, g.nodes**-0.5).real - 2.0))
    above_floor = [e for e in errs if e > 1e-10]
    assert all(above_floor[i + 1] < above_floor[i] for i in range(len(above_floor) - 1))
    assert all(e < 1e-8 for e in errs[3:])


def test_weights_positive_and_sum_to_span():
    for a, b, level in ((0.0, 1.0, 4), (0.0, 41.0, 6), (2.0, 7.5, 5)):
        g = tanh_sinh_grid(a, b, level)
        assert np.all(g.weights > 0.0)
        assert g.weights.sum() == pytest.approx(b - a, rel=1e-10)


def test_nodes_strictly_increasing_interior_symmetric():
    for a, b in ((0.0, 1.0), (0.0, 41.0), (2.0, 7.5), (-3.0, 3.0)):
        g = tanh_sinh_grid(a, b, 6)
        assert np.all(np.diff(g.nodes) > 0.0)
        assert g.nodes[0] > a and g.nodes[-1] < b
        assert np.allclose(g.nodes + g.nodes[::-1], a + b,
                           atol=1e-12 * max(1.0, abs(a) + abs(b)))


def test_time_grid_rejects_unordered_nodes():
    w = np.ones(3)
    for nodes in ([0.2, 0.1, 0.9], [0.2, 0.2, 0.9]):
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeGrid(nodes=np.array(nodes), weights=w, a=0.0, b=1.0)
    assert TimeGrid(nodes=np.array([0.1, 0.2, 0.9]), weights=w, a=0.0, b=1.0).size == 3


def test_node_count():
    for level in (1, 3, 6):
        assert tanh_sinh_grid(0.0, 1.0, level).size == 2 ** (level + 1) + 1


def test_grid_rejects_bad_interval_and_level():
    with pytest.raises(ValueError):
        tanh_sinh_grid(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        tanh_sinh_grid(2.0, 1.0, 5)
    with pytest.raises(ValueError):
        tanh_sinh_grid(0.0, 1.0, 0)
    assert MAX_LEVEL == 12   # 8193 nodes
    with pytest.raises(ValueError, match="1 to 12"):
        tanh_sinh_grid(0.0, 1.0, MAX_LEVEL + 1)
    for level in (2.5, 5.0, True):
        with pytest.raises(ValueError, match="integer"):
            tanh_sinh_grid(0.0, 1.0, level)


def test_integrate_zero_and_ones():
    g = tanh_sinh_grid(0.0, 2.5, 5)
    assert integrate(g, np.zeros(g.size)) == 0.0
    assert integrate(g, np.ones(g.size)).real == pytest.approx(2.5, rel=1e-10)


def test_integrate_complex_oscillation():
    g = tanh_sinh_grid(0.0, np.pi, 6)
    val = integrate(g, np.exp(1j * g.nodes))
    assert val == pytest.approx(2.0j, abs=1e-9)


def test_integrate_length_mismatch():
    g = tanh_sinh_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        integrate(g, np.ones(g.size + 1))


@pytest.mark.parametrize("n", [1, 2, 5, 16, 24, 64])
@pytest.mark.parametrize("end", [1.0, 3.7])
def test_gauss_legendre_integrates_powers_exactly(n, end):
    # Exact for degree <= 2n - 1.  To 1e-14 up to the 16 nodes of the depth
    # grid; t^k at nodes rounded to one ulp carries a relative error of
    # order k eps by itself, which reaches 2.7e-14 at n = 24, k = 47.
    grid = GaussLegendre(n, end).grid
    for k in range(2 * n):
        exact = end ** (k + 1) / (k + 1)
        err = abs(integrate(grid, grid.nodes ** k).real - exact) / exact
        assert err <= max(1e-14, 4 * (k + 1) * np.finfo(float).eps), (k, err)


@pytest.mark.parametrize("n", [5, 16, 24])
def test_gauss_legendre_interpolation_reproduces_polynomials(n):
    end = 2.5
    rule = GaussLegendre(n, end)
    coeffs = np.random.default_rng(n).standard_normal(n)   # degree n - 1

    def poly(t):
        return np.polynomial.legendre.legval(2.0 * t / end - 1.0, coeffs)

    points = np.linspace(0.0, end, 98)
    assert not np.isin(points, rule.nodes).any()
    got = rule.interpolation(points) @ poly(rule.nodes)
    assert np.abs(got - poly(points)).max() <= 1e-13 * np.abs(coeffs).sum()


def test_gauss_legendre_interpolation_at_the_nodes_is_the_identity():
    # Rows whose point maps onto a reference node exactly take the hit
    # branch and are identity rows bit for bit; the others round to them.
    rule = GaussLegendre(16, 1.0)
    basis = rule.interpolation(rule.nodes)
    hit = 2.0 * rule.nodes / rule.end - 1.0 == rule.xi
    assert hit.any()
    assert np.array_equal(basis[hit], np.eye(16)[hit])
    assert np.abs(basis - np.eye(16)).max() <= 1e-14


@pytest.mark.parametrize("n, end", [(1, 1.0), (16, 1.0), (24, 3.7), (200, 41.0)])
def test_gauss_legendre_grid_is_increasing_and_weights_sum_to_the_span(n, end):
    grid = GaussLegendre(n, end).grid
    assert (grid.a, grid.b, grid.size) == (0.0, end, n)
    assert np.all(np.diff(grid.nodes) > 0.0)
    assert 0.0 < grid.nodes[0] and grid.nodes[-1] < end
    assert np.all(grid.weights > 0.0)
    assert grid.weights.sum() == pytest.approx(end, rel=1e-14)
