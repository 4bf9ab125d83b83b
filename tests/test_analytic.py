import math

import numpy as np
import pytest

from cribmem import analytic
from cribmem.analytic import (
    Profile,
    broadening_stage_efficiency_numeric,
    dephasing_envelope,
    optical_depths,
    perturbative_efficiency,
    polarization_decay,
    transmission_spectrum,
)
from cribmem.laplace import talbot_contour
from cribmem.model import (DEFAULT_EXTENT_SIGMAS, DEFAULT_GRID_POINTS, build_detuning_grid,
                           derive_params, min_safe_classes)
from cribmem.propagators import stage_action
from cribmem.quadrature import TimeGrid, tanh_sinh_grid


def test_dephasing_envelope_values():
    assert dephasing_envelope(0.0, 3.0) == 1.0
    assert dephasing_envelope(1.0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert dephasing_envelope(1.0, 1.0) == pytest.approx(0.60653, abs=1e-5)
    with pytest.raises(ValueError):
        dephasing_envelope(1.0, -0.1)


def test_dephasing_envelope_matches_grid_sum():
    gamma_rel = 2.0
    grid = build_detuning_grid(0.1, gamma_rel, 3, 33)
    for t in (0.0, 0.3, 0.8, 1.5):
        discrete = np.sum(grid.controlled_weights *
                          np.exp(-1j * grid.controlled_nodes * t))
        assert abs(discrete - dephasing_envelope(t, gamma_rel)) < 1e-5


def test_flat_profile_double_integral():
    assert Profile.flat().double_integral().real == pytest.approx(0.5, abs=1e-12)


def test_profile_double_integral_against_quadrature():
    # P(z) = z: II = int z * z^2/2 dz = 1/8
    p = Profile.from_callable(lambda z: z)
    assert p.double_integral().real == pytest.approx(1.0 / 8.0, abs=1e-9)
    # P(z) = exp(-2z): II = (int_0^1 P)^2 / 2 = (1 - e^-2)^2 / 8
    p = Profile.from_callable(lambda z: math.exp(-2.0 * z))
    assert p.double_integral() == pytest.approx((1.0 - math.exp(-2.0)) ** 2 / 8.0, abs=1e-12)


@pytest.mark.parametrize("func, want", [(lambda z: 1e-9 * z, (0.5e-9) ** 2 / 2),
                                        (lambda z: 1.0 + 1e-6 * z, (1.0 + 0.5e-6) ** 2 / 2)],
                         ids=["tiny-slope", "nearly-flat"])
def test_nearly_flat_profile_keeps_its_slope(func, want):
    # II = Q(1)^2 / 2 with Q(1) = int_0^1 P: a profile within allclose's
    # tolerances of a constant is still a polynomial, not its first sample.
    got = Profile.from_callable(func).double_integral()
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_profile_laplace_flat_is_exact():
    p = Profile.flat()
    u = np.array([1.0 + 2.0j, 5.0 - 1.0j])
    assert np.allclose(p.laplace(u), 1.0 / u, rtol=1e-14)


def test_profile_laplace_polynomial():
    p = Profile.from_callable(lambda z: z * z)
    u = np.array([2.0 + 1.0j, 4.0 - 3.0j])
    assert np.allclose(p.laplace(u), 2.0 / u**3, rtol=1e-8)


def test_perturbative_efficiency_closed_forms():
    flat = Profile.flat()
    eta = perturbative_efficiency(flat, 10.0, math.inf)
    assert eta == pytest.approx(1.0 - math.sqrt(math.pi) / 10.0, abs=1e-10)
    assert eta == pytest.approx(0.82275, abs=1e-5)
    assert perturbative_efficiency(flat, 5.0, 0.0) == 1.0
    eta2 = perturbative_efficiency(flat, 2.0, 2.0)
    want = 1.0 - (math.sqrt(math.pi) / 2.0) * math.erf(4.0)
    assert eta2 == pytest.approx(want, abs=1e-10)
    assert eta2 == pytest.approx(0.1138, abs=1e-4)


def test_perturbative_efficiency_monotone_in_gamma():
    flat = Profile.flat()
    etas = [perturbative_efficiency(flat, g, 1.0) for g in (2.0, 5.0, 10.0, 20.0)]
    assert all(b > a for a, b in zip(etas, etas[1:]))
    assert all(e <= 1.0 for e in etas)


def test_perturbative_efficiency_rejects_bad_args():
    flat = Profile.flat()
    for gamma, tau_d in ((0.0, 1.0), (5.0, -1.0), (math.nan, 1.0), (math.inf, 1.0),
                         (5.0, math.nan)):
        for efficiency in (perturbative_efficiency, broadening_stage_efficiency_numeric):
            with pytest.raises(ValueError):
                efficiency(flat, gamma, tau_d)
    # tau_d = inf is the closed form's long-stage limit, but no stage length.
    with pytest.raises(ValueError):
        broadening_stage_efficiency_numeric(flat, 5.0, math.inf)


def test_numeric_matches_perturbative_at_strong_broadening():
    flat = Profile.flat()
    closed = perturbative_efficiency(flat, 10.0, 1.0)
    numeric = broadening_stage_efficiency_numeric(flat, 10.0, 1.0)
    assert abs(numeric - closed) <= 0.05


def test_numeric_gap_grows_at_moderate_broadening():
    # The first-order formula drops the quadratic term a2 c^2 with
    # c = sqrt(pi) erf(g tau)/g.  a2 ~ 0.589 is fitted to the numeric over
    # gamma = 7-50, not derived; at gamma = 5 the term is about 0.074.  The
    # full gap, cross-validated against a direct space-time integration of
    # the two stages, is 0.0646.  Pinned here as a regression value.
    flat = Profile.flat()
    closed = perturbative_efficiency(flat, 5.0, 1.0)
    numeric = broadening_stage_efficiency_numeric(flat, 5.0, 1.0)
    assert numeric == pytest.approx(0.7101, abs=2e-3)
    assert numeric - closed == pytest.approx(0.0646, abs=3e-3)


def full_contour_numeric(p1: Profile, gamma_rel: float, tau_d: float,
                         n_classes: int = 33, m: int = 32) -> float:
    """The broadening-stage numeric summed over every contour node, the
    lower half built from the conjugates of the upper."""
    grid = build_detuning_grid(1.0, gamma_rel, k=1, n=n_classes)
    out = []
    for z in p1.grid.nodes:
        c = talbot_contour(m, float(z))
        nodes = np.concatenate([c.nodes, np.conj(c.nodes)])
        weights = 0.5 * np.concatenate([c.weights, np.conj(c.weights)])
        sig = stage_action(grid, nodes, np.ones((n_classes, 1)), [tau_d]).states[0]
        sig = stage_action(grid.controlled_by(-1), nodes, sig, [tau_d]).states[0][..., 0]
        out.append(np.dot(weights, (sig @ grid.joint_weights) * p1.laplace(nodes)))
    return float(np.sum(p1.grid.weights * np.abs(np.array(out)) ** 2))


def test_numeric_equals_full_contour_sum():
    for profile, gamma in ((Profile.flat(), 5.0), (Profile.from_callable(lambda z: z), 7.0)):
        half = broadening_stage_efficiency_numeric(profile, gamma, 1.0)
        assert abs(half - full_contour_numeric(profile, gamma, 1.0)) <= 1e-13


def stage4_route_numeric(p1: Profile, gamma_rel: float, tau_d: float, n_classes: int,
                         m: int = 32) -> float:
    """The numeric by one Talbot contour per z node and a stage-4 action
    after the stage-2 one, on all their nodes at once."""
    grid = build_detuning_grid(1.0, gamma_rel, k=1, n=n_classes)
    contours = [talbot_contour(m, float(z)) for z in p1.grid.nodes]
    nodes = np.array([c.nodes for c in contours])
    weights = np.array([c.weights for c in contours])
    sig = stage_action(grid, nodes.ravel(), np.ones((n_classes, 1)), [tau_d]).states[0]
    sig = stage_action(grid.controlled_by(-1), nodes.ravel(), sig,
                       [tau_d]).states[0][..., 0]
    samples = (sig @ grid.joint_weights).reshape(nodes.shape) * p1.laplace(nodes)
    p4 = np.einsum("ij,ij->i", weights, samples).real
    return float(np.sum(p1.grid.weights * p4 ** 2))


@pytest.mark.parametrize("gamma", [5.0, 7.0, 10.0])
@pytest.mark.parametrize("tau_d", [1.0, 2.0])
def test_numeric_matches_per_z_contours_and_stage4_action(gamma, tau_d):
    # One unit contour divided by z, and stage 4 by reflecting stage 2.
    n = max(DEFAULT_GRID_POINTS, min_safe_classes(gamma, tau_d, DEFAULT_EXTENT_SIGMAS))
    flat = Profile.flat()
    got = broadening_stage_efficiency_numeric(flat, gamma, tau_d, n_classes=n)
    assert abs(got - stage4_route_numeric(flat, gamma, tau_d, n)) <= 1e-13


def test_depth_grid_matches_a_fine_tanh_sinh_depth_grid(monkeypatch):
    # The 16-node Gauss-Legendre depth grid against the 65-node tanh-sinh
    # one it replaced, for the same flat and ramp profiles.  Two profiles on
    # one depth grid run the same stage action, so it runs once for both.
    actions = {}

    def shared(grid, us, x, times):
        key = (grid.phases.tobytes(), us.tobytes(), tuple(times))
        if key not in actions:
            actions[key] = stage_action(grid, us, x, times)
        return actions[key]

    monkeypatch.setattr(analytic, "stage_action", shared)
    fine = tanh_sinh_grid(0.0, 1.0, 5)
    for profile, func in ((Profile.flat(), np.ones_like),
                          (Profile.from_callable(lambda z: z), lambda z: z)):
        assert profile.grid.size == 16
        reference = Profile(grid=fine, values=func(fine.nodes))
        for gamma in (3.0, 5.0, 7.0, 10.0):
            for tau_d in (1.0, 2.0):
                got = broadening_stage_efficiency_numeric(profile, gamma, tau_d)
                want = broadening_stage_efficiency_numeric(reference, gamma, tau_d)
                assert abs(got - want) <= 1e-13, (gamma, tau_d, got - want)


def test_numeric_runs_one_contour_and_one_stage2_action(monkeypatch):
    calls = []

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls.append((name, args[0] if name == "stage_action" else None))
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(analytic, "talbot_contour",
                        counted("talbot_contour", analytic.talbot_contour))
    monkeypatch.setattr(analytic, "stage_action",
                        counted("stage_action", analytic.stage_action))
    broadening_stage_efficiency_numeric(Profile.flat(), 7.0, 1.0)
    assert [name for name, _ in calls] == ["talbot_contour", "stage_action"]
    # The action runs on the dephasing grid, not the reflected one.
    stage2 = build_detuning_grid(1.0, 7.0, k=1, n=DEFAULT_GRID_POINTS)
    assert np.array_equal(calls[1][1].phases, stage2.phases)


def test_numeric_weakly_sensitive_to_stage_duration():
    flat = Profile.flat()
    e1 = broadening_stage_efficiency_numeric(flat, 10.0, 1.0)
    e2 = broadening_stage_efficiency_numeric(flat, 10.0, 2.0)
    assert abs(e1 - e2) < 0.02


def test_numeric_bounded_in_weak_broadening_limit():
    flat = Profile.flat()
    eta = broadening_stage_efficiency_numeric(flat, 0.01, 1.0, n_classes=17)
    assert 0.0 <= eta <= 1.0


def test_numeric_reports_perturbative_gap_for_weak_broadening():
    # Perturbation theory degrades below gamma ~ 3 mu; report, don't assert.
    flat = Profile.flat()
    gaps = {}
    for gamma in (1.0, 2.0):
        closed = perturbative_efficiency(flat, gamma, 1.0)
        numeric = broadening_stage_efficiency_numeric(flat, gamma, 1.0, n_classes=17)
        gaps[gamma] = numeric - closed
    print(f"perturbative-vs-numeric gaps at weak broadening: {gaps}")


def test_optical_depths():
    p = derive_params(800.0, 10.0)
    d0, d = optical_depths(p)
    assert d0 == pytest.approx(800.0, rel=1e-12)
    assert d == pytest.approx(0.2507, abs=1e-4)
    p0 = derive_params(25.0, 0.0)
    assert optical_depths(p0) == (pytest.approx(25.0, rel=1e-12),
                                  pytest.approx(25.0, rel=1e-12))
    pbig = derive_params(800.0, 50.0)
    _, dbig = optical_depths(pbig)
    assert dbig == pytest.approx(math.sqrt(2.0 * math.pi) / 50.0, rel=1e-4)


def test_transmission_resonance_and_wings():
    p = derive_params(5.0, 0.0)
    assert transmission_spectrum(0.0, p) == pytest.approx(math.exp(-5.0), rel=1e-12)
    assert transmission_spectrum(0.0, p) == pytest.approx(6.7379e-3, abs=1e-7)
    assert transmission_spectrum(100.0 * p.gamma0_rel, p) == pytest.approx(1.0, abs=1e-12)


def test_transmission_matches_frequency_domain_oracle():
    # Oracle: the field attenuation exponent is the one-sided Fourier
    # integral of the dephasing envelope, integrated numerically; the
    # intensity transmission is exp(-2 Re kappa).
    p = derive_params(5.0, 0.0)
    w0 = p.gamma0_rel
    tg = tanh_sinh_grid(0.0, 12.0 / w0, 8)
    for omega in (0.0, 0.5 * w0, 1.5 * w0, 3.0 * w0):
        samples = np.exp(1j * omega * tg.nodes) * np.exp(-0.5 * (w0 * tg.nodes) ** 2)
        kappa = tg.weights @ samples
        want = math.exp(-2.0 * kappa.real)
        assert transmission_spectrum(omega, p) == pytest.approx(want, abs=1e-6)


def test_polarization_decay_identities():
    p = derive_params(100.0, 1.0)
    assert polarization_decay(0.0, p) == 1.0
    assert polarization_decay(p.t2_rel, p) == pytest.approx(math.exp(-1.0), rel=1e-12)
    for t in (0.0, 3.0, 17.0):
        assert polarization_decay(t, p) == pytest.approx(
            dephasing_envelope(t, p.gamma0_rel), rel=1e-12)
    with pytest.raises(ValueError):
        polarization_decay(-1.0, p)


def test_profile_validation():
    grid = tanh_sinh_grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        Profile(grid=grid, values=np.ones(grid.size + 2))
    with pytest.raises(ValueError, match="real"):
        Profile(grid=grid, values=1j * grid.nodes)
    # Rounding-level imaginary parts are dropped; the samples are stored real.
    p = Profile(grid=grid, values=grid.nodes + 1e-17j)
    assert p.values.dtype == np.float64
    assert np.array_equal(p.values, grid.nodes)
    # The numeric inverts at each depth z with the unit contour divided by z:
    # a node off (0, 1] used to give a silent efficiency, or at z = 0 fail
    # converting a nan to an integer.
    for nodes, bad in (([0.5, 1.0, 2.0], "2.0"), ([-0.5, 0.5, 1.0], "-0.5"),
                       ([0.0, 0.5, 1.0], "0.0")):
        off = TimeGrid(nodes=np.array(nodes), weights=np.full(3, 1.0 / 3.0), a=0.0, b=1.0)
        with pytest.raises(ValueError, match=rf"z = {bad} is off \(0, 1\]"):
            Profile(grid=off, values=np.ones(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_profile_rejects_non_finite_samples(bad):
    # A non-finite sample used to give eta = nan with no error.
    with pytest.raises(ValueError, match="finite"):
        Profile.from_callable(lambda z: bad)
    grid = tanh_sinh_grid(0.0, 1.0, 4)
    values = np.ones(grid.size)
    values[3] = bad
    with pytest.raises(ValueError, match="finite"):
        Profile(grid=grid, values=values)
