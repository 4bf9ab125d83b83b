import concurrent.futures
import os

import pytest

from cribmem import propagators
from cribmem.modes import optimal_mode, optimize_gaussian
from cribmem.sweeps import GridSettings, build_pipeline, evaluate_point, run_points

SMALL = GridSettings(k=5, n=11, quad_level=5)
POINTS = [(10.0, 3.0), (25.0, 1.0), (10.0, 1.0)]


def test_aliasing_controlled_comb_is_rejected():
    # At gamma = 20 a 33-class comb rephases at 2*pi/step = 1.005, inside the
    # tau_d = 1 broadening stages, and eta_max comes out as 0.014 instead of
    # the converged 0.494; 65 classes is the smallest safe count.
    with pytest.raises(ValueError, match="at least 65"):
        evaluate_point(100.0, 20.0, GridSettings(k=9, n=33))


def test_pooled_rows_equal_serial_rows_in_input_order():
    serial = run_points(POINTS, SMALL, threads=1, include_gaussian=True)
    assert [(r["d0"], r["gamma_rel"]) for r in serial] == POINTS
    assert run_points(POINTS, SMALL, threads=2, include_gaussian=True) == serial


def test_one_worker_starts_no_pool(monkeypatch):
    # threads = 4 on one CPU resolves to one worker: the points run serially.
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    rows = run_points(POINTS, SMALL, threads=4)
    assert rows == [evaluate_point(d0, g, SMALL) for d0, g in POINTS]


@pytest.mark.parametrize("d0, gamma, n", [(10.0, 6.0, 21), (100.0, 10.0, 33),
                                          (800.0, 10.0, 33), (1600.0, 20.0, 65)])
def test_collocation_margin_of_8_gives_the_efficiencies_of_16(monkeypatch, d0, gamma, n):
    # 8 nodes beyond ceil(beta*T) resolve every stage action and core side
    # to rounding: doubling the margin moves eta_max and eta_gauss by no
    # more than rounding, although it adds 8 nodes to each action above
    # the floor of 24.
    settings = GridSettings(k=17, n=n)
    etas, nodes = [], []
    for margin in (8, 16):
        monkeypatch.setattr(propagators, "_MARGIN", margin)
        _, sched, _, kern = build_pipeline(d0, gamma, settings)
        etas.append((optimal_mode(kern).efficiency,
                     optimize_gaussian(kern, sched).efficiency))
        nodes.append(kern.diagnostics["stage2_states_collocation_nodes"])
    assert nodes[1] == nodes[0] + 8
    assert etas[1] == pytest.approx(etas[0], rel=0, abs=1e-13)
