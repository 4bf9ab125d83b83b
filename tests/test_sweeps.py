import concurrent.futures
import os

import pytest

from cribmem.sweeps import GridSettings, evaluate_point, run_points

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
