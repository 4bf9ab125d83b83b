import pytest

from cribmem.sweeps import GridSettings, evaluate_point


def test_aliasing_controlled_comb_is_rejected():
    # At gamma = 20 a 33-class comb rephases at 2*pi/step = 1.005, inside the
    # tau_d = 1 broadening stages, and eta_max comes out as 0.014 instead of
    # the converged 0.494; 65 classes is the smallest safe count.
    with pytest.raises(ValueError, match="at least 65"):
        evaluate_point(100.0, 20.0, GridSettings(k=9, n=33))
