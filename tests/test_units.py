import math

import pytest
from hypothesis import given, strategies as st

from greenlink import dbm_to_watts, watts_to_dbm


def test_known_points():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
    assert dbm_to_watts(35.0) == pytest.approx(3.1622776601683795, rel=1e-12)
    assert watts_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)


@given(st.floats(min_value=-80.0, max_value=80.0))
def test_dbm_round_trip(x):
    assert watts_to_dbm(dbm_to_watts(x)) == pytest.approx(x, abs=1e-10)


@given(st.floats(min_value=1e-12, max_value=1e6))
def test_watts_round_trip(w):
    assert dbm_to_watts(watts_to_dbm(w)) == pytest.approx(w, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-9])
def test_nonpositive_rejected(bad):
    with pytest.raises(ValueError):
        watts_to_dbm(bad)


@pytest.mark.parametrize("dbm", [3200.0, 4000.0, 1e308, math.inf])
def test_beyond_float_range_reads_inf(dbm):
    assert dbm_to_watts(dbm) == math.inf
