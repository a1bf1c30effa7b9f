"""Unit helpers: conversions."""

import pytest
from hypothesis import given, strategies as st

from repro import units


def test_time_conversions_exact():
    assert units.us(1) == 1_000
    assert units.ms(1) == 1_000_000
    assert units.seconds(1) == 1_000_000_000
    assert units.ms(1.5) == 1_500_000


def test_time_roundtrips():
    assert units.to_ms(units.ms(3.25)) == 3.25
    assert units.to_s(units.seconds(48)) == 48.0


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_seconds_roundtrip_property(value):
    assert units.to_s(units.seconds(value)) == pytest.approx(value, abs=1e-9)


def test_electrical_conversions():
    assert units.ma(1) == 1e-3
    assert units.ua(500) == pytest.approx(500e-6)
    assert units.to_mj(0.52123) == pytest.approx(521.23)
