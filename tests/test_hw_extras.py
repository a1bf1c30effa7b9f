"""Remaining hardware fidelity: LPM sweep, lane rendering robustness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.report import LaneSegment, render_lanes
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.tos.node import NodeConfig, QuantoNode
from repro.hw.platform import PlatformConfig
from repro.units import ms, seconds, ua


@pytest.mark.parametrize("lpm,expected_ua", [
    ("LPM0", 75.0), ("LPM2", 17.0), ("LPM4", 0.0),
])
def test_lpm_sleep_state_sweep(lpm, expected_ua):
    """The configured sleep mode sets the CPU's idle floor (Table 1's
    LPM ladder; LPM3/LPM4 are zeroed into the baseline by the default
    actual profile, the shallower modes are not)."""
    sim = Simulator()
    node = QuantoNode(
        sim, NodeConfig(node_id=1,
                        platform=PlatformConfig(sleep_state=lpm)),
        rng_factory=RngFactory(0))
    node.boot(lambda n: None)
    sim.run(until=seconds(1))
    floor = node.platform.rail.current()
    baseline = node.platform.profile.baseline_amps
    # floor = baseline + SHT11 idle + CPU sleep draw
    cpu_sleep = floor - baseline - ua(0.3)
    assert cpu_sleep == pytest.approx(ua(expected_ua), abs=ua(0.5))


def test_lpm_affects_measured_energy():
    def energy(lpm):
        sim = Simulator()
        node = QuantoNode(
            sim, NodeConfig(node_id=1,
                            platform=PlatformConfig(sleep_state=lpm)),
            rng_factory=RngFactory(0))
        node.boot(lambda n: None)
        sim.run(until=seconds(10))
        return node.platform.rail.energy()

    assert energy("LPM0") > energy("LPM4")


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(min_value=-10_000_000, max_value=200_000_000),
        st.integers(min_value=1, max_value=100_000_000),
        st.sampled_from(["A", "B", "C", "D"]),
    ),
    max_size=20,
))
def test_render_lanes_never_crashes(segments):
    """Property: arbitrary (possibly out-of-window, overlapping) segments
    render without exceptions and respect the lane width."""
    lanes = {
        "X": [LaneSegment(t0, t0 + dt, label) for t0, dt, label in segments]
    }
    text = render_lanes(lanes, 0, ms(100), width=40)
    row = next(l for l in text.splitlines() if l.lstrip().startswith("X |"))
    assert len(row.split("|")[1]) == 40
