"""Quanto-top: live per-activity power from the online counters."""

import pytest

from repro.core.topq import HISTORY, QuantoTop
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.tos.node import NodeConfig, QuantoNode
from repro.units import seconds


@pytest.fixture()
def top_run():
    from repro.apps.blink import BlinkApp

    sim = Simulator()
    node = QuantoNode(sim, NodeConfig(node_id=1, enable_counters=True),
                      rng_factory=RngFactory(0))
    app = BlinkApp()
    top = QuantoTop(node, refresh_ns=seconds(2))

    def start(n):
        app.start(n)
        top.start()

    node.boot(start)
    sim.run(until=seconds(20))
    return sim, node, top


def test_top_requires_counters():
    sim = Simulator()
    node = QuantoNode(sim, NodeConfig(node_id=1, enable_counters=False))
    with pytest.raises(ValueError):
        QuantoTop(node)


def test_top_collects_samples(top_run):
    sim, node, top = top_run
    assert 8 <= len(top.samples) <= 10
    latest = top.latest()
    assert latest is not None
    assert latest.dt_s == pytest.approx(2.0, rel=0.05)


def test_top_sees_the_idle_floor(top_run):
    """In Blink the CPU is asleep with LEDs burning: the online view
    charges that power to Idle — and top must show it."""
    sim, node, top = top_run
    latest = top.latest()
    idle_power = latest.deltas[node.idle][1] / latest.dt_s
    # Node draws a few mW on average; Idle carries almost all of it.
    assert idle_power > 3e-3


def test_top_accounts_for_itself(top_run):
    """Like Unix top: the profiler's refresh work shows under Quanto's
    own activity."""
    sim, node, top = top_run
    totals = top._last_totals
    quanto_time = totals.get(node.quanto_label, (0, 0.0))[0]
    assert quanto_time > 0


def test_top_render(top_run):
    sim, node, top = top_run
    text = top.render()
    assert "quanto-top" in text
    assert "1:Idle" in text
    assert "P now (mW)" in text


def test_top_history_bounded():
    from repro.apps.blink import BlinkApp

    sim = Simulator()
    node = QuantoNode(sim, NodeConfig(node_id=1, enable_counters=True),
                      rng_factory=RngFactory(0))
    app = BlinkApp()
    top = QuantoTop(node, refresh_ns=seconds(1))

    def start(n):
        app.start(n)
        top.start()

    node.boot(start)
    sim.run(until=seconds(HISTORY + 5))
    assert len(top.samples) == HISTORY  # deque bounded
