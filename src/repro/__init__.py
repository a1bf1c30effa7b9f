"""Quanto (OSDI 2008) reproduction: network-wide time and energy profiling
for embedded nodes, on a discrete-event TinyOS-like substrate.

Layers, bottom up:

* :mod:`repro.sim` — deterministic discrete-event kernel.
* :mod:`repro.hw` — ground-truth hardware models of the HydroWatch
  platform (MCU, radio, flash, sensor, LEDs, timers, SPI).
* :mod:`repro.meter` — the iCount energy meter and a virtual oscilloscope.
* :mod:`repro.net` — the shared 2.4 GHz channel and 802.11 interference.
* :mod:`repro.tos` — the TinyOS-like OS (tasks, timers, arbiters,
  interrupts, Active Messages, MACs, instrumented drivers, node/network
  assembly).
* :mod:`repro.core` — Quanto itself: activity labels and devices, power
  state tracking, the 12-byte logger, the energy-breakdown regression,
  the energy map, windowed (online) accounting, online counters, and
  network-wide merging.
* :mod:`repro.serve` — the live ingest server: framed node streams
  decoded incrementally into windowed accumulators, queryable mid-run.
* :mod:`repro.apps` — the paper's workloads (Blink, Bounce, sense-and-
  send, LPL, the timer leak, the DMA comparison).
* :mod:`repro.experiments` — one module per table/figure of the paper's
  evaluation, each regenerating its numbers.

Quickstart::

    from repro import Simulator, NodeConfig, QuantoNode
    from repro.apps.blink import BlinkApp
    from repro.units import seconds

    sim = Simulator()
    node = QuantoNode(sim, NodeConfig(node_id=1))
    app = BlinkApp()
    node.boot(app.start)
    sim.run(until=seconds(48))
    print(node.energy_map().energy_by_activity())
"""

from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.core.labels import ActivityLabel, ActivityRegistry
from repro.core.activity import MultiActivityDevice, SingleActivityDevice
from repro.core.powerstate import PowerStateTracker, PowerStateVar
from repro.core.logger import (
    LogEntry,
    QuantoLogger,
    WireDecoder,
    decode_log,
    iter_entries,
)
from repro.core.regression import (
    RegressionResult,
    SinkColumn,
    solve_breakdown,
)
from repro.core.timeline import TimelineStream
from repro.core.accounting import (
    EnergyAccumulator,
    EnergyMap,
    WindowSnapshot,
    WindowedAccumulator,
    build_energy_map,
    stream_energy_map,
)
from repro.core.counters import CounterAccountant
from repro.core.netmerge import NetworkEnergyReport, merge_energy_maps
from repro.hw.platform import HydrowatchPlatform, PlatformConfig
from repro.tos.node import NodeConfig, QuantoNode
from repro.tos.network import Network

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "RngFactory",
    "ActivityLabel",
    "ActivityRegistry",
    "SingleActivityDevice",
    "MultiActivityDevice",
    "PowerStateVar",
    "PowerStateTracker",
    "QuantoLogger",
    "LogEntry",
    "decode_log",
    "iter_entries",
    "WireDecoder",
    "SinkColumn",
    "RegressionResult",
    "solve_breakdown",
    "TimelineStream",
    "EnergyMap",
    "build_energy_map",
    "stream_energy_map",
    "EnergyAccumulator",
    "WindowedAccumulator",
    "WindowSnapshot",
    "CounterAccountant",
    "NetworkEnergyReport",
    "merge_energy_maps",
    "HydrowatchPlatform",
    "PlatformConfig",
    "QuantoNode",
    "NodeConfig",
    "Network",
    "__version__",
]
