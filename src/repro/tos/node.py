"""A bootable Quanto node: platform + instrumentation + OS services.

``QuantoNode`` is the top of the substrate stack and the main entry point
for applications and experiments.  It assembles:

* the :class:`~repro.hw.platform.HydrowatchPlatform` hardware,
* the Quanto core — activity devices, power-state variables, the logger,
* the OS — interrupt controller, scheduler, virtual timers, arbiters,
  instrumented drivers, a MAC, and the Active Message layer,

and exposes the offline-analysis conveniences (decode the log, rebuild
the timeline, run the regression, build the energy map).

Resource ids are fixed per the table below so logs are comparable across
nodes and runs:

====  ==========
res   device
====  ==========
0     CPU
1–3   LED0–LED2
4     Radio
5     External flash
6     SHT11 sensor
7     ADC
8     Voltage reference
9     Hardware timer B (multi-activity)
====  ==========
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

from repro.core.accounting import (
    EnergyMap,
    columnar_energy_map,
)
from repro.core.activity import (
    MultiActivityDevice,
    ProxyActivitySet,
    SingleActivityDevice,
)
from repro.core.counters import CounterAccountant
from repro.core.labels import (
    PROXY_IDS,
    QUANTO_ID,
    ActivityLabel,
    ActivityRegistry,
    idle_label,
)
from repro.core.logger import QuantoLogger
from repro.core.powerstate import PowerStateTracker
from repro.core.regression import (
    RegressionResult,
    SinkColumn,
    layout_from_tracker,
    solve_grouped,
)
from repro.core.timeline import ColumnarTimeline
from repro.hw.platform import HydrowatchPlatform, PlatformConfig
from repro.net.channel import RadioChannel
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.tos.am import ActiveMessageLayer
from repro.tos.arbiter import Arbiter
from repro.tos.context import CpuContext
from repro.tos.drivers.flash import FLASH_STATE_NAMES, FlashDriver
from repro.tos.drivers.leds import LedsDriver
from repro.tos.drivers.radio import RADIO_STATE_NAMES, RadioDriver
from repro.tos.drivers.sensor import SENSOR_STATE_NAMES, SensorDriver
from repro.tos.interrupts import InterruptController
from repro.tos.mac import CsmaMac, LplMac
from repro.tos.scheduler import Scheduler
from repro.tos.vtimer import VirtualTimerSystem

# Fixed resource ids.
RES_CPU = 0
RES_LED0 = 1
RES_LED1 = 2
RES_LED2 = 3
RES_RADIO = 4
RES_FLASH = 5
RES_SENSOR = 6
RES_ADC = 7
RES_VREF = 8
RES_TIMERB = 9

COMPONENT_NAMES = {
    RES_CPU: "CPU",
    RES_LED0: "LED0",
    RES_LED1: "LED1",
    RES_LED2: "LED2",
    RES_RADIO: "Radio",
    RES_FLASH: "Flash",
    RES_SENSOR: "Sensor",
    RES_ADC: "ADC",
    RES_VREF: "VRef",
    RES_TIMERB: "TimerB",
}

#: Regression column layouts, one object per distinct layout: every node
#: of a platform has the same one, and a sweep keeps hundreds of nodes
#: alive at once, so a copy per node would cost about a megabyte.
_LAYOUTS: dict[tuple[SinkColumn, ...], tuple[SinkColumn, ...]] = {}


@dataclass
class NodeConfig:
    """Everything configurable about one node."""

    node_id: int = 1
    platform: PlatformConfig = field(default_factory=PlatformConfig)
    logger_mode: str = "ram"
    logger_buffer_entries: int = 200_000
    logger_auto_dump: bool = False
    mac: str = "csma"  # 'csma', 'lpl', or 'none'
    radio_channel_number: int = 26
    enable_counters: bool = False


class NodeBreakdown(NamedTuple):
    """One node's share of :meth:`QuantoNode.breakdown_all`: its log's
    timeline snapshot, regression and energy map."""

    timeline: ColumnarTimeline
    regression: RegressionResult
    energy_map: EnergyMap


def fusable_groups(registries: Sequence[ActivityRegistry]) -> list[list[int]]:
    """The indices of ``registries`` grouped by name map, in order of
    first appearance.  A fused fold prices all its logs with one
    registry, and reads it only to render labels, so logs whose
    registries name every activity alike may share one fold (they need
    not share one registry object); any other log gets a fold of its
    own."""
    groups: dict[tuple, list[int]] = {}
    for index, registry in enumerate(registries):
        names = tuple(sorted(registry.known_ids().items()))
        groups.setdefault(names, []).append(index)
    return list(groups.values())


def link_batch(nodes: Sequence["QuantoNode"]) -> None:
    """Link a batch's finished worlds, their logs closed, as siblings
    for :meth:`QuantoNode.breakdown`'s fused pass.  A reset unlinks a
    node."""
    siblings = list(nodes)
    for node in siblings:
        node._batch = (siblings, node.logger.records_written, node.sim.now)


class QuantoNode:
    """One instrumented node."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[NodeConfig] = None,
        registry: Optional[ActivityRegistry] = None,
        channel: Optional[RadioChannel] = None,
        rng_factory: Optional[RngFactory] = None,
    ) -> None:
        self.sim = sim
        self.config = config or NodeConfig()
        self.node_id = self.config.node_id
        self.registry = registry or ActivityRegistry()
        self.rng = rng_factory or RngFactory(0)
        self.platform = HydrowatchPlatform(
            sim, self.node_id, self.config.platform, self.rng)

        # ---- Quanto core -------------------------------------------------
        self.idle = idle_label(self.node_id)
        self.proxies = ProxyActivitySet(self.node_id, PROXY_IDS)
        self.quanto_label = ActivityLabel(self.node_id, QUANTO_ID)
        self.vtimer_label = self.registry.label(self.node_id, "VTimer")

        self.tracker = PowerStateTracker()
        mcu_sleep = self.config.platform.sleep_state
        self.cpu_powerstate = self.tracker.create(
            "CPU", RES_CPU, {0: mcu_sleep, 1: "ACTIVE"}, baseline_value=0)
        self.led_powerstates = [
            self.tracker.create(f"LED{i}", RES_LED0 + i, {0: "OFF", 1: "ON"})
            for i in range(3)
        ]
        self.radio_powerstate = self.tracker.create(
            "Radio", RES_RADIO, RADIO_STATE_NAMES, baseline_value=0)
        self.flash_powerstate = self.tracker.create(
            "Flash", RES_FLASH, FLASH_STATE_NAMES, baseline_value=0)
        self.sensor_powerstate = self.tracker.create(
            "Sensor", RES_SENSOR, SENSOR_STATE_NAMES, baseline_value=0)
        self.adc_powerstate = self.tracker.create(
            "ADC", RES_ADC, {0: "OFF", 1: "CONVERTING"}, baseline_value=0)
        self.vref_powerstate = self.tracker.create(
            "VRef", RES_VREF, {0: "OFF", 1: "ON"}, baseline_value=0)

        self.cpu_activity = SingleActivityDevice("CPU", RES_CPU, self.idle)
        self.led_activities = [
            SingleActivityDevice(f"LED{i}", RES_LED0 + i, self.idle)
            for i in range(3)
        ]
        self.radio_activity = SingleActivityDevice(
            "Radio", RES_RADIO, self.idle)
        self.flash_activity = SingleActivityDevice(
            "Flash", RES_FLASH, self.idle)
        self.sensor_activity = SingleActivityDevice(
            "Sensor", RES_SENSOR, self.idle)
        self.timer_activity = MultiActivityDevice("TimerB", RES_TIMERB)
        # The declared activity devices: every analysis of this node's
        # log is told them, and none infers one.
        self.single_res_ids = tuple(
            device.res_id for device in self._single_devices())
        self.multi_res_ids = (self.timer_activity.res_id,)
        # The regression's column layout: the tracker's sinks are fixed.
        layout = tuple(layout_from_tracker(self.tracker))
        self._layout = _LAYOUTS.setdefault(layout, layout)

        self.logger = QuantoLogger(
            self.platform.mcu,
            self.platform.icount,
            mode=self.config.logger_mode,
            buffer_entries=self.config.logger_buffer_entries,
            auto_dump=self.config.logger_auto_dump,
            quanto_activity=self.quanto_label,
            cpu_activity=self.cpu_activity,
            scheduler=None,  # patched below once the scheduler exists
        )
        self.tracker.add_listener(self.logger.on_powerstate)
        for device in self._single_devices():
            device.add_tracker(self.logger.on_single_activity)
        self.timer_activity.add_tracker(self.logger.on_multi_activity)

        # ---- OS services --------------------------------------------------
        self.context = CpuContext(
            self.platform.mcu, self.cpu_activity, self.cpu_powerstate,
            self.idle)
        self.interrupts = InterruptController(
            self.platform.mcu, self.context, self.cpu_activity, self.proxies)
        self.scheduler = Scheduler(
            self.platform.mcu, self.context, self.cpu_activity)
        self.logger.scheduler = self.scheduler
        self.vtimers = VirtualTimerSystem(
            self.platform.mcu, self.scheduler, self.interrupts,
            self.platform.timer_b.unit(0), self.cpu_activity,
            self.timer_activity, self.vtimer_label)
        self.bus_arbiter = Arbiter(
            "bus", self.scheduler, resource_activity=None,
            idle_label=self.idle)

        self.leds = LedsDriver(
            self.platform.mcu, self.platform.leds, self.led_powerstates,
            self.led_activities, self.cpu_activity, self.idle)
        self.flash = FlashDriver(
            self.platform.mcu, self.scheduler, self.interrupts,
            self.bus_arbiter, self.platform.flash, self.flash_powerstate,
            self.flash_activity, self.cpu_activity, self.proxies, self.idle)
        self.sensor = SensorDriver(
            self.platform.mcu, self.scheduler, self.interrupts,
            Arbiter("sht11", self.scheduler), self.platform.sensor,
            self.sensor_powerstate, self.sensor_activity, self.cpu_activity,
            self.proxies, self.idle)

        self.channel = channel
        self.radio_driver: Optional[RadioDriver] = None
        self.mac = None
        self.am: Optional[ActiveMessageLayer] = None
        if channel is not None:
            self.platform.radio.set_channel_number(
                self.config.radio_channel_number)
            self.platform.radio.attach(channel)
            self.radio_driver = RadioDriver(
                self.platform.mcu, self.scheduler, self.interrupts,
                self.vtimers, self.platform.spi, self.platform.radio,
                self.radio_powerstate, self.radio_activity,
                self.cpu_activity, self.proxies, self.idle,
                self.rng.stream(f"node{self.node_id}.mac"),
                spi_mode=self.config.platform.spi_mode)
            if self.config.mac == "csma":
                self.mac = CsmaMac(self.radio_driver)
            elif self.config.mac == "lpl":
                self.mac = LplMac(
                    self.radio_driver, self.vtimers, self.cpu_activity,
                    self.vtimer_label, self.proxies.label("pxy_RX"),
                    self.idle)
            if self.mac is not None:
                self.am = ActiveMessageLayer(
                    self.node_id, self.mac, self.cpu_activity,
                    self.platform.mcu)

        # The DCO-calibration leak, if configured (Figure 15).
        dco_trigger = self.interrupts.wire(
            "int_TIMERA1", self._dco_calibrate, body_cycles=20)
        self.platform.clock.start(dco_trigger)

        self.counters: Optional[CounterAccountant] = None
        if self.config.enable_counters:
            self.counters = CounterAccountant(
                sim, self.platform.icount, mcu=self.platform.mcu)
            self.cpu_activity.add_tracker(self.counters.on_single_activity)

        self._booted = False
        self._log_end_mark_ns = -1
        # Memoized timeline, keyed by (record count, end time):
        # regression + accounting reuse one decode.
        self._timeline_cache: Optional[tuple[int, int, ColumnarTimeline]] = \
            None
        # A batch's sibling worlds and this log's (record count, end
        # time) as the batch left it (see link_batch), and the breakdown
        # their fused pass parked here, keyed the same way.
        self._batch: Optional[tuple[list[QuantoNode], int, int]] = None
        self._parked: Optional[
            tuple[int, int, tuple[RegressionResult, EnergyMap]]] = None
        # Warm-start snapshot: the registration/observer state as of the
        # end of construction, so reset() can drop anything attached or
        # registered by a previous run (app activities, test trackers).
        self._pristine_registry = self.registry.snapshot_state()
        self._pristine_hook_counts = (
            len(self.tracker._listeners),
            tuple(len(d._trackers) for d in self._single_devices()),
            len(self.timer_activity._trackers),
        )

    # -- warm start -------------------------------------------------------

    def reset(self, seed: Optional[int] = None) -> None:
        """Return the whole node to its post-construction state so the
        next boot replays a fresh run — the warm-start protocol.

        A sweep worker constructs one node per experiment configuration
        and calls ``reset(seed)`` per grid point instead of rebuilding
        the world.  The reset re-keys every rng stream in place, replays
        the seed-dependent construction steps (per-device draw variation),
        zeroes all dynamic state down to the hardware models, and drops
        anything a previous run registered (application activities,
        harness observers).  ``tests/test_warm_start.py`` proves reset ≡
        rebuild digest-for-digest; that equivalence is the contract every
        layer's ``reset()`` implements.

        Only supported for a standalone node: a node attached to a radio
        channel shares state with the rest of its network and must be
        rebuilt with it.
        """
        if self.channel is not None:
            raise RuntimeError(
                "cannot warm-reset a networked node; rebuild the network")
        self.sim.reset()
        self.rng.reseed(seed if seed is not None else self.rng.master_seed)
        self.platform.reset()
        self.registry.restore_state(self._pristine_registry)
        listeners, device_trackers, multi_trackers = \
            self._pristine_hook_counts
        del self.tracker._listeners[listeners:]
        for device, count in zip(self._single_devices(), device_trackers):
            del device._trackers[count:]
        del self.timer_activity._trackers[multi_trackers:]
        for var in self.tracker.all_vars():
            var.reset()
        for device in self._single_devices():
            device.reset(self.idle)
        self.timer_activity.reset()
        self.logger.reset()
        self.interrupts.reset()
        self.scheduler.reset()
        self.vtimers.reset()
        self.bus_arbiter.reset()
        self.flash.reset()
        self.sensor.reset()
        if self.counters is not None:
            self.counters.reset()
        self._booted = False
        self._log_end_mark_ns = -1
        self._timeline_cache = None
        self._batch = None
        self._parked = None

    # -- boot ------------------------------------------------------------

    def boot(self, app_start: Optional[Callable[["QuantoNode"], None]] = None,
             ) -> None:
        """Queue the boot task: record the initial state snapshot, then
        run the application's start hook."""
        if self._booted:
            raise RuntimeError(f"node {self.node_id} already booted")
        self._booted = True

        def boot_body() -> None:
            self.logger.record_boot_snapshot(
                self.tracker, self._single_devices())
            if app_start is not None:
                app_start(self)

        self.scheduler.post_function(boot_body, cycles=40, label="boot",
                                     activity=self.idle)

    def _dco_calibrate(self) -> None:
        """The TimerA1 DCO-calibration ISR body (the energy leak)."""
        from repro.hw.clock import DCO_CALIBRATION_CYCLES
        self.platform.mcu.consume(DCO_CALIBRATION_CYCLES)

    def _single_devices(self) -> list[SingleActivityDevice]:
        return [
            self.cpu_activity, *self.led_activities, self.radio_activity,
            self.flash_activity, self.sensor_activity,
        ]

    # -- activity helpers ----------------------------------------------------

    def activity(self, name: str) -> ActivityLabel:
        """A label for a named application activity, originating here."""
        return self.registry.label(self.node_id, name)

    def set_cpu_activity(self, name: str) -> ActivityLabel:
        """The Figure 7 idiom: paint the CPU before starting an activity."""
        label = self.activity(name)
        self.cpu_activity.set(label)
        return label

    # -- offline analysis -----------------------------------------------------

    def entries(self):
        """The decoded log."""
        return self.logger.decode()

    def mark_log_end(self) -> None:
        """Close the log for analysis: wake the CPU once so the final
        power-state records and meter reading land in the log (energy past
        the last record is unobservable — a real dump does exactly this
        read when it stops logging)."""
        from repro.units import ms as _ms

        if (self._log_end_mark_ns >= 0
                and self.sim.now <= self._log_end_mark_ns + _ms(1)):
            return  # already marked; the clock only moved by the settle
        if self.platform.mcu._in_job:
            return  # called from inside the simulation; nothing to close
        self._log_end_mark_ns = self.sim.now
        self.scheduler.post_function(
            lambda: self.platform.mcu.consume(4),
            cycles=4, label="log-end-mark", activity=self.idle)
        self.sim.run(until=self.sim.now + _ms(1))

    def timeline(self) -> ColumnarTimeline:
        """The reconstruction of this node's log, closed by
        :meth:`mark_log_end` and ending now: one ``np.frombuffer``
        decode off the logger's raw bytes, intervals and segments as
        column arrays, no per-entry objects.  Memoized per (record
        count, end time) so the regression and the energy map share one
        decode; a timeline taken earlier stays a snapshot of its own
        rows as the log grows."""
        if self._booted:
            self.mark_log_end()
        end = self.sim.now
        count = self.logger.records_written
        cached = self._timeline_cache
        if cached is not None and cached[0] == count and cached[1] == end:
            return cached[2]
        timeline = ColumnarTimeline(
            self.logger.columns(), end_time_ns=end,
            single_res_ids=self.single_res_ids,
            multi_res_ids=self.multi_res_ids)
        self._timeline_cache = (count, end, timeline)
        return timeline

    def layout(self) -> tuple[SinkColumn, ...]:
        """The regression's column layout, built once per node."""
        return self._layout

    def regression(
        self,
        timeline: Optional[ColumnarTimeline] = None,
    ) -> RegressionResult:
        """Run the Section 2.5 breakdown on this node's log, or on the
        passed ``timeline`` snapshot (its rows, not the live log).  The
        grouped ``(E_j, t_j)`` inputs come straight off the interval
        columns (no ``PowerInterval`` objects).
        """
        return self._solve(
            timeline if timeline is not None else self.timeline())

    def _solve(self, timeline: ColumnarTimeline) -> RegressionResult:
        return solve_grouped(
            *timeline.grouped_inputs(
                self.platform.icount.nominal_energy_per_pulse_j),
            self.layout(),
            self.platform.rail.voltage,
        )

    def breakdown(self) -> tuple[RegressionResult, EnergyMap]:
        """Regression + energy map off one shared reconstruction — the
        per-point analysis path experiments should use.  Both consumers
        read the memoized :meth:`timeline`: one ``np.frombuffer`` decode
        for the whole analysis, no per-entry objects.

        A batch's worlds (:func:`link_batch`) are analysed together: the
        first call on any of them runs one fused pass over every sibling
        whose log is still as the batch left it and parks each one's
        result, keyed by (record count, end time).  A call is served its
        parked result only while its log still has that key; otherwise
        the node is analysed alone.  Either way the result is bit for
        bit the one analysing this log alone gives.
        """
        if self._booted:
            self.mark_log_end()
        key = (self.logger.records_written, self.sim.now)
        if self._batch is not None:
            self._analyse_batch()
        parked, self._parked = self._parked, None
        if parked is not None and parked[:2] == key:
            return parked[2]
        regression = self.regression()
        return regression, self.energy_map(regression=regression)

    def _analyse_batch(self) -> None:
        """Run the sibling group's one fused pass if this log is still
        as the batch left it (else unlink only this node) and park each
        analysed sibling's result."""
        siblings = self._batch[0]
        current = [node for node in siblings
                   if node._batch is not None
                   and node._batch[0] is siblings
                   and node._batch[1:] == (node.logger.records_written,
                                           node.sim.now)]
        if self not in current:
            self._batch = None
            return
        for node in current:
            node._batch = None
        for node, result in zip(current, QuantoNode._fused_breakdowns(
                current, fold_proxies=False)):
            node._parked = (node.logger.records_written, node.sim.now,
                            (result.regression, result.energy_map))

    def energy_map(
        self,
        timeline: Optional[ColumnarTimeline] = None,
        regression: Optional[RegressionResult] = None,
        fold_proxies: bool = False,
    ) -> EnergyMap:
        """The full 'where have the joules gone' answer for this node,
        or for the passed ``timeline`` snapshot."""
        columnar = timeline if timeline is not None else self.timeline()
        reg = regression if regression is not None \
            else self.regression(columnar)
        (emap,) = columnar_energy_map(
            columnar, [reg], self.registry, COMPONENT_NAMES,
            [self.platform.icount.nominal_energy_per_pulse_j],
            fold_proxies=fold_proxies,
            idle_names=[self.registry.name_of(self.idle)],
        )
        return emap

    @staticmethod
    def breakdown_all(nodes: Sequence["QuantoNode"]) -> list[NodeBreakdown]:
        """:meth:`breakdown` with proxy activities folded for several
        nodes (a :class:`~repro.tos.network.Network`'s, which share one
        simulator and one activity registry) in one pass over all their
        logs: one :class:`ColumnarTimeline` of every log, each node's
        regression off its own log's view, and one fold into one map per
        node — the fused pass a batch's :meth:`breakdown` runs too.
        Logs whose registries name an activity differently are folded
        apart (:func:`fusable_groups`).  Proxies are always folded: a
        network-wide view charges each bound proxy to the activity it
        stood for.

        Each node's log is closed and snapshotted right after its own
        :meth:`mark_log_end`, in ``nodes`` order — so every node sees the
        same log a loop of per-node :meth:`energy_map` calls would — and
        only then fused.  The results equal that loop's bit for bit, and
        each node's timeline memo holds its view.
        """
        return QuantoNode._fused_breakdowns(list(nodes), fold_proxies=True)

    @staticmethod
    def _fused_breakdowns(nodes: list["QuantoNode"],
                          fold_proxies: bool) -> list[NodeBreakdown]:
        """The fused analysis under :meth:`breakdown_all` and a batch's
        :meth:`breakdown`.  Closes and snapshots each log in ``nodes``
        order, then gives each group of logs whose registries name every
        activity alike (:func:`fusable_groups`) one
        :class:`ColumnarTimeline`, each node's regression off its own
        log's view, and one fold into one map per node, priced with the
        group's first registry.  Results come in ``nodes`` order, each
        bit-identical to analysing that log alone, and each node's
        timeline memo holds its view."""
        snapshots = []
        for node in nodes:
            if node._booted:
                node.mark_log_end()
            snapshots.append((node.logger.columns(), node.sim.now,
                              node.logger.records_written))
        results: list[NodeBreakdown] = [None] * len(nodes)
        for indices in fusable_groups([node.registry for node in nodes]):
            group = [nodes[i] for i in indices]
            shots = [snapshots[i] for i in indices]
            timeline = ColumnarTimeline(
                [columns for columns, _, _ in shots],
                end_time_ns=[end for _, end, _ in shots],
                single_res_ids=[node.single_res_ids for node in group],
                multi_res_ids=[node.multi_res_ids for node in group],
            )
            views = [timeline.log(k) for k in range(len(group))]
            regressions = [node._solve(view)
                           for node, view in zip(group, views)]
            registry = group[0].registry
            maps = columnar_energy_map(
                timeline, regressions, registry, COMPONENT_NAMES,
                [node.platform.icount.nominal_energy_per_pulse_j
                 for node in group],
                fold_proxies=fold_proxies,
                idle_names=[registry.name_of(node.idle) for node in group],
            )
            for k, index in enumerate(indices):
                _, end, count = shots[k]
                group[k]._timeline_cache = (count, end, views[k])
                results[index] = NodeBreakdown(
                    views[k], regressions[k], maps[k])
        return results

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<QuantoNode {self.node_id} mac={self.config.mac}>"
