"""Ground-truth power accounting: the "real electrons" of the simulation.

Every hardware model registers one or more *sinks* on the node's
:class:`PowerRail` and sets that sink's instantaneous current draw as its
internal state changes.  The rail integrates ``V * I_total`` exactly over
the piecewise-constant schedule, producing the hidden true energy that the
iCount meter quantizes and the virtual oscilloscope samples.

This module is strictly ground truth.  Quanto's estimation pipeline must
never import it at analysis time — the whole point of the paper is that the
per-sink draws are *recovered* from aggregate observations.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import PowerModelError
from repro.sim.engine import Simulator


class SinkHandle:
    """Write handle a hardware model uses to report its true current draw."""

    __slots__ = ("rail", "name", "_amps")

    def __init__(self, rail: "PowerRail", name: str):
        self.rail = rail
        self.name = name
        self._amps = 0.0

    @property
    def amps(self) -> float:
        """The sink's current draw right now, in amperes."""
        return self._amps

    def set_current(self, amps: float) -> None:
        """Set this sink's draw.  Idempotent sets are free."""
        if amps < 0.0:
            raise PowerModelError(f"sink {self.name!r}: negative current {amps}")
        if amps == self._amps:
            return
        self.rail._update(self, amps)

    def off(self) -> None:
        """Convenience for ``set_current(0.0)``."""
        self.set_current(0.0)


class PowerRail:
    """Integrates the aggregate draw of all registered sinks.

    ``energy()`` returns the exact integral of ``voltage * sum(currents)``
    from t=0 to the simulator's current time.  Observers (the oscilloscope,
    plotting code) may subscribe to current *steps* via
    :meth:`add_observer`; each observer is called as
    ``observer(t_ns, new_total_amps)`` after every aggregate change.
    """

    def __init__(self, sim: Simulator, voltage: float = 3.0):
        if voltage <= 0:
            raise PowerModelError(f"voltage must be positive, got {voltage}")
        self.sim = sim
        self.voltage = float(voltage)
        self._sinks: dict[str, SinkHandle] = {}
        # Sinks currently drawing nonzero current: the integration loop
        # runs once per meter read, and most sinks sit at zero (radio
        # off, flash idle), so only the hot ones are walked.
        self._hot: dict[str, SinkHandle] = {}
        self._total_amps = 0.0
        self._energy_j = 0.0
        self._last_update_ns = 0
        self._observers: list[Callable[[int, float], None]] = []
        # Per-sink true energy, for validating the regression against truth.
        self._sink_energy_j: dict[str, float] = {}

    # -- registration ----------------------------------------------------

    def register(self, name: str) -> SinkHandle:
        """Register a named sink.  Names must be unique per rail."""
        if name in self._sinks:
            raise PowerModelError(f"sink {name!r} already registered")
        handle = SinkHandle(self, name)
        self._sinks[name] = handle
        self._sink_energy_j[name] = 0.0
        return handle

    def add_observer(self, fn: Callable[[int, float], None]) -> None:
        """Subscribe to aggregate current steps: ``fn(t_ns, total_amps)``."""
        self._observers.append(fn)

    # -- integration -------------------------------------------------------

    def _integrate_to_now(self) -> None:
        # Every log record reads the rail, so this is one of the hottest
        # loops in a run: only the sinks drawing nonzero current (the
        # _hot set) are walked, and when the aggregate is exactly zero
        # there is nothing to add at all (draws are non-negative, so the
        # accumulators are unchanged either way — x + 0.0 == x for the
        # non-negative totals kept here).
        now = self.sim._now
        dt_ns = now - self._last_update_ns
        if dt_ns > 0:
            total = self._total_amps
            if total:
                dt_s = dt_ns * 1e-9
                voltage = self.voltage
                self._energy_j += voltage * total * dt_s
                sink_energy = self._sink_energy_j
                for name, handle in self._hot.items():
                    sink_energy[name] += voltage * handle._amps * dt_s
            self._last_update_ns = now

    def _update(self, handle: SinkHandle, amps: float) -> None:
        self._integrate_to_now()
        self._total_amps += amps - handle._amps
        if self._total_amps < 0.0:
            # Guard against float drift taking the total slightly negative.
            if self._total_amps < -1e-12:
                raise PowerModelError(
                    f"aggregate current went negative: {self._total_amps}"
                )
            self._total_amps = 0.0
        handle._amps = amps
        if amps:
            self._hot[handle.name] = handle
        else:
            self._hot.pop(handle.name, None)
        for observer in self._observers:
            observer(self.sim.now, self._total_amps)

    # -- warm-start reset --------------------------------------------------

    def reset(self) -> None:
        """Return the rail to its freshly constructed state: every sink at
        zero draw, integrators empty, the clock mark back at t=0.

        Part of the warm-start protocol.  Registered sinks survive (the
        hardware wiring is construction state); observers do not — they
        are attached by measurement harnesses (the oscilloscope), never
        during platform construction, so a reset drops them rather than
        let a previous run's instrument watch the next run.  Callers
        (the platform reset) re-apply the initial currents afterwards.
        """
        for handle in self._sinks.values():
            handle._amps = 0.0
        self._hot.clear()
        self._total_amps = 0.0
        self._energy_j = 0.0
        self._last_update_ns = 0
        self._observers.clear()
        for name in self._sink_energy_j:
            self._sink_energy_j[name] = 0.0

    # -- queries -----------------------------------------------------------

    def energy(self) -> float:
        """True cumulative energy in joules from t=0 to now."""
        self._integrate_to_now()
        return self._energy_j

    def sink_energy(self, name: str) -> float:
        """True cumulative energy of one sink (ground truth for tests)."""
        self._integrate_to_now()
        try:
            return self._sink_energy_j[name]
        except KeyError:
            raise PowerModelError(f"unknown sink {name!r}") from None

    def current(self) -> float:
        """Aggregate current draw right now, in amperes."""
        return self._total_amps

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PowerRail {self.voltage} V, {len(self._sinks)} sinks, "
            f"I={self._total_amps * 1e3:.3f} mA>"
        )
