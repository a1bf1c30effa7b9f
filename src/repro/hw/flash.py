"""AT45DB161D-class external NOR flash model.

This device is the paper's worked example of *shadowed* power states
(Section 2.4): the chip transitions between idle, ready, and busy states
that the CPU does not directly control — it observes them through the
ready/busy handshake.  The model exposes a ``ready_listener`` so the
instrumented driver can mirror those transitions into Quanto power states,
and it actually stores page data so read-back tests are meaningful.

Timing (datasheet-typical): page program 3 ms, page erase 10 ms, block
erase 45 ms, wake from deep power-down 35 us, continuous read at the SPI
wire rate.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import HardwareError
from repro.hw.catalog import ActualDrawProfile
from repro.hw.power import PowerRail
from repro.sim.engine import Simulator
from repro.units import ms, us

PAGE_SIZE = 528
PAGE_COUNT = 4096

WAKEUP_NS = us(35)
PAGE_PROGRAM_NS = ms(3)
PAGE_ERASE_NS = ms(10)
BYTE_READ_NS = us(32)

STATE_POWER_DOWN = "POWER_DOWN"
STATE_STANDBY = "STANDBY"
STATE_READ = "READ"
STATE_WRITE = "WRITE"
STATE_ERASE = "ERASE"


class ExternalFlash:
    """The flash chip: states, timing, the ready line, and page storage."""

    def __init__(self, sim: Simulator, rail: PowerRail,
                 profile: ActualDrawProfile):
        self.sim = sim
        self.profile = profile
        self._sink = rail.register("ExternalFlash")
        self.state = STATE_POWER_DOWN
        self._pages: dict[int, bytes] = {}
        self._busy = False
        self._ready_listener: Optional[Callable[[str, bool], None]] = None
        self.operations = 0
        self._apply(STATE_POWER_DOWN)

    def set_ready_listener(self, fn: Callable[[str, bool], None]) -> None:
        """Driver hook: called as ``fn(state_name, busy)`` on every
        transition — the handshake lines the driver shadows."""
        self._ready_listener = fn

    def reset(self, profile: Optional[ActualDrawProfile] = None) -> None:
        """Warm-start reset: powered down, storage erased, tally zeroed.
        The ready-listener wiring (installed by the driver at node
        construction) survives, but the listener is *not* notified — the
        driver resets its own shadow state separately."""
        if profile is not None:
            self.profile = profile
        self.state = STATE_POWER_DOWN
        self._pages.clear()
        self._busy = False
        self.operations = 0
        self._sink.set_current(
            self.profile.current("ExternalFlash", STATE_POWER_DOWN))

    def _apply(self, state: str) -> None:
        self.state = state
        self._sink.set_current(self.profile.current("ExternalFlash", state))
        if self._ready_listener:
            self._ready_listener(state, self._busy)

    def _require_idle(self) -> None:
        if self._busy:
            raise HardwareError("flash is busy")

    # -- power -------------------------------------------------------------

    def wake(self, on_ready: Callable[[], None]) -> None:
        """Leave deep power-down; ready after the wake-up latency."""
        self._require_idle()
        if self.state != STATE_POWER_DOWN:
            raise HardwareError(f"wake in state {self.state}")
        self._busy = True

        def ready() -> None:
            self._busy = False
            self._apply(STATE_STANDBY)
            on_ready()

        self.sim.after(WAKEUP_NS, ready)

    # -- operations ----------------------------------------------------------

    def _check_page(self, page: int) -> None:
        if not 0 <= page < PAGE_COUNT:
            raise HardwareError(f"page {page} out of range")

    def program_page(self, page: int, data: bytes,
                     on_done: Callable[[], None]) -> None:
        """Program a page; the chip is busy (WRITE draw) for 3 ms and then
        raises the ready line."""
        self._require_idle()
        if self.state != STATE_STANDBY:
            raise HardwareError(f"program in state {self.state}")
        self._check_page(page)
        if len(data) > PAGE_SIZE:
            raise HardwareError(f"page data too large: {len(data)}")
        self._busy = True
        self.operations += 1
        self._apply(STATE_WRITE)

        def done() -> None:
            self._pages[page] = bytes(data)
            self._busy = False
            self._apply(STATE_STANDBY)
            on_done()

        self.sim.after(PAGE_PROGRAM_NS, done)

    def erase_page(self, page: int, on_done: Callable[[], None]) -> None:
        """Erase a page (10 ms busy at the ERASE draw)."""
        self._require_idle()
        if self.state != STATE_STANDBY:
            raise HardwareError(f"erase in state {self.state}")
        self._check_page(page)
        self._busy = True
        self.operations += 1
        self._apply(STATE_ERASE)

        def done() -> None:
            self._pages.pop(page, None)
            self._busy = False
            self._apply(STATE_STANDBY)
            on_done()

        self.sim.after(PAGE_ERASE_NS, done)

    def read_page(self, page: int, nbytes: int,
                  on_done: Callable[[bytes], None]) -> None:
        """Continuous-array read of ``nbytes`` from a page at wire speed."""
        self._require_idle()
        if self.state != STATE_STANDBY:
            raise HardwareError(f"read in state {self.state}")
        self._check_page(page)
        self._busy = True
        self.operations += 1
        self._apply(STATE_READ)
        stored = self._pages.get(page, b"\xff" * PAGE_SIZE)  # erased = 0xFF
        data = stored[:nbytes].ljust(nbytes, b"\xff")

        def done() -> None:
            self._busy = False
            self._apply(STATE_STANDBY)
            on_done(data)

        self.sim.after(nbytes * BYTE_READ_NS, done)
