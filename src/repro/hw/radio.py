"""CC2420-class 802.15.4 radio model.

State machine (times from the CC2420 datasheet, rounded to the values the
TinyOS stack uses):

    OFF --vreg_on (580 us)--> VREG --osc_on (860 us)--> IDLE
    IDLE --rx calibrate (192 us)--> RX (listen / receive)
    IDLE or RX --tx calibrate (192 us)--> TX (preamble+SFD, payload) --> RX

Ground-truth sinks: the regulator, the control path (oscillator/bias,
drawn in any powered state past VREG), the RX path (drawn in RX and during
calibration), and the TX path (drawn while transmitting).

The radio talks to a :class:`~repro.net.channel.RadioChannel` for actual
frame exchange, CCA, and interference.  Interrupt lines (SFD capture,
RX-FIFO threshold) are plain callables installed by the driver layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import HardwareError
from repro.hw.catalog import ActualDrawProfile
from repro.hw.power import PowerRail
from repro.sim.engine import Event, Simulator
from repro.units import us

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.channel import RadioChannel

#: 802.15.4 wire speed: 250 kbit/s = 32 us per byte.
SYMBOL_BYTE_NS = us(32)

#: Synchronization header: 4 preamble bytes + 1 SFD byte.
PREAMBLE_BYTES = 5
PREAMBLE_NS = PREAMBLE_BYTES * SYMBOL_BYTE_NS

VREG_DELAY_NS = us(580)
OSC_DELAY_NS = us(860)
CALIBRATION_NS = us(192)

#: CCA needs 8 symbol periods of RX before the reading is valid.
CCA_VALID_NS = us(128)

STATE_OFF = "OFF"
STATE_VREG = "VREG"
STATE_IDLE = "IDLE"
STATE_RX_CALIB = "RX_CALIB"
STATE_RX = "RX"
STATE_TX_CALIB = "TX_CALIB"
STATE_TX = "TX"

#: TX power register settings -> (dBm label, tx-path state name).
TX_POWER_STATES = {
    0: "TX_0dBm",
    -1: "TX_-1dBm",
    -3: "TX_-3dBm",
    -5: "TX_-5dBm",
    -7: "TX_-7dBm",
    -10: "TX_-10dBm",
    -15: "TX_-15dBm",
    -25: "TX_-25dBm",
}


@dataclass
class Frame:
    """An over-the-air 802.15.4 frame (Active Message payload inside).

    ``activity`` is Quanto's hidden 16-bit label field — part of the frame
    body, invisible to the application (Section 3.3 of the paper).
    """

    src: int
    dst: int
    am_type: int
    payload: bytes
    activity: int = 0
    seqno: int = 0

    @property
    def length(self) -> int:
        """Frame length on the wire: 11 header bytes (FCF, seq, addresses,
        AM type), the hidden 2-byte activity field, payload, 2-byte CRC."""
        return 11 + 2 + len(self.payload) + 2

    def airtime_ns(self) -> int:
        """Time on air after the SFD, i.e. length byte + body."""
        return (1 + self.length) * SYMBOL_BYTE_NS


class Radio:
    """The radio chip: power states, FIFOs, and channel interaction."""

    def __init__(
        self,
        sim: Simulator,
        rail: PowerRail,
        profile: ActualDrawProfile,
        node_id: int,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.profile = profile
        self._vreg = rail.register("RadioRegulator")
        self._control = rail.register("RadioControlPath")
        self._rx_path = rail.register("RadioRxPath")
        self._tx_path = rail.register("RadioTxPath")
        # Table 1's battery monitor: a sink of its own that nothing here
        # enables.
        rail.register("RadioBatteryMonitor")
        self.state = STATE_OFF
        self.channel: Optional["RadioChannel"] = None
        self.freq_channel = 26  # 802.15.4 channel number (11..26)
        self.tx_power_dbm = 0
        # Interrupt lines, installed by the driver.
        self.on_sfd: Optional[Callable[[], None]] = None
        self.on_rx_done: Optional[Callable[[], None]] = None
        self.on_tx_sfd: Optional[Callable[[], None]] = None
        self.on_tx_done: Optional[Callable[[], None]] = None
        self.tx_fifo: Optional[Frame] = None
        self.rx_fifo: list[Frame] = []
        self._rx_in_progress: Optional[Frame] = None
        self._pending: Optional[Event] = None
        self.frames_sent = 0
        self.frames_received = 0
        # Per-state current lookup tables: the radio transitions states
        # on every frame (calibrate, TX, fall back to RX), so the four
        # sink draws per (state, tx-power) pair are interned once and a
        # transition becomes a dict hit, not four catalog walks.
        self._state_currents: dict[tuple[str, int],
                                   tuple[float, float, float, float]] = {}
        self._vreg.set_current(profile.current("RadioRegulator", "OFF"))

    # -- warm-start reset -------------------------------------------------

    def reset(self, profile: Optional[ActualDrawProfile] = None) -> None:
        """Return to the post-construction state (OFF, FIFOs empty,
        tallies zeroed), re-deriving the per-state draw LUT when the
        profile was re-varied.

        Only supported for a detached radio (no channel): a node wired
        into a network cannot be warm-reset in isolation.
        """
        if self.channel is not None:
            raise HardwareError("cannot reset a radio attached to a channel")
        if profile is not None:
            self.profile = profile
        self._state_currents.clear()
        self.state = STATE_OFF
        self.tx_power_dbm = 0
        self.tx_fifo = None
        self.rx_fifo.clear()
        self._rx_in_progress = None
        self._pending = None
        self.frames_sent = 0
        self.frames_received = 0
        self._vreg.set_current(self.profile.current("RadioRegulator", "OFF"))

    # -- wiring ---------------------------------------------------------

    def attach(self, channel: "RadioChannel") -> None:
        """Connect to a channel (done by the network assembly)."""
        self.channel = channel
        channel.register(self)

    def set_channel_number(self, freq_channel: int) -> None:
        if not 11 <= freq_channel <= 26:
            raise HardwareError(f"bad 802.15.4 channel {freq_channel}")
        self.freq_channel = freq_channel

    # -- ground-truth plumbing -------------------------------------------

    def _state_draws(self, state: str) -> tuple[float, float, float, float]:
        """(vreg, control, rx, tx) amps for one (state, tx-power) pair —
        computed once from the profile, then a dict hit."""
        key = (state, self.tx_power_dbm)
        draws = self._state_currents.get(key)
        if draws is None:
            vreg_state = "OFF" if state == STATE_OFF else "ON"
            control_on = state not in (STATE_OFF, STATE_VREG)
            rx_on = state in (STATE_RX, STATE_RX_CALIB)
            tx_on = state in (STATE_TX, STATE_TX_CALIB)
            tx_state = TX_POWER_STATES.get(self.tx_power_dbm, "TX_0dBm")
            draws = (
                self.profile.current("RadioRegulator", vreg_state),
                self.profile.current("RadioControlPath", "IDLE")
                if control_on else 0.0,
                self.profile.current("RadioRxPath", "RX_LISTEN")
                if rx_on else 0.0,
                self.profile.current("RadioTxPath", tx_state)
                if tx_on else 0.0,
            )
            self._state_currents[key] = draws
        return draws

    def _enter(self, state: str) -> None:
        self.state = state
        vreg, control, rx, tx = self._state_draws(state)
        self._vreg.set_current(vreg)
        self._control.set_current(control)
        self._rx_path.set_current(rx)
        self._tx_path.set_current(tx)

    # -- power control -----------------------------------------------------

    def vreg_on(self, on_done: Callable[[], None]) -> None:
        """Turn the voltage regulator on; callback after the ramp."""
        if self.state != STATE_OFF:
            raise HardwareError(f"vreg_on in state {self.state}")
        self._enter(STATE_VREG)
        self.sim.after(VREG_DELAY_NS, on_done)

    def vreg_off(self) -> None:
        """Kill the regulator from any state (also aborts RX/TX)."""
        self._cancel_pending()
        self._rx_in_progress = None
        if self.channel is not None:
            self.channel.radio_stopped_listening(self)
        self._enter(STATE_OFF)

    def osc_on(self, on_done: Callable[[], None]) -> None:
        """Start the crystal oscillator; callback when stable (IDLE)."""
        if self.state != STATE_VREG:
            raise HardwareError(f"osc_on in state {self.state}")

        def stable() -> None:
            self._enter(STATE_IDLE)
            on_done()

        self.sim.after(OSC_DELAY_NS, stable)

    def rx_on(self) -> None:
        """Strobe SRXON: calibrate then listen."""
        if self.state not in (STATE_IDLE, STATE_RX):
            raise HardwareError(f"rx_on in state {self.state}")
        if self.state == STATE_RX:
            return
        self._enter(STATE_RX_CALIB)

        def calibrated() -> None:
            self._enter(STATE_RX)
            if self.channel is not None:
                self.channel.radio_started_listening(self)

        self._pending = self.sim.after(CALIBRATION_NS, calibrated)

    def rf_off(self) -> None:
        """Strobe SRFOFF: back to IDLE (oscillator stays on)."""
        if self.state in (STATE_OFF, STATE_VREG):
            raise HardwareError(f"rf_off in state {self.state}")
        self._cancel_pending()
        if self.state in (STATE_RX, STATE_RX_CALIB) and self.channel is not None:
            self.channel.radio_stopped_listening(self)
        self._rx_in_progress = None
        self._enter(STATE_IDLE)

    def _cancel_pending(self) -> None:
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    # -- transmit ------------------------------------------------------------

    def load_tx_fifo(self, frame: Frame) -> None:
        """Latch the frame the SPI transfer deposited (driver calls this
        when the FIFO write completes)."""
        self.tx_fifo = frame

    def strobe_tx(self) -> None:
        """STXON: calibrate, send preamble+SFD, then the frame body."""
        if self.tx_fifo is None:
            raise HardwareError("strobe_tx with empty TXFIFO")
        if self.state not in (STATE_IDLE, STATE_RX):
            raise HardwareError(f"strobe_tx in state {self.state}")
        if self.state in (STATE_RX, STATE_RX_CALIB) and self.channel is not None:
            self.channel.radio_stopped_listening(self)
        frame = self.tx_fifo
        self._enter(STATE_TX_CALIB)

        def calibrated() -> None:
            self._enter(STATE_TX)
            if self.channel is not None:
                self.channel.begin_transmission(self, frame)
            self._pending = self.sim.after(PREAMBLE_NS, sfd_sent)

        def sfd_sent() -> None:
            if self.on_tx_sfd:
                self.on_tx_sfd()
            self._pending = self.sim.after(frame.airtime_ns(), tx_done)

        def tx_done() -> None:
            self.frames_sent += 1
            self.tx_fifo = None
            if self.channel is not None:
                self.channel.end_transmission(self, frame)
            # CC2420 falls back to RX after TX completes.
            self._enter(STATE_RX)
            if self.channel is not None:
                self.channel.radio_started_listening(self)
            if self.on_tx_done:
                self.on_tx_done()

        self._pending = self.sim.after(CALIBRATION_NS, calibrated)

    # -- receive (driven by the channel) ------------------------------------

    def channel_frame_begins(self, frame: Frame) -> None:
        """Channel announces a frame whose preamble just started.  If we are
        listening, lock on: SFD interrupt after the preamble, frame into the
        RXFIFO after the body."""
        if self.state != STATE_RX or self._rx_in_progress is not None:
            return
        self._rx_in_progress = frame

        def sfd() -> None:
            if self._rx_in_progress is not frame:
                return
            if self.on_sfd:
                self.on_sfd()
            self._pending = self.sim.after(frame.airtime_ns(), complete)

        def complete() -> None:
            if self._rx_in_progress is not frame:
                return
            self._rx_in_progress = None
            self.rx_fifo.append(frame)
            self.frames_received += 1
            if self.on_rx_done:
                self.on_rx_done()

        self._pending = self.sim.after(PREAMBLE_NS, sfd)

    def read_rx_fifo(self) -> Frame:
        """Pop the oldest received frame (driver does this over SPI)."""
        if not self.rx_fifo:
            raise HardwareError("RXFIFO empty")
        return self.rx_fifo.pop(0)

    # -- CCA -------------------------------------------------------------

    def cca_clear(self) -> bool:
        """Clear-channel assessment; only valid in RX."""
        if self.state != STATE_RX:
            raise HardwareError(f"CCA in state {self.state}")
        if self.channel is None:
            return True
        return not self.channel.energy_detected(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Radio node={self.node_id} {self.state} ch={self.freq_channel}>"
