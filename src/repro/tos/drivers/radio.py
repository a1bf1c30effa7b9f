"""The CC2420 radio driver: the paper's most involved instrumentation
target (Table 5: 11 files, 105 lines).

Responsibilities and their Quanto hooks:

* **Power control** — vreg / oscillator / RX / TX transitions exposed
  through one multi-valued power-state variable.
* **TX path** — ``send`` paints the radio with the CPU's current activity
  (paper Figure 8's ``loadTXFIFO``), loads the TXFIFO over SPI (interrupt-
  per-pair or DMA, the Figure 16 comparison), backs off, optionally checks
  CCA, strobes TX.  The driver stores the sending activity so the SFD and
  TX-done interrupts can bind their proxies to it — the paper's "device
  driver will have stored locally ... the activity to which this
  processing should be assigned".
* **RX path** — SFD capture (``int_TIMERB1``), then the FIFO drain under
  the ``pxy_RX`` proxy with per-pair ``int_UART0RX`` interrupts, then a
  decode task that hands the frame to the AM layer, which binds the proxy
  to the label in the packet.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.activity import ProxyActivitySet, SingleActivityDevice
from repro.core.labels import ActivityLabel
from repro.core.powerstate import PowerStateVar
from repro.hw.mcu import Mcu
from repro.hw.radio import Frame, Radio
from repro.hw.spi import SpiBus
from repro.tos.am import encode_frame
from repro.tos.interrupts import InterruptController
from repro.tos.scheduler import Scheduler
from repro.tos.vtimer import VirtualTimerSystem
from repro.units import ms, us

# Power-state variable values for the radio sink.
PS_OFF = 0
PS_VREG = 1
PS_IDLE = 2
PS_RX = 3
PS_TX = 4

RADIO_STATE_NAMES = {
    PS_OFF: "OFF", PS_VREG: "VREG", PS_IDLE: "IDLE",
    PS_RX: "RX", PS_TX: "TX",
}

#: Initial CSMA backoff window (uniform), congestion backoff window.
INITIAL_BACKOFF_NS = (ms(0.6), ms(3.2))
CONGESTION_BACKOFF_NS = (ms(0.6), ms(2.4))
MAX_BACKOFFS = 8

#: Handler costs (cycles).
UART_PAIR_CYCLES = 28
SFD_CYCLES = 16
TXDONE_CYCLES = 24
FIFOP_CYCLES = 40
DECODE_TASK_CYCLES = 80
DMA_SETUP_CYCLES = 34


class SendError(Exception):
    """Raised when a send is attempted while one is already in flight."""


class RadioDriver:
    """The instrumented radio stack below the AM layer."""

    def __init__(
        self,
        mcu: Mcu,
        scheduler: Scheduler,
        interrupts: InterruptController,
        vtimers: VirtualTimerSystem,
        spi: SpiBus,
        radio: Radio,
        powerstate: PowerStateVar,
        radio_activity: SingleActivityDevice,
        cpu_activity: SingleActivityDevice,
        proxies: ProxyActivitySet,
        idle_label: ActivityLabel,
        rng,
        spi_mode: str = "irq",
    ) -> None:
        self.mcu = mcu
        self.scheduler = scheduler
        self.vtimers = vtimers
        self.spi = spi
        self.radio = radio
        self.powerstate = powerstate
        self.radio_activity = radio_activity
        self.cpu_activity = cpu_activity
        self.proxies = proxies
        self.idle_label = idle_label
        self.rng = rng
        self.spi_mode = spi_mode
        self._receive_fn: Optional[Callable[[Frame], None]] = None
        # TX state.
        self._tx_frame: Optional[Frame] = None
        self._tx_done_cb: Optional[Callable[[Frame], None]] = None
        self._tx_activity: Optional[ActivityLabel] = None
        self._tx_remaining = 0
        self._tx_backoffs = 0
        self.sends_completed = 0
        self.backoff_count = 0
        # RX state.
        self._rx_frame: Optional[Frame] = None
        self._rx_remaining = 0
        self._rx_proxy = proxies.label("pxy_RX")
        # Start-up state.
        self._start_cb: Optional[Callable[[], None]] = None
        self._start_activity: Optional[ActivityLabel] = None
        # Interrupt wiring.
        self._vreg_done_irq = interrupts.wire(
            "int_RADIO", self._vreg_done, body_cycles=12)
        self._osc_done_irq = interrupts.wire(
            "int_RADIO", self._osc_done, body_cycles=12)
        self._tx_uart_irq = interrupts.wire(
            "int_UART0RX", self._tx_pair_done, body_cycles=UART_PAIR_CYCLES)
        self._tx_dma_irq = interrupts.wire(
            "int_DACDMA", self._tx_load_done, body_cycles=DMA_SETUP_CYCLES)
        self._sfd_irq = interrupts.wire(
            "int_TIMERB1", self._sfd_capture, body_cycles=SFD_CYCLES)
        self._txdone_irq = interrupts.wire(
            "int_RADIO", self._tx_complete, body_cycles=TXDONE_CYCLES)
        self._fifop_irq = interrupts.wire(
            "pxy_RX", self._rx_frame_ready, body_cycles=FIFOP_CYCLES)
        self._rx_uart_irq = interrupts.wire(
            "int_UART0RX", self._rx_pair_done, body_cycles=UART_PAIR_CYCLES)
        radio.on_sfd = self._sfd_irq
        radio.on_tx_sfd = self._sfd_irq
        radio.on_tx_done = self._txdone_irq
        radio.on_rx_done = self._fifop_irq

    # -- control ---------------------------------------------------------

    def set_receive(self, fn: Callable[[Frame], None]) -> None:
        """Install the upper layer's (AM's) frame handler."""
        self._receive_fn = fn

    def start(self, on_started: Callable[[], None]) -> None:
        """Power the radio up to IDLE (vreg, then oscillator)."""
        self._start_cb = on_started
        self._start_activity = self.cpu_activity.get()
        self.powerstate.set(PS_VREG)
        self.radio.vreg_on(self._vreg_done_irq)

    def _vreg_done(self) -> None:
        if self._start_activity is not None:
            self.cpu_activity.bind(self._start_activity)
        self.radio.osc_on(self._osc_done_irq)

    def _osc_done(self) -> None:
        if self._start_activity is not None:
            self.cpu_activity.bind(self._start_activity)
        self.powerstate.set(PS_IDLE)
        callback = self._start_cb
        self._start_cb = None
        if callback is not None:
            self.scheduler.post_function(
                callback, cycles=8, label="radio-started",
                activity=self._start_activity,
            )

    def rx_enable(self) -> None:
        """Strobe RX on (the driver signals the state at command time; the
        192 us calibration draw is close enough to the listen draw that
        this is the fidelity the real instrumentation achieves)."""
        self.powerstate.set(PS_RX)
        self.radio.rx_on()

    def stop(self) -> None:
        """Kill the regulator from any state."""
        self.powerstate.set(PS_OFF)
        self.radio.vreg_off()

    def cca_clear(self) -> bool:
        self.mcu.consume(8)
        return self.radio.cca_clear()

    def set_tx_power(self, dbm: int) -> None:
        """Program the PA level (one of the Table 1 TX settings)."""
        from repro.hw.radio import TX_POWER_STATES

        if dbm not in TX_POWER_STATES:
            raise ValueError(f"unsupported TX power {dbm} dBm")
        self.mcu.consume(10)
        self.radio.tx_power_dbm = dbm

    @property
    def is_listening(self) -> bool:
        return self.radio.state == "RX"

    # -- transmit path ----------------------------------------------------

    def send(self, frame: Frame, on_done: Optional[Callable[[Frame], None]],
             use_cca: bool = True) -> None:
        """Load and transmit one frame.  Called in CPU context; the
        caller's activity colors the whole operation."""
        if self._tx_frame is not None:
            raise SendError("send already in progress")
        self._tx_frame = frame
        self._tx_done_cb = on_done
        self._tx_activity = self.cpu_activity.get()
        self._tx_use_cca = use_cca
        self._tx_backoffs = 0
        # Figure 8: paint the radio with the CPU's current activity before
        # loading the TXFIFO.
        self.radio_activity.set(self._tx_activity)
        nbytes = len(encode_frame(frame)) + 1  # +1 for the length byte
        if self.spi_mode == "dma":
            self.mcu.consume(DMA_SETUP_CYCLES)
            self.spi.dma_transfer(nbytes, self._tx_dma_irq)
        else:
            self._tx_remaining = nbytes
            self.spi.shift_pair(self._tx_remaining, self._tx_uart_irq)

    def _tx_pair_done(self) -> None:
        """One SPI pair landed (interrupt mode): bind to the sender's
        activity and feed the next pair."""
        if self._tx_activity is not None:
            self.cpu_activity.bind(self._tx_activity)
        self._tx_remaining -= 2
        if self._tx_remaining > 0:
            self.spi.shift_pair(self._tx_remaining, self._tx_uart_irq)
        else:
            self.spi.end_transfer()
            self._tx_load_done()

    def _tx_load_done(self) -> None:
        """TXFIFO loaded (last pair or the DMA-done interrupt)."""
        if self._tx_activity is not None:
            self.cpu_activity.bind(self._tx_activity)
        assert self._tx_frame is not None
        self.radio.load_tx_fifo(self._tx_frame)
        self._schedule_backoff(INITIAL_BACKOFF_NS)

    def _schedule_backoff(self, window: tuple[int, int]) -> None:
        self.backoff_count += 1
        delay = self.rng.randint(window[0], window[1])
        self.vtimers.start_oneshot(
            self._backoff_fired, delay, name="csma-backoff",
            activity=self._tx_activity,
        )

    def _backoff_fired(self) -> None:
        """Backoff expired (task context, under the sender's activity):
        check the channel and strobe TX."""
        self.mcu.consume(12)
        if self._tx_use_cca and self.radio.state == "RX":
            if not self.radio.cca_clear():
                self._tx_backoffs += 1
                if self._tx_backoffs >= MAX_BACKOFFS:
                    self._finish_send()  # give up; counted as completed
                    return
                self._schedule_backoff(CONGESTION_BACKOFF_NS)
                return
        self.powerstate.set(PS_TX)
        self.radio.strobe_tx()

    def _sfd_capture(self) -> None:
        """SFD edge (TX or RX): timestamp capture on TimerB1."""
        if self._tx_frame is not None and self._tx_activity is not None:
            self.cpu_activity.bind(self._tx_activity)

    def _tx_complete(self) -> None:
        """TX done: hardware fell back to RX."""
        if self._tx_activity is not None:
            self.cpu_activity.bind(self._tx_activity)
        self.powerstate.set(PS_RX)
        self._finish_send()

    def _finish_send(self) -> None:
        frame, callback, activity = (
            self._tx_frame, self._tx_done_cb, self._tx_activity
        )
        self._tx_frame = None
        self._tx_done_cb = None
        self.sends_completed += 1
        self.radio_activity.set(self.idle_label)
        if callback is not None and frame is not None:
            self.scheduler.post_function(
                lambda: callback(frame), cycles=10,
                label="sendDone", activity=activity,
            )

    # -- receive path ----------------------------------------------------

    def _rx_frame_ready(self) -> None:
        """FIFOP: a complete frame sits in the RXFIFO.  Runs under the
        pxy_RX proxy; start draining the FIFO over SPI."""
        if self._rx_frame is not None or self.spi.busy:
            # A drain or a TX load is in flight; retry shortly.
            self.vtimers.start_oneshot(
                self._retry_rx, us(400), name="rx-retry",
                activity=self._rx_proxy,
            )
            return
        if not self.radio.rx_fifo:
            return
        self._rx_frame = self.radio.read_rx_fifo()
        self._rx_remaining = len(encode_frame(self._rx_frame)) + 1
        self.spi.shift_pair(self._rx_remaining, self._rx_uart_irq)

    def _retry_rx(self) -> None:
        self.mcu.consume(8)
        if self.radio.rx_fifo and self._rx_frame is None and not self.spi.busy:
            self._rx_frame_ready()

    def _rx_pair_done(self) -> None:
        """One SPI pair drained: charge to the reception proxy."""
        self.cpu_activity.bind(self._rx_proxy)
        self._rx_remaining -= 2
        if self._rx_remaining > 0:
            self.spi.shift_pair(self._rx_remaining, self._rx_uart_irq)
            return
        self.spi.end_transfer()
        frame = self._rx_frame
        self._rx_frame = None
        # Decode in task context, still under the proxy; the AM layer will
        # bind the proxy to the label carried in the packet.
        self.scheduler.post_function(
            lambda: self._decode(frame), cycles=DECODE_TASK_CYCLES,
            label="radio-decode", activity=self._rx_proxy,
        )

    def _decode(self, frame: Optional[Frame]) -> None:
        if frame is None:
            return
        # Wire-format round trip: what the stack hands up is what the
        # bytes say, hidden field included.
        decoded = frame
        raw = encode_frame(frame)
        from repro.tos.am import decode_frame  # local import: layer above
        decoded = decode_frame(raw)
        if self._receive_fn is not None:
            self._receive_fn(decoded)
