"""MAC layers: always-on CSMA and low-power listening (LPL).

**CsmaMac** is a thin pass-through: radio always listening, CSMA backoff
handled by the radio driver (the Bounce configuration).

**LplMac** implements the duty-cycling regime of the paper's first case
study (Polastre-style low-power listening): the receiver sleeps, waking
every ``CHECK_INTERVAL_NS`` to sample the channel; if it detects energy it
stays in RX for up to ``DETECT_TIMEOUT_NS`` waiting for a packet, otherwise
it powers back down.  External wide-band interference therefore causes
*false positives* that keep the radio on — the effect Figure 13
quantifies.  Senders transmit the packet repeatedly for a full check
interval so a duty-cycled receiver is guaranteed to catch one copy.

Quanto specifics: the periodic channel check runs under the VTimer
activity (it is timer-subsystem work); when energy is detected the radio
and the timeout are painted with the ``pxy_RX`` proxy activity — which,
on a false positive, never gets bound to a real activity, exactly how the
paper's Figure 14 displays the wasted energy.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.activity import SingleActivityDevice
from repro.core.labels import ActivityLabel
from repro.hw.radio import Frame
from repro.tos.drivers.radio import RadioDriver
from repro.tos.vtimer import VirtualTimerSystem
from repro.units import ms


class CsmaMac:
    """Always-on MAC: start leaves the radio listening; sends go straight
    to the driver (which performs CSMA backoff + CCA)."""

    def __init__(self, driver: RadioDriver):
        self.driver = driver

    def start(self, on_started: Optional[Callable[[], None]] = None) -> None:
        def started() -> None:
            self.driver.rx_enable()
            if on_started is not None:
                on_started()

        self.driver.start(started)

    def send(self, frame: Frame,
             on_done: Optional[Callable[[Frame], None]]) -> None:
        self.driver.send(frame, on_done)

    def set_receive(self, fn: Callable[[Frame], None]) -> None:
        self.driver.set_receive(fn)


#: Low-power listening parameters (the paper's defaults: 500 ms checks).
CHECK_INTERVAL_NS = ms(500)
#: CCA samples per wake-up and their spacing.  Each sample also pays the
#: virtual-timer dispatch cost (~1 ms of CPU at 1 MHz), so four samples at
#: a 1 ms gap yield the paper's ~11 ms of radio-on time per check (2.22 %
#: duty at 500 ms checks).
CCA_SAMPLES = 4
CCA_SAMPLE_GAP_NS = ms(1.0)
#: How long a detection keeps the radio on waiting for a packet.
DETECT_TIMEOUT_NS = ms(100)


class LplMac:
    """Duty-cycled MAC with energy-detect wake-up."""

    def __init__(
        self,
        driver: RadioDriver,
        vtimers: VirtualTimerSystem,
        cpu_activity: SingleActivityDevice,
        vtimer_activity: ActivityLabel,
        rx_proxy: ActivityLabel,
        idle_label: ActivityLabel,
    ) -> None:
        self.driver = driver
        self.vtimers = vtimers
        self.cpu_activity = cpu_activity
        self.vtimer_activity = vtimer_activity
        self.rx_proxy = rx_proxy
        self.idle_label = idle_label
        self._started = False
        self._checking = False
        self._detected_hold = False
        self._sending = False
        self._samples_left = 0
        # Statistics for the Figure 13 analysis.
        self.wakeups = 0
        self.detections = 0
        self.packets_during_hold = 0
        self._receive_fn: Optional[Callable[[Frame], None]] = None
        driver.set_receive(self._on_frame)

    # -- control ---------------------------------------------------------

    def start(self, on_started: Optional[Callable[[], None]] = None) -> None:
        """Boot the radio once to confirm it works, power it down, and
        begin the periodic channel checks."""

        def started() -> None:
            self.driver.stop()
            self._started = True
            self.vtimers.start_periodic(
                self._check, CHECK_INTERVAL_NS,
                name="lpl-check", activity=self.vtimer_activity,
            )
            if on_started is not None:
                on_started()

        self.driver.start(started)

    def set_receive(self, fn: Callable[[Frame], None]) -> None:
        self._receive_fn = fn

    # -- the periodic check -------------------------------------------------

    def _check(self) -> None:
        """Wake the radio and sample the channel (runs under VTimer)."""
        if self._checking or self._detected_hold or self._sending:
            return
        self._checking = True
        self.wakeups += 1
        self.driver.start(self._radio_ready)

    def _radio_ready(self) -> None:
        self.driver.rx_enable()
        self._samples_left = CCA_SAMPLES
        self.vtimers.start_oneshot(
            self._sample, CCA_SAMPLE_GAP_NS,
            name="lpl-cca", activity=self.vtimer_activity,
        )

    def _sample(self) -> None:
        """One CCA sample; energy -> hold RX; all clear -> back to sleep."""
        if self._sending or not self.driver.is_listening:
            self._checking = False
            return
        if not self.driver.cca_clear():
            self._begin_hold()
            return
        self._samples_left -= 1
        if self._samples_left > 0:
            self.vtimers.start_oneshot(
                self._sample, CCA_SAMPLE_GAP_NS,
                name="lpl-cca", activity=self.vtimer_activity,
            )
            return
        # Clean window: power the radio back down.
        self.driver.stop()
        self._checking = False

    def _begin_hold(self) -> None:
        """Energy detected: keep listening under the receive proxy.  If no
        packet arrives before the timeout this was a false positive and
        the proxy is never bound — the energy stays charged to pxy_RX."""
        self.detections += 1
        self._detected_hold = True
        self._checking = False
        self.cpu_activity.set(self.rx_proxy)
        self.driver.radio_activity.set(self.rx_proxy)
        self.vtimers.start_oneshot(
            self._hold_timeout, DETECT_TIMEOUT_NS,
            name="lpl-hold", activity=self.rx_proxy,
        )

    def _hold_timeout(self) -> None:
        if not self._detected_hold:
            return
        self._detected_hold = False
        self.driver.radio_activity.set(self.idle_label)
        self.driver.stop()

    # -- receive/send ----------------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        if self._detected_hold:
            self.packets_during_hold += 1
            self._detected_hold = False
            self.driver.radio_activity.set(self.idle_label)
            self.driver.stop()
        if self._receive_fn is not None:
            self._receive_fn(frame)

    def send(self, frame: Frame,
             on_done: Optional[Callable[[Frame], None]]) -> None:
        """LPL send: wake the radio and retransmit the frame for one full
        check interval, so the duty-cycled peer is guaranteed to sample
        the channel while we are on the air."""
        self._sending = True
        self._checking = False
        deadline = (
            self.driver.mcu.sim.now + CHECK_INTERVAL_NS
        )

        def started() -> None:
            self.driver.rx_enable()
            transmit_once()

        def transmit_once() -> None:
            self.driver.send(frame, transmitted, use_cca=False)

        def transmitted(sent: Frame) -> None:
            if self.driver.mcu.sim.now < deadline:
                transmit_once()
                return
            self._sending = False
            self.driver.stop()
            if on_done is not None:
                on_done(frame)

        if self.driver.radio.state == "OFF":
            self.driver.start(started)
        elif self.driver.is_listening:
            transmit_once()
        else:
            self.driver.rx_enable()
            transmit_once()
