"""One-shot packet sender for the DMA-vs-interrupt comparison
(paper Figure 16).

The app transmits a single Bounce-sized packet under its application
activity.  Run on a node with ``spi_mode='irq'`` the TXFIFO load costs an
``int_UART0RX`` interrupt every two bytes; with ``spi_mode='dma'`` the
load is one burst and a single ``int_DACDMA`` completion — at least twice
as fast, with the MAC-fairness implications the paper discusses.
"""

from __future__ import annotations

from typing import Optional

from repro.tos.am import AM_BROADCAST
from repro.tos.node import QuantoNode
from repro.units import ms

AM_PROBE = 0x50

#: The probe is a broadcast Bounce-sized packet, sent this long after the
#: radio comes up.
PAYLOAD_LEN = 20
START_DELAY_NS = ms(5)


class OneShotSenderApp:
    """Sends exactly one packet and records the phase timings."""

    def __init__(self) -> None:
        self.node: Optional[QuantoNode] = None
        self.send_started_ns: Optional[int] = None
        self.send_done_ns: Optional[int] = None

    def start(self, node: QuantoNode) -> None:
        self.node = node
        if node.am is None:
            raise RuntimeError("OneShotSenderApp needs a MAC/AM stack")
        node.set_cpu_activity("BounceApp")
        node.mac.start(self._radio_ready)
        node.cpu_activity.set(node.idle)

    def _radio_ready(self) -> None:
        node = self.node
        assert node is not None
        node.vtimers.start_oneshot(
            self._send, START_DELAY_NS, name="probe-send",
            activity=node.activity("BounceApp"))

    def _send(self) -> None:
        node = self.node
        assert node is not None
        node.set_cpu_activity("BounceApp")
        node.platform.mcu.consume(25)
        self.send_started_ns = node.sim.now
        node.am.send(AM_BROADCAST, AM_PROBE, bytes(PAYLOAD_LEN),
                     on_send_done=self._sent)

    def _sent(self, frame) -> None:
        node = self.node
        assert node is not None
        self.send_done_ns = node.sim.now

    @property
    def duration_ns(self) -> Optional[int]:
        """Send-call to sendDone, the Figure 16 window."""
        if self.send_started_ns is None or self.send_done_ns is None:
            return None
        return self.send_done_ns - self.send_started_ns
