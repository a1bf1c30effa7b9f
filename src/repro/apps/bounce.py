"""Bounce: two nodes exchanging two packets forever (paper Section 4.2.2).

Each node originates one packet under its own ``BounceApp`` activity.  On
reception, the hidden activity field re-paints the receiving CPU with the
*originating* node's activity, an indicator LED is lit (painted with that
activity, so its energy is charged to the originator), and after a hold
delay the packet is sent back — still under the original activity, which
the hidden field then carries across the air again.

LED convention from Figure 12: LED1 indicates possession of the *peer's*
packet, LED2 possession of our own returning packet.
"""

from __future__ import annotations

from repro.core.labels import ActivityLabel
from repro.hw.radio import Frame
from repro.tos.node import QuantoNode
from repro.units import ms

AM_BOUNCE = 0x42

#: How long a node holds a packet (LED on) before bouncing it back.
HOLD_DELAY_NS = ms(500)

#: Delay from boot to originating this node's own packet.
ORIGINATE_DELAY_NS = ms(250)


class BounceApp:
    """One endpoint of the two-node bounce."""

    def __init__(self, peer_id: int,
                 originate_delay_ns: int = ORIGINATE_DELAY_NS) -> None:
        self.peer_id = peer_id
        self.originate_delay_ns = originate_delay_ns
        self.node: QuantoNode | None = None
        self.bounces = 0
        self.received = 0

    def start(self, node: QuantoNode) -> None:
        self.node = node
        if node.am is None:
            raise RuntimeError("BounceApp needs a MAC/AM stack")
        node.am.register_receiver(AM_BOUNCE, self._received)
        node.set_cpu_activity("BounceApp")
        node.mac.start(self._radio_ready)
        node.cpu_activity.set(node.idle)

    def _radio_ready(self) -> None:
        node = self.node
        assert node is not None
        node.set_cpu_activity("BounceApp")
        node.vtimers.start_oneshot(
            self._originate, self.originate_delay_ns, name="originate")

    def _originate(self) -> None:
        """Send this node's own packet (under its own BounceApp label)."""
        node = self.node
        assert node is not None
        node.set_cpu_activity("BounceApp")
        node.platform.mcu.consume(30)
        node.am.send(self.peer_id, AM_BOUNCE, b"\x00\x01")

    def _received(self, frame: Frame) -> None:
        """AM receive (task context; the CPU already carries the label
        decoded from the packet's hidden field)."""
        node = self.node
        assert node is not None
        self.received += 1
        origin = ActivityLabel.decode(frame.activity).origin
        led_index = 1 if origin != node.node_id else 2
        node.platform.mcu.consume(25)
        node.leds.paint(led_index)  # charged to the packet's activity
        node.leds.led_on(led_index)
        # The hold timer saves the current (remote) activity, so the
        # bounce-back send is still colored by the originating node.
        node.vtimers.start_oneshot(
            lambda: self._bounce_back(frame, led_index),
            HOLD_DELAY_NS, name="bounce-hold")

    def _bounce_back(self, frame: Frame, led_index: int) -> None:
        node = self.node
        assert node is not None
        node.platform.mcu.consume(20)
        node.leds.led_off(led_index)
        node.leds.unpaint(led_index)
        self.bounces += 1
        node.am.send(frame.src, AM_BOUNCE, frame.payload)
