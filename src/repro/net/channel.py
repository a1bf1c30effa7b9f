"""The shared 2.4 GHz radio channel.

Responsibilities:

* frame delivery between radios tuned to the same 802.15.4 channel
  (start-of-frame announcement, end-of-frame bookkeeping);
* clear-channel assessment: a radio's CCA sees energy from concurrent
  802.15.4 transmissions *and* from wide-band interferers (802.11
  traffic), weighted by spectral overlap between the interferer's band and
  the radio's channel — this is the mechanism behind the paper's
  low-power-listening false positives (Section 4.3, Figure 13).

The propagation model is deliberately simple — every registered radio
hears every other (the paper's experiments are at 10 cm to a few meters) —
but losses can be injected per-link for protocol testing.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.errors import NetworkError
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.radio import Frame, Radio


def channel_center_mhz(channel: int) -> float:
    """Center frequency of an 802.15.4 channel (11..26): 2405 + 5(k-11).

    Note the paper quotes 2453 MHz for channel 17 and 2480 MHz for channel
    26; the standard formula gives 2435 MHz for 17.  What matters for the
    experiment is the *distance* to the 802.11 carrier, so we take the
    paper's stated centers for its two channels and the standard formula
    elsewhere.
    """
    if not 11 <= channel <= 26:
        raise NetworkError(f"bad 802.15.4 channel {channel}")
    paper_centers = {17: 2453.0, 26: 2480.0}
    if channel in paper_centers:
        return paper_centers[channel]
    return 2405.0 + 5.0 * (channel - 11)


def overlap_factor(interferer_center_mhz: float, interferer_bandwidth_mhz: float,
                   channel: int) -> float:
    """Fraction of the interferer's power landing in an 802.15.4 channel.

    An 802.15.4 channel is 2 MHz wide; an 802.11b transmission is ~22 MHz
    wide.  We approximate the 802.11 spectral mask as flat over its main
    lobe with a linear skirt over the next half-lobe, which is enough to
    make channel 17 (16 MHz away from 802.11 ch 6) strongly interfered and
    channel 26 (43 MHz away) clean — matching the measured behaviour.
    """
    distance = abs(channel_center_mhz(channel) - interferer_center_mhz)
    half_main = interferer_bandwidth_mhz / 2.0
    if distance <= half_main:
        return 1.0
    skirt_end = interferer_bandwidth_mhz  # linear roll-off over one half-lobe
    if distance >= skirt_end:
        return 0.0
    return 1.0 - (distance - half_main) / (skirt_end - half_main)


class RadioChannel:
    """Connects radios and interference sources."""

    #: CCA threshold: interferer overlap above this reads as a busy channel.
    CCA_OVERLAP_THRESHOLD = 0.1

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._radios: list["Radio"] = []
        self._listening: set[int] = set()  # node ids currently in RX
        self._active_tx: dict[int, "Frame"] = {}  # node id -> frame in flight
        self._tx_channel: dict[int, int] = {}  # node id -> 802.15.4 channel
        #: (interferer, audible_to) pairs; audible_to=None means everyone
        #: hears it (an AP near the whole testbed); a node-id set models a
        #: source near only part of the deployment.
        self._interferers: list = []
        self._drop: dict[tuple[int, int], float] = {}  # (src, dst) -> P(loss)
        self.frames_started = 0

    # -- membership -----------------------------------------------------

    def register(self, radio: "Radio") -> None:
        if any(existing.node_id == radio.node_id for existing in self._radios):
            raise NetworkError(f"duplicate node id {radio.node_id}")
        self._radios.append(radio)

    def add_interferer(self, interferer,
                       audible_to: Optional[set[int]] = None) -> None:
        """Attach an interference source exposing ``active()`` and
        ``overlap(channel) -> float``.  ``audible_to`` restricts which
        nodes hear it (spatial locality); None means all of them."""
        self._interferers.append((interferer, audible_to))

    def set_link_loss(self, src: int, dst: int, probability: float) -> None:
        """Inject packet loss on a directed link (for protocol tests)."""
        if not 0.0 <= probability <= 1.0:
            raise NetworkError(f"bad loss probability {probability}")
        self._drop[(src, dst)] = probability

    # -- RX bookkeeping ---------------------------------------------------

    def radio_started_listening(self, radio: "Radio") -> None:
        self._listening.add(radio.node_id)

    def radio_stopped_listening(self, radio: "Radio") -> None:
        self._listening.discard(radio.node_id)

    # -- transmission -----------------------------------------------------

    def begin_transmission(self, radio: "Radio", frame: "Frame") -> None:
        """Called by a radio when its preamble starts; announce the frame
        to every listener on the same channel."""
        self.frames_started += 1
        self._active_tx[radio.node_id] = frame
        self._tx_channel[radio.node_id] = radio.freq_channel
        for other in self._radios:
            if other.node_id == radio.node_id:
                continue
            if other.freq_channel != radio.freq_channel:
                continue
            if other.node_id not in self._listening:
                continue
            loss = self._drop.get((radio.node_id, other.node_id), 0.0)
            if loss:
                # Deterministic pseudo-random drop keyed to the frame.
                key = (frame.src, frame.seqno, other.node_id,
                       self.frames_started)
                if (hash(key) % 10_000) / 10_000.0 < loss:
                    continue
            other.channel_frame_begins(frame)

    def end_transmission(self, radio: "Radio", frame: "Frame") -> None:
        self._active_tx.pop(radio.node_id, None)
        self._tx_channel.pop(radio.node_id, None)

    # -- energy detection ---------------------------------------------------

    def energy_detected(self, radio: "Radio") -> bool:
        """CCA for a listening radio: busy if any same-channel 802.15.4
        transmission is in flight, or any interferer is bursting with
        enough spectral overlap."""
        for node_id, channel in self._tx_channel.items():
            if node_id != radio.node_id and channel == radio.freq_channel:
                return True
        for interferer, audible_to in self._interferers:
            if audible_to is not None and radio.node_id not in audible_to:
                continue
            if not interferer.active():
                continue
            if interferer.overlap(radio.freq_channel) > self.CCA_OVERLAP_THRESHOLD:
                return True
        return False
