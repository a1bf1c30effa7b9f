"""An 802.11 b/g interference source.

The paper's first case study places a mote 10 cm from an 802.11b access
point on Wi-Fi channel 6 (2.437 GHz).  Wi-Fi activity reaching the mote is
a mix of periodic beacons (102.4 ms interval, ~1 ms at 1 Mb/s rates) and
bursty data traffic.  We model the source as an alternating renewal
process: exponential idle gaps between bursts plus the beacon clock, with
burst lengths drawn from a bounded exponential.

The default traffic level is tuned so that a 9.3 ms LPL wake-up window
overlaps a burst ~17.8 % of the time — the false-positive rate the paper
measured on 802.15.4 channel 17 — while channel 26 sees zero overlap
because its spectral distance (43 MHz) zeroes the overlap factor.
"""

from __future__ import annotations

from repro.net.channel import overlap_factor
from repro.sim.engine import Simulator
from repro.units import ms, to_s, us


#: 802.11 channel 6 and its occupied bandwidth.
CENTER_MHZ = 2437.0
BANDWIDTH_MHZ = 22.0
BEACON_PERIOD_NS = ms(102.4)
BEACON_DURATION_NS = ms(1.0)
#: Mean idle gap between data bursts (exponential).  Together with the
#: burst length this sets the busy fraction, tuned so a ~7 ms LPL sampling
#: span sees a burst ~18 % of the time (the paper's channel-17
#: false-positive rate).
DATA_GAP_MEAN_NS = ms(55.0)
#: Mean data burst duration (exponential, capped).
DATA_BURST_MEAN_NS = ms(4.0)
DATA_BURST_CAP_NS = ms(20.0)


class Wifi80211Interferer:
    """Beacons plus bursty data traffic on a Wi-Fi channel."""

    def __init__(self, sim: Simulator, rng) -> None:
        self.sim = sim
        self._rng = rng
        self._beacon_active = False
        self._data_active = False
        self.burst_count = 0
        self._running = False

    def start(self) -> None:
        """Begin emitting beacons and data bursts."""
        if self._running:
            return
        self._running = True
        self.sim.after(BEACON_PERIOD_NS, self._beacon)
        self.sim.after(self._next_gap(), self._data_burst)

    def _next_gap(self) -> int:
        return max(us(50), int(self._rng.expovariate(1.0 / DATA_GAP_MEAN_NS)))

    def _next_burst(self) -> int:
        duration = int(self._rng.expovariate(1.0 / DATA_BURST_MEAN_NS))
        return max(us(200), min(duration, DATA_BURST_CAP_NS))

    def _beacon(self) -> None:
        if not self._running:
            return
        self._beacon_active = True
        self.burst_count += 1

        def beacon_done() -> None:
            self._beacon_active = False

        self.sim.after(BEACON_DURATION_NS, beacon_done)
        self.sim.after(BEACON_PERIOD_NS, self._beacon)

    def _data_burst(self) -> None:
        if not self._running:
            return
        self._data_active = True
        self.burst_count += 1

        def burst_done() -> None:
            self._data_active = False
            self.sim.after(self._next_gap(), self._data_burst)

        self.sim.after(self._next_burst(), burst_done)

    def stop(self) -> None:
        self._running = False
        self._beacon_active = False
        self._data_active = False

    # -- the interface the channel polls -------------------------------------

    def active(self) -> bool:
        """Is the source radiating right now?"""
        return self._beacon_active or self._data_active

    def overlap(self, channel: int) -> float:
        """Spectral overlap with an 802.15.4 channel (0..1)."""
        return overlap_factor(CENTER_MHZ, BANDWIDTH_MHZ, channel)
