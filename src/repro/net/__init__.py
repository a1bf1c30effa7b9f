"""Radio environment substrate: the shared 2.4 GHz channel and external
interference sources (802.11 b/g traffic)."""

from repro.net.channel import RadioChannel, channel_center_mhz, overlap_factor
from repro.net.interference import Wifi80211Interferer

__all__ = [
    "RadioChannel",
    "channel_center_mhz",
    "overlap_factor",
    "Wifi80211Interferer",
]
