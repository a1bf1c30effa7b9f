"""The paper's workloads, written against the public node API.

* :mod:`repro.apps.blink` — the calibration and single-node activity
  example (Sections 4.1–4.2.1).
* :mod:`repro.apps.bounce` — cross-node activity tracking (Section 4.2.2).
* :mod:`repro.apps.sense_send` — the Figure 7 sense-and-send application.
* :mod:`repro.apps.lpl_app` — the low-power-listening node of the
  interference case study (Section 4.3, Figures 13–14).
* :mod:`repro.apps.timer_leak` — the two-activity timer app that exposed
  the DCO-calibration leak (Figure 15).
* :mod:`repro.apps.dma_compare` — packet transmission under interrupt-
  driven vs DMA SPI (Figure 16).
"""

from repro.apps.blink import BlinkApp
from repro.apps.bounce import BounceApp
from repro.apps.sense_send import SenseAndSendApp
from repro.apps.lpl_app import LplListenApp
from repro.apps.timer_leak import TimerLeakApp
from repro.apps.dma_compare import OneShotSenderApp

__all__ = [
    "BlinkApp",
    "BounceApp",
    "SenseAndSendApp",
    "LplListenApp",
    "TimerLeakApp",
    "OneShotSenderApp",
]
