"""The SPI/USART bus between the MCU and the radio (and external flash).

Two transfer modes, matching the paper's third case study (Figure 16):

* **Interrupt-driven** — the USART shifts two bytes, raises an RX interrupt
  (``int_UART0RX`` in the paper's traces), and the handler feeds the next
  pair.  Effective throughput is dominated by per-pair interrupt overhead.
* **DMA** — a DMA channel streams the whole buffer at wire speed and raises
  a single completion interrupt (``int_DACDMA`` in the paper's traces).

The bus itself only models timing and busy/idle arbitration; the driver
layer supplies the interrupt continuations and pays CPU cycles for its
handlers.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import HardwareError
from repro.sim.engine import Simulator
from repro.units import us

#: Wire time to shift one byte (SPI clock ~250 kbit/s effective).
BYTE_TIME_NS = us(32)

#: Bytes moved per interrupt in interrupt-driven mode.
PAIR_SIZE = 2

#: DMA controller setup latency before the burst starts.
DMA_SETUP_NS = us(24)


class SpiBus:
    """A single-master SPI bus with pair-interrupt and DMA transfer modes."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._busy = False
        self.pair_interrupts = 0
        self.dma_transfers = 0

    @property
    def busy(self) -> bool:
        return self._busy

    def reset(self) -> None:
        """Warm-start reset: idle bus, tallies zeroed."""
        self._busy = False
        self.pair_interrupts = 0
        self.dma_transfers = 0

    def _acquire(self) -> None:
        if self._busy:
            raise HardwareError("SPI bus is busy")
        self._busy = True

    def _release(self) -> None:
        self._busy = False

    # -- interrupt-driven mode ----------------------------------------------

    def shift_pair(self, nbytes: int, on_pair_done: Callable[[], None]) -> None:
        """Shift up to one pair of bytes, then invoke ``on_pair_done`` (the
        hardware-side RX-interrupt line).  The driver's handler calls
        :meth:`shift_pair` again for the next pair; the bus stays held by
        the caller between pairs (release with :meth:`end_transfer`)."""
        if nbytes <= 0:
            raise HardwareError("shift_pair needs at least one byte")
        if not self._busy:
            self._acquire()
        chunk = min(nbytes, PAIR_SIZE)
        self.pair_interrupts += 1
        self.sim.after(chunk * BYTE_TIME_NS, on_pair_done)

    def end_transfer(self) -> None:
        """Release the bus after an interrupt-driven transfer completes."""
        self._release()

    # -- DMA mode ------------------------------------------------------------

    def dma_transfer(self, nbytes: int, on_done: Callable[[], None]) -> None:
        """Stream ``nbytes`` at wire speed; one completion callback (the
        DMA-done interrupt line).  The bus is released automatically."""
        if nbytes <= 0:
            raise HardwareError("dma_transfer needs at least one byte")
        self._acquire()
        self.dma_transfers += 1
        duration = DMA_SETUP_NS + nbytes * BYTE_TIME_NS

        def finish() -> None:
            self._release()
            on_done()

        self.sim.after(duration, finish)
