"""Instrumented forwarding queues (paper §3.3).

"There are other less general structures that effectively defer
processing of an activity, such as forwarding queues in protocols, and we
have to instrument these to also store and restore the CPU activity
associated with the queue entry."

A :class:`ForwardingQueue` stores the CPU's current activity alongside
each enqueued item and restores it when the item is processed, so a
multihop protocol that queues packets from several origins charges each
forwarding operation to the right remote activity even when the radio is
busy and service is deferred arbitrarily.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generic, Optional, TypeVar

from repro.core.activity import SingleActivityDevice
from repro.core.labels import ActivityLabel

T = TypeVar("T")

#: Cycles for queue bookkeeping per operation.
QUEUE_CYCLES = 7

#: Entries a queue holds before it drops at the tail.
CAPACITY = 8


class ForwardingQueue(Generic[T]):
    """A bounded FIFO that preserves activity labels across deferral."""

    def __init__(
        self,
        name: str,
        cpu_activity: SingleActivityDevice,
        mcu,
    ) -> None:
        self.name = name
        self.cpu_activity = cpu_activity
        self.mcu = mcu
        self._items: deque[tuple[T, ActivityLabel]] = deque()
        self.enqueued = 0
        self.dropped = 0
        self.dequeued = 0

    @property
    def full(self) -> bool:
        return len(self._items) >= CAPACITY

    def enqueue(self, item: T) -> bool:
        """Store the item with the CPU's current activity.  Returns False
        (drop-tail) when the queue is full — queue losses are a real
        sensornet failure mode worth modelling."""
        if self.mcu._in_job:
            self.mcu.consume(QUEUE_CYCLES)
        if self.full:
            self.dropped += 1
            return False
        self._items.append((item, self.cpu_activity.get()))
        self.enqueued += 1
        return True

    def dequeue(self) -> Optional[T]:
        """Pop the oldest item, *restoring its saved activity* onto the
        CPU — the instrumentation point the paper calls out."""
        if not self._items:
            return None
        if self.mcu._in_job:
            self.mcu.consume(QUEUE_CYCLES)
        item, activity = self._items.popleft()
        self.cpu_activity.set(activity)
        self.dequeued += 1
        return item
