"""The Quanto event log (paper Section 4.4 and Table 4).

Every power-state change and activity change produces one 12-byte entry::

    typedef struct entry_t {
        uint8_t  type;    // entry type
        uint8_t  res_id;  // hardware resource
        uint32_t time;    // local time (us, wraps)
        uint32_t ic;      // iCount cumulative pulses (wraps)
        union { uint16_t act; uint16_t powerstate; };
    } entry_t;                      // 12 bytes

We pack entries with ``struct`` into a real 12-byte wire format, so the
RAM budget, field widths, and wrap-around behaviour are honoured, and the
offline decoder has to unwrap 32-bit timestamps the way a real tool would.

The packed format is also consumed **over the network**: the live ingest
server (:mod:`repro.serve`) accepts exactly these 12-byte frames from
streaming nodes, reassembled from arbitrary TCP chunk boundaries by
:class:`WireDecoder` — the format is the protocol, with no extra framing
layer.  Anything that changes :data:`ENTRY_STRUCT` therefore changes the
wire protocol, not just the on-node RAM layout.

Costs (Table 4): each synchronous record charges **102 cycles** to the CPU
(41 call overhead + 19 timer read + 24 iCount read + 18 bookkeeping).  The
buffer holds 800 entries by default.  Two modes:

* ``ram`` — log to the fixed buffer; when full, stop recording (the
  experiment harness sizes the buffer for the run, like the paper's
  stop-and-dump approach).
* ``drain`` — continuous logging: a low-priority task empties the buffer
  to a backchannel while the CPU would otherwise be idle, charging its own
  CPU time to Quanto's own activity (like Unix ``top`` accounting for
  itself; the paper measured 4–15 % CPU for this mode).

Hot-path note: the synchronous :meth:`QuantoLogger.record` path stores
raw ``(type, res_id, time, ic, value)`` tuples in a capacity-bounded
ring and defers the ``struct`` packing to dump time, where
:meth:`QuantoLogger.raw_bytes` packs the whole log in one bulk
``pack_into`` sweep over a preallocated buffer (memoized until the next
record).  Field masking still happens at record time, so the wire
format, the 32-bit wrap-around behaviour, the RAM budget (capacity is
counted in 12-byte entries, exactly as before), and the Table 4 cycle
charges are all bit-identical to eager packing — only *when* the bytes
are produced changes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from math import floor
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.core.labels import ActivityLabel
from repro.errors import HardwareError, LoggerError
from repro.hw.mcu import CYCLE_NS

ENTRY_STRUCT = struct.Struct("<BBIIH")
ENTRY_SIZE = ENTRY_STRUCT.size  # 12 bytes
assert ENTRY_SIZE == 12

#: The same wire format as :data:`ENTRY_STRUCT`, as a numpy structured
#: dtype: 12 bytes, little-endian, no padding.  ``np.frombuffer`` over a
#: packed log with this dtype decodes every entry in one shot — the
#: columnar analysis backend's entry point.
ENTRY_DTYPE = np.dtype([
    ("type", "u1"),
    ("res_id", "u1"),
    ("time", "<u4"),
    ("ic", "<u4"),
    ("value", "<u2"),
])
assert ENTRY_DTYPE.itemsize == ENTRY_SIZE

# Entry types.
TYPE_POWERSTATE = 1
TYPE_ACT_CHANGE = 2
TYPE_ACT_BIND = 3
TYPE_ACT_ADD = 4
TYPE_ACT_REMOVE = 5
TYPE_BOOT = 6  # initial-state snapshot marker

TYPE_NAMES = {
    TYPE_POWERSTATE: "powerstate",
    TYPE_ACT_CHANGE: "act_change",
    TYPE_ACT_BIND: "act_bind",
    TYPE_ACT_ADD: "act_add",
    TYPE_ACT_REMOVE: "act_remove",
    TYPE_BOOT: "boot",
}

# Cost model (Table 4), in CPU cycles at 1 MHz.
COST_CALL_OVERHEAD = 41
COST_READ_TIMER = 19
COST_READ_ICOUNT = 24
COST_OTHER = 18
COST_TOTAL = COST_CALL_OVERHEAD + COST_READ_TIMER + COST_READ_ICOUNT + COST_OTHER
assert COST_TOTAL == 102

DEFAULT_BUFFER_ENTRIES = 800

#: Drain mode: cycles to push one entry out the backchannel port.
DRAIN_CYCLES_PER_ENTRY = 48
#: Drain mode: entries shipped per drain-task invocation.
DRAIN_BATCH = 16

#: Stop-and-dump mode: cycles to ship one 12-byte entry over the serial
#: port (~104 bits at 57.6 kbit/s at 1 MHz ~= 1.8 ms).
DUMP_CYCLES_PER_ENTRY = 1800
#: Entries shipped per dump-task invocation (bounds job length).
DUMP_BATCH = 32


@dataclass(slots=True)
class LogEntry:
    """A decoded log entry with the unwrapped absolute timestamp.

    Not frozen — a frozen dataclass pays ``object.__setattr__`` per
    field, and a decode pass constructs one of these per 12 bytes of
    log.  Treat instances as immutable anyway; nothing may mutate a
    decoded entry.
    """

    type: int
    res_id: int
    time_us: int  # unwrapped, monotone
    icount: int  # unwrapped, monotone
    value: int
    seq: int  # position in the log (stable tie-break for equal times)
    # Derived once at decode time: the reconstruction reads time_ns
    # several times per entry (interval tracker, every device tracker),
    # so it is a stored field, not a per-access multiply.
    time_ns: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.time_ns = self.time_us * 1000

    @property
    def type_name(self) -> str:
        return TYPE_NAMES.get(self.type, f"type{self.type}")

    @property
    def label(self) -> ActivityLabel:
        """Interpret ``value`` as an activity label."""
        return ActivityLabel.decode(self.value)


class QuantoLogger:
    """Synchronous event recording with the paper's cost model."""

    def __init__(
        self,
        mcu,
        icount,
        mode: str = "ram",
        buffer_entries: int = DEFAULT_BUFFER_ENTRIES,
        auto_dump: bool = False,
        scheduler=None,
        quanto_activity: Optional[ActivityLabel] = None,
        cpu_activity=None,
    ) -> None:
        if mode not in ("ram", "drain"):
            raise LoggerError(f"unknown logger mode {mode!r}")
        # Note: in drain mode the scheduler may be attached after
        # construction (the node wires the logger before the scheduler
        # exists); it must be present by the first record.
        self.mcu = mcu
        self.icount = icount
        self.mode = mode
        self.buffer_entries = int(buffer_entries)
        #: Paper §4.4 first approach: when the RAM buffer fills, stop
        #: logging, dump it to the serial port (a real blackout window —
        #: events during the dump are lost), then resume.
        self.auto_dump = auto_dump
        self.scheduler = scheduler
        self.quanto_activity = quanto_activity
        self.cpu_activity = cpu_activity
        # The RAM ring and the shipped log hold *raw entry tuples*;
        # packing to the 12-byte wire format is deferred to raw_bytes().
        # The list objects are never reassigned (drain/dump mutate them
        # in place), so the bound methods cached below stay valid.
        self._buffer: list[tuple[int, int, int, int, int]] = []
        self._dumped: list[tuple[int, int, int, int, int]] = []
        self._packed_cache: Optional[bytes] = None
        self._packed_count = -1
        # Fused-batch decode (decode_batch) parks this log's decoded
        # columns here, keyed by entry count; columns() serves them
        # without re-decoding.
        self._columns_cache: Optional[tuple[int, "LogColumns"]] = None
        self._append = self._buffer.append
        self._read_icount = icount.read
        # Hoisted off the synchronous path: the mode never changes after
        # construction.
        self._drain_mode = mode == "drain"
        self.enabled = True
        self.stopped_on_overflow = False
        self.records_written = 0
        self.records_dropped = 0
        self.drain_task_runs = 0
        self._drain_scheduled = False
        self._dumping = False
        self.dumps_completed = 0
        self.dump_cycles_total = 0

    # -- warm-start reset --------------------------------------------------

    def reset(self) -> None:
        """Empty the log and rewind every counter to the post-construction
        state.  The ring and shipped lists are cleared *in place* so the
        bound-method caches (``_append``) stay valid; wiring (mcu, meter,
        scheduler, activity hooks) survives."""
        self._buffer.clear()
        self._dumped.clear()
        self._packed_cache = None
        self._packed_count = -1
        self._columns_cache = None
        self.enabled = True
        self.stopped_on_overflow = False
        self.records_written = 0
        self.records_dropped = 0
        self.drain_task_runs = 0
        self._drain_scheduled = False
        self._dumping = False
        self.dumps_completed = 0
        self.dump_cycles_total = 0

    # -- recording (synchronous path) ------------------------------------

    def record(self, entry_type: int, res_id: int, value: int) -> None:
        """Record one event.  Must be called from CPU job context (drivers
        and OS instrumentation always are); charges 102 cycles."""
        if not self.enabled or self.stopped_on_overflow:
            self.records_dropped += 1
            return
        # The synchronous cost: reading the timer and iCount and storing
        # the entry.  Charged to whatever activity the CPU currently has,
        # exactly like the real implementation.  The timestamp is the
        # cycle-advanced virtual time, so records within one CPU job carry
        # strictly increasing times.
        # Inlined mcu.consume(COST_TOTAL) + mcu.virtual_now(): this is
        # the 102-cycle synchronous path the paper budgets; two method
        # calls per record are real overhead at fleet scale.  The guard
        # and arithmetic match the Mcu methods exactly.
        mcu = self.mcu
        if not mcu._in_job:
            raise HardwareError("Mcu.consume() called outside a job")
        pending = mcu._pending_cycles + COST_TOTAL
        mcu._pending_cycles = pending
        virtual_ns = mcu._job_start_ns + pending * CYCLE_NS
        time_us = (virtual_ns // 1000) & 0xFFFFFFFF
        # Inlined ICountMeter.read(virtual_ns): one read per record
        # makes its call frame real overhead too.  Same statements in
        # the same order — the rail integration, the mid-job
        # extrapolation, the jitter draw, and the monotone clamp are
        # exactly read()'s (see icount.py for the commentary).
        meter = self.icount
        rail = meter.rail
        now = rail.sim._now
        dt_ns = now - rail._last_update_ns
        if dt_ns > 0:
            total = rail._total_amps
            if total:
                dt_s = dt_ns * 1e-9
                voltage = rail.voltage
                rail._energy_j += voltage * total * dt_s
                sink_energy = rail._sink_energy_j
                for name, handle in rail._hot.items():
                    sink_energy[name] += voltage * handle._amps * dt_s
            rail._last_update_ns = now
        energy = rail._energy_j
        ahead_ns = virtual_ns - now
        if ahead_ns > 0:
            energy += rail._total_amps * rail.voltage * ahead_ns * 1e-9
        count = energy / meter._effective_j
        gauss = meter._gauss
        if gauss is not None:
            count += gauss()
        pulses = floor(count)
        last = meter._last_count
        if pulses < last:
            # Jitter must never make the counter run backwards.
            pulses = last
        meter._last_count = pulses
        pulses &= 0xFFFFFFFF
        if len(self._buffer) >= self.buffer_entries:
            if self.auto_dump:
                self._start_dump()
                self.records_dropped += 1  # lost in the blackout
                return
            self.stopped_on_overflow = True
            self.records_dropped += 1
            return
        # Masked at record time (the fields a real store would latch);
        # packed lazily in bulk.
        self._append(
            (entry_type & 0xFF, res_id & 0xFF, time_us, pulses,
             value & 0xFFFF)
        )
        self.records_written += 1
        if self._drain_mode:
            self._schedule_drain()

    # -- convenience recorders (the observer-pattern glue) -----------------

    def on_powerstate(self, var, value: int) -> None:
        self.record(TYPE_POWERSTATE, var.res_id, value)

    def on_single_activity(self, device, label: ActivityLabel,
                           bound: bool) -> None:
        # The precomputed wire encoding directly: this glue runs once
        # per activity record, and encode() is a method hop over the
        # same stored value.
        entry_type = TYPE_ACT_BIND if bound else TYPE_ACT_CHANGE
        self.record(entry_type, device.res_id, label._encoded)

    def on_multi_activity(self, device, label: ActivityLabel,
                          added: bool) -> None:
        entry_type = TYPE_ACT_ADD if added else TYPE_ACT_REMOVE
        self.record(entry_type, device.res_id, label._encoded)

    def record_boot_snapshot(self, tracker, activity_devices) -> None:
        """Record the initial power-state vector and activity of every
        device so the decoder knows the starting conditions."""
        for var in tracker.all_vars():
            self.record(TYPE_BOOT, var.res_id, var.value)
        for device in activity_devices:
            if isinstance(device, object) and hasattr(device, "get"):
                self.record(TYPE_ACT_CHANGE, device.res_id,
                            device.get().encode())

    # -- stop-and-dump mode -------------------------------------------------

    def _start_dump(self) -> None:
        """Begin the §4.4 stop-and-dump cycle: logging pauses, a task
        ships the buffer over the serial port, logging resumes.  Events
        during the dump are lost — the cost of this mode's simplicity."""
        if self._dumping:
            return
        if self.scheduler is None:
            # Without a scheduler the dump cannot be performed; behave
            # like the plain stop-on-overflow mode.
            self.stopped_on_overflow = True
            return
        self._dumping = True
        self.enabled = False
        self.scheduler.post_function(self._dump_task, cycles=0,
                                     label="quanto-dump")

    def _dump_task(self) -> None:
        """Ship one batch to the serial port (runs under Quanto's own
        activity when one is configured)."""
        previous = None
        if self.quanto_activity is not None and self.cpu_activity is not None:
            previous = self.cpu_activity.get()
            self.cpu_activity.set(self.quanto_activity)
        batch = min(len(self._buffer), DUMP_BATCH)
        cycles = batch * DUMP_CYCLES_PER_ENTRY
        self.mcu.consume(cycles)
        self.dump_cycles_total += cycles
        self._dumped.extend(self._buffer[:batch])
        del self._buffer[:batch]
        if previous is not None:
            self.cpu_activity.set(previous)
        if self._buffer:
            self.scheduler.post_function(self._dump_task, cycles=0,
                                         label="quanto-dump")
            return
        self._dumping = False
        self.enabled = True
        self.dumps_completed += 1

    # -- drain mode -------------------------------------------------------

    def _schedule_drain(self) -> None:
        """Queue the drain task once at least a full batch has built up.
        The threshold matters: the drain's own activity switches are
        themselves logged (Quanto accounts for Quanto), so draining
        single entries would regenerate work as fast as it shipped it."""
        if self._drain_scheduled:
            return
        if len(self._buffer) < DRAIN_BATCH:
            return
        if self.scheduler is None:
            raise LoggerError("drain mode needs a scheduler attached")
        self._drain_scheduled = True
        self.scheduler.post_function(self._drain_task, cycles=0,
                                     label="quanto-drain")

    def _drain_task(self) -> None:
        """The low-priority drain: ships a batch, charging its cycles to
        the Quanto activity (so the profile accounts for the profiler)."""
        self._drain_scheduled = False
        if not self._buffer:
            return
        previous = None
        if self.quanto_activity is not None and self.cpu_activity is not None:
            previous = self.cpu_activity.get()
            self.cpu_activity.set(self.quanto_activity)
        batch = min(len(self._buffer), DRAIN_BATCH)
        self.mcu.consume(batch * DRAIN_CYCLES_PER_ENTRY)
        self._dumped.extend(self._buffer[:batch])
        del self._buffer[:batch]
        self.drain_task_runs += 1
        if previous is not None:
            self.cpu_activity.set(previous)
        self._schedule_drain()

    # -- offline access ----------------------------------------------------

    def raw_bytes(self) -> bytes:
        """Everything recorded: shipped entries plus the residual buffer,
        packed to the 12-byte wire format.

        Packing happens here, in one bulk ``pack_into`` sweep over a
        preallocated buffer, instead of per record on the synchronous
        path.  The shipped+resident entry sequence is append-only (a
        drain moves entries between the two stores without reordering),
        so the packed bytes are memoized by total entry count and reused
        by every analysis pass over the same log.
        """
        total = len(self._dumped) + len(self._buffer)
        if self._packed_count != total:
            packed = bytearray(total * ENTRY_SIZE)
            pack_into = ENTRY_STRUCT.pack_into
            offset = 0
            for store in (self._dumped, self._buffer):
                for entry in store:
                    pack_into(packed, offset, *entry)
                    offset += ENTRY_SIZE
            self._packed_cache = bytes(packed)
            self._packed_count = total
        return self._packed_cache

    def ram_bytes_used(self) -> int:
        return len(self._buffer) * ENTRY_SIZE

    def decode(self) -> list[LogEntry]:
        """Decode the log, unwrapping the 32-bit time and iCount fields."""
        return decode_log(self.raw_bytes())

    def columns(self) -> "LogColumns":
        """The whole log as unwrapped column arrays (the columnar
        backend's decode path).

        When the packed-bytes cache is warm this is a zero-copy
        ``np.frombuffer`` over it; otherwise the structured array is
        built straight off the raw-tuple ring — either way no per-entry
        :class:`LogEntry` is ever allocated.
        """
        total = len(self._dumped) + len(self._buffer)
        cached = self._columns_cache
        if cached is not None and cached[0] == total:
            return cached[1]
        if self._packed_count == total and self._packed_cache is not None:
            return decode_columns(self._packed_cache)
        records = np.empty(total, dtype=ENTRY_DTYPE)
        if total:
            # Fields were masked at record time, so the tuples fit the
            # wire widths exactly; numpy casts them in bulk.
            records[:] = self._dumped + self._buffer
        return _unwrap_records(records)


def iter_entries(raw: bytes):
    """Incrementally decode packed entries, unwrapping u32 time and iCount
    wrap-around.

    A generator: each :class:`LogEntry` is yielded as soon as its 12 bytes
    are parsed, so downstream consumers (the timeline stream, the energy
    accumulator) can process a log without the whole decoded list ever
    existing in memory.  The wrap-around unwrapping state is three
    integers — independent of log length.
    """
    if len(raw) % ENTRY_SIZE:
        raise LoggerError(
            f"log length {len(raw)} is not a multiple of {ENTRY_SIZE}"
        )
    time_base = 0
    last_time = 0
    ic_base = 0
    last_ic = 0
    seq = 0
    for entry_type, res_id, time_us, pulses, value in \
            ENTRY_STRUCT.iter_unpack(raw):
        if seq:
            if time_us < last_time:
                time_base += 1 << 32
            if pulses < last_ic:
                ic_base += 1 << 32
        last_time, last_ic = time_us, pulses
        yield LogEntry(
            type=entry_type,
            res_id=res_id,
            time_us=time_base + time_us,
            icount=ic_base + pulses,
            value=value,
            seq=seq,
        )
        seq += 1


def decode_log(raw: bytes) -> list[LogEntry]:
    """Decode a whole log at once (the batch wrapper over
    :func:`iter_entries`)."""
    return list(iter_entries(raw))


class WireDecoder:
    """Incremental decoder for the 12-byte wire format arriving in
    arbitrary chunk boundaries — the network-facing form of
    :func:`iter_entries`.

    A TCP stream (or any chunked transport) cuts the packed log wherever
    it likes: mid-entry, even mid-field.  :meth:`feed_columns` (and
    :meth:`feed`, its per-entry wrapper) buffers the partial tail of
    each chunk and carries the u32 time/iCount unwrap state across
    calls, so feeding a log in any split — one byte at a time or all at
    once — yields exactly the entries :func:`iter_entries` yields for
    the whole buffer (same ``seq`` numbers, same unwrapped timestamps).
    State between feeds is the sub-entry remainder (< 12 bytes) plus
    five integers, independent of how much has streamed through.
    """

    __slots__ = ("_partial", "_time_base", "_last_time", "_ic_base",
                 "_last_ic", "_seq")

    def __init__(self) -> None:
        self._partial = b""
        self._time_base = 0
        self._last_time = 0
        self._ic_base = 0
        self._last_ic = 0
        self._seq = 0

    @property
    def entries_decoded(self) -> int:
        """How many entries have been yielded so far."""
        return self._seq

    @property
    def pending_bytes(self) -> int:
        """Buffered bytes of the incomplete trailing entry (0..11)."""
        return len(self._partial)

    def feed_columns(self, chunk: bytes) -> "LogColumns":
        """Decode every entry completed by ``chunk`` into columns (one
        ``np.frombuffer`` shot); buffer the rest.  Any split of a log
        decodes to the rows :func:`decode_columns` gives for the whole
        buffer."""
        buf = self._partial + bytes(chunk) if self._partial else bytes(chunk)
        count = len(buf) // ENTRY_SIZE
        self._partial = buf[count * ENTRY_SIZE:]
        records = np.frombuffer(buf, dtype=ENTRY_DTYPE, count=count)
        time_us = records["time"].astype(np.int64)
        icount = records["ic"].astype(np.int64)
        if count:
            continued = self._seq > 0
            time_us, self._time_base, self._last_time = _unwrap_u32(
                time_us, self._time_base, self._last_time, continued)
            icount, self._ic_base, self._last_ic = _unwrap_u32(
                icount, self._ic_base, self._last_ic, continued)
            self._seq += count
        return LogColumns(
            type=records["type"].copy(),
            res_id=records["res_id"].copy(),
            time_ns=time_us * 1000,
            icount=icount,
            value=records["value"].astype(np.int64),
        )

    def feed(self, chunk: bytes) -> list[LogEntry]:
        """Decode every entry completed by ``chunk`` as
        :class:`LogEntry` objects; buffer the rest (a thin wrapper over
        :meth:`feed_columns`)."""
        first = self._seq
        columns = self.feed_columns(chunk)
        return [
            LogEntry(type=entry_type, res_id=res_id, time_us=time_us,
                     icount=icount, value=value, seq=seq)
            for seq, entry_type, res_id, time_us, icount, value in zip(
                range(first, self._seq), columns.type.tolist(),
                columns.res_id.tolist(), (columns.time_ns // 1000).tolist(),
                columns.icount.tolist(), columns.value.tolist())
        ]

    def finish(self) -> None:
        """Assert the stream ended on an entry boundary.  A leftover
        partial entry means the sender died mid-record (the torn tail a
        crash leaves); raise so the consumer can surface it."""
        if self._partial:
            raise LoggerError(
                f"stream ended with {len(self._partial)} bytes of a "
                f"partial entry (after {self._seq} complete entries)"
            )

    # -- durability ---------------------------------------------------------

    def snapshot(self) -> dict:
        """The decoder's complete state as a JSON-able dict: the buffered
        sub-entry remainder plus the five unwrap integers.  Together with
        the byte offset the caller has fed, this is everything needed to
        resume decoding the same stream after a process restart —
        :meth:`from_snapshot` of this dict, fed the remaining bytes,
        yields exactly the entries an uninterrupted decoder would."""
        return {
            "partial": self._partial.hex(),
            "time_base": self._time_base,
            "last_time": self._last_time,
            "ic_base": self._ic_base,
            "last_ic": self._last_ic,
            "seq": self._seq,
        }

    @classmethod
    def from_snapshot(cls, state: dict) -> "WireDecoder":
        """Rebuild a decoder from a :meth:`snapshot` dict."""
        try:
            decoder = cls()
            decoder._partial = bytes.fromhex(state["partial"])
            decoder._time_base = int(state["time_base"])
            decoder._last_time = int(state["last_time"])
            decoder._ic_base = int(state["ic_base"])
            decoder._last_ic = int(state["last_ic"])
            decoder._seq = int(state["seq"])
        except (KeyError, TypeError, ValueError) as exc:
            raise LoggerError(f"bad WireDecoder snapshot: {exc}") from exc
        if len(decoder._partial) >= ENTRY_SIZE:
            raise LoggerError(
                f"bad WireDecoder snapshot: {len(decoder._partial)} "
                f"buffered bytes (>= one {ENTRY_SIZE}-byte entry)")
        return decoder


# -- columnar decode --------------------------------------------------------


@dataclass(slots=True)
class LogColumns:
    """A decoded log as parallel column arrays (one row per entry).

    ``time_ns`` and ``icount`` are unwrapped and monotone, exactly like
    the fields of :class:`LogEntry`; ``seq`` is implicit (row index).
    This is the input format of the columnar analysis backend — decode
    allocates five arrays total instead of one object per entry.
    """

    type: np.ndarray  # u1
    res_id: np.ndarray  # u1
    time_ns: np.ndarray  # i8, unwrapped, = time_us * 1000
    icount: np.ndarray  # i8, unwrapped
    value: np.ndarray  # i8 (u16 wire field, widened for plain-int math)

    def __len__(self) -> int:
        return len(self.type)

    @classmethod
    def from_entries(cls, entries: Iterable[LogEntry]) -> "LogColumns":
        """Columns from already-decoded entries (the compat path used
        when a caller holds a :class:`LogEntry` list, e.g. a hand-built
        test log, rather than packed bytes)."""
        entries = list(entries)
        return cls(
            type=np.array([e.type for e in entries], dtype=np.uint8),
            res_id=np.array([e.res_id for e in entries], dtype=np.uint8),
            time_ns=np.array([e.time_ns for e in entries], dtype=np.int64),
            icount=np.array([e.icount for e in entries], dtype=np.int64),
            value=np.array([e.value for e in entries], dtype=np.int64),
        )

    @classmethod
    def concat(cls, parts: Sequence["LogColumns"]) -> "LogColumns":
        """Consecutive pieces of one log as one set of columns."""
        return cls(
            type=np.concatenate([p.type for p in parts]),
            res_id=np.concatenate([p.res_id for p in parts]),
            time_ns=np.concatenate([p.time_ns for p in parts]),
            icount=np.concatenate([p.icount for p in parts]),
            value=np.concatenate([p.value for p in parts]),
        )


def _unwrap_u32(values: np.ndarray, base: int, last: int,
                continued: bool) -> tuple[np.ndarray, int, int]:
    """Unwrap a non-empty u32 counter column (as int64): the counter
    wrapped wherever it decreases — including against ``last``, the
    previous chunk's final raw value, when the column ``continued`` a
    stream — so ``base`` plus the cumulative wrap count times 2^32 is
    what to add.  Returns (unwrapped column, new base, last raw value):
    the vectorized form of :func:`iter_entries`'s three-integer state."""
    if (not continued or int(values[0]) >= last) \
            and bool((values[1:] >= values[:-1]).all()):
        # No wrap in this column (the common case by far).
        return values + base, base, int(values[-1])
    previous = np.empty_like(values)
    previous[0] = last if continued else values[0]
    previous[1:] = values[:-1]
    wraps = np.cumsum(values < previous)
    return (values + (base + (wraps << 32)),
            base + (int(wraps[-1]) << 32), int(values[-1]))


def _unwrap_records(records: np.ndarray) -> LogColumns:
    """Unwrap u32 time/iCount wrap-around over a structured entry array
    (a whole log, see :func:`_unwrap_u32`)."""
    time_us = records["time"].astype(np.int64)
    icount = records["ic"].astype(np.int64)
    if len(records):
        time_us = _unwrap_u32(time_us, 0, 0, False)[0]
        icount = _unwrap_u32(icount, 0, 0, False)[0]
    return LogColumns(
        type=records["type"].copy(),
        res_id=records["res_id"].copy(),
        time_ns=time_us * 1000,
        icount=icount,
        value=records["value"].astype(np.int64),
    )


def decode_columns(raw: bytes) -> LogColumns:
    """Decode a packed log into :class:`LogColumns` in one shot."""
    if len(raw) % ENTRY_SIZE:
        raise LoggerError(
            f"log length {len(raw)} is not a multiple of {ENTRY_SIZE}"
        )
    return _unwrap_records(np.frombuffer(raw, dtype=ENTRY_DTYPE))


def decode_batch_records(
    records: np.ndarray, counts: Sequence[int],
) -> list[LogColumns]:
    """Decode K concatenated logs from one structured array in one fused
    pass: a single vectorized unwrap whose wrap state resets at every
    world boundary, then per-world column slices.

    ``records`` holds the K logs back to back; ``counts[i]`` is world
    i's entry count.  The unwrap computes the *global* cumulative wrap
    count once, then subtracts each world's value at its first row —
    which cancels every wrap flagged before (or at) that row, including
    the spurious flag a ragged world boundary itself raises — so each
    world's slice carries exactly the wrap bases its own serial decode
    would, bit for bit.
    """
    if sum(counts) != len(records):
        raise LoggerError(
            f"batch counts sum to {sum(counts)}, got {len(records)} records")
    total = len(records)
    time_us = records["time"].astype(np.int64)
    icount = records["ic"].astype(np.int64)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    if total > 1:
        # An empty trailing world's start offset equals ``total``; clip
        # it — no row maps to an empty world, so the value is unused.
        starts = np.minimum(offsets[:-1], total - 1)
        world_of_row = np.repeat(
            np.arange(len(counts), dtype=np.int64), counts)
        for field in (time_us, icount):
            wraps = np.zeros(total, dtype=np.int64)
            np.cumsum(np.diff(field) < 0, out=wraps[1:])
            wraps -= wraps[starts][world_of_row]
            field += wraps << 32
    type_col = records["type"].copy()
    res_col = records["res_id"].copy()
    time_ns = time_us * 1000
    value = records["value"].astype(np.int64)
    worlds = []
    for index in range(len(counts)):
        lo, hi = int(offsets[index]), int(offsets[index + 1])
        worlds.append(LogColumns(
            type=type_col[lo:hi],
            res_id=res_col[lo:hi],
            time_ns=time_ns[lo:hi],
            icount=icount[lo:hi],
            value=value[lo:hi],
        ))
    return worlds


def decode_batch(loggers: Sequence["QuantoLogger"]) -> list[LogColumns]:
    """Fused decode of K loggers' raw-tuple rings.

    Builds one structured array over the concatenated shipped+resident
    tuples (no per-logger ``raw_bytes`` materialization), runs the
    batched unwrap, and parks each logger's columns in its
    ``_columns_cache`` so the analysis layer's ``columns()`` call is a
    cache hit.  Returns the per-world columns in logger order.
    """
    stores = [(lg._dumped, lg._buffer) for lg in loggers]
    counts = [len(d) + len(b) for d, b in stores]
    records = np.empty(sum(counts), dtype=ENTRY_DTYPE)
    offset = 0
    for (dumped, buffer), count in zip(stores, counts):
        if count:
            # Fields were masked at record time, so the tuples fit the
            # wire widths exactly; numpy casts them in bulk.
            records[offset:offset + count] = dumped + buffer
        offset += count
    worlds = decode_batch_records(records, counts)
    for logger, count, columns in zip(loggers, counts, worlds):
        logger._columns_cache = (count, columns)
    return worlds
