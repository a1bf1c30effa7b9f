"""Packed per-experiment result store: one append-only, self-indexing file.

All of an experiment's cached sweep points live in ``<exp_id>.shard``
under the cache root: an 8-byte magic, then records, each a fixed
header (32-byte key, 1 flag byte, u32 payload length, little-endian)
followed by the payload — the JSON-encoded point result,
zlib-compressed when that is smaller (flag bit 0).

The shard is its own index, read the way Quanto's analysis reads a log:
in order, record by record, with no side file.  The first probe scans
the record headers once and remembers ``_end``, the end of the last
complete record; :meth:`ShardStore.refresh` scans only the bytes past
``_end``, so polling a growing store costs O(new records).

Properties the sweep pipeline relies on:

* **Append-only, last write wins** — re-storing a key appends a new
  record and the scan keeps the latest offset.  Complete records are
  never rewritten, so a reader never sees a half-updated one.
  Superseded records are never reclaimed; a key is only re-stored when
  a corrupt record is re-simulated or a retried or backup campaign
  worker repeats a point, so the dead weight is bounded by the campaign
  retry budget.
* **Torn-tail tolerant** — a crash mid-append leaves a truncated last
  record; scans stop there, so readers recover to the last complete
  record (a miss, re-simulated).  The next append first truncates the
  torn bytes — the serve journal's rule — so new records start on a
  record boundary and stay reachable.  Records carry no checksum, so a
  header garbled mid-file reads as a torn tail too: the records after
  it become misses and are re-simulated.
* **Act only on what a scan proved** — truncation happens under the
  writer lock (no live writer can be mid-append, so the stub is a crash
  remnant), only after a scan that reached the end of the file, and only
  past the last complete record.  A scan cut short by an I/O error keeps
  the records it proved, truncates nothing, and fails that append.  A
  file with a wrong magic is a full miss and is never written; one
  shorter than the magic whose bytes are a prefix of it is a torn first
  append and is truncated to empty.
* **Single writer per store, many readers** — appends take an advisory
  lock (``flock`` on POSIX, ``msvcrt.locking`` on Windows); loads don't
  lock (records are immutable once complete).  On platforms with
  neither primitive the store is strictly single-writer — see the
  fallback note at ``_lock``.  Multi-machine campaigns give each
  machine its own cache root and merge the stores afterwards
  (:func:`repro.sim.campaign.merge_campaign`).
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from pathlib import Path
from typing import Optional, Union

SHARD_MAGIC = b"QSHARD1\0"

#: Shard record header: key (raw sha256), flags, payload length.
RECORD_HEADER = struct.Struct("<32sBI")

#: Record flag: payload is zlib-compressed.
FLAG_ZLIB = 0x01

#: Compress only when it helps; level 1 is ~free next to a simulation
#: and typically shrinks the JSON payloads 5-10x.
_ZLIB_LEVEL = 1

try:
    import fcntl

    def _lock(fileobj) -> None:
        fcntl.flock(fileobj.fileno(), fcntl.LOCK_EX)

    def _unlock(fileobj) -> None:
        fcntl.flock(fileobj.fileno(), fcntl.LOCK_UN)
except ImportError:  # pragma: no cover - non-POSIX platforms
    try:
        import msvcrt

        def _lock(fileobj) -> None:
            # One byte at offset 0 as the writer mutex.  msvcrt.locking
            # locks from the *current* position, so seek there first;
            # "ab" mode forces writes to the end regardless.  LK_LOCK
            # retries for ~10 s before raising OSError, which store()
            # already maps to a False return.
            fileobj.seek(0)
            msvcrt.locking(fileobj.fileno(), msvcrt.LK_LOCK, 1)

        def _unlock(fileobj) -> None:
            fileobj.seek(0)
            msvcrt.locking(fileobj.fileno(), msvcrt.LK_UNLCK, 1)
    except ImportError:
        # No advisory locking primitive at all (exotic platforms): the
        # store degrades to SINGLE-WRITER — concurrent appends can
        # interleave torn records mid-shard, and one writer may truncate
        # another's in-flight append as a torn tail.  Give each writer
        # its own cache root and merge afterwards
        # (repro.sim.campaign.merge_campaign).
        def _lock(fileobj) -> None:
            pass

        def _unlock(fileobj) -> None:
            pass


class ShardStore:
    """One experiment's packed key→payload store (see module docstring).

    All methods are best-effort in the same sense as the old cache: I/O
    trouble makes loads miss and stores no-ops, never raises into the
    campaign.  ``ShardStoreError``-free by design.
    """

    def __init__(self, shard_path: Union[str, Path]) -> None:
        self.shard_path = Path(shard_path)
        # key -> (offset, length, flags); offsets address payload bytes.
        self._index: dict[bytes, tuple[int, int, int]] = {}
        # End of the last complete record scanned (0: no magic proved).
        self._end = 0
        self._stale = True  # scan past _end before the next read
        self._reader: Optional[io.BufferedReader] = None

    # -- scanning -------------------------------------------------------

    def _scan(self) -> Optional[int]:
        """Index the complete records past ``_end`` (the whole file,
        magic first, when ``_end`` is 0), stopping at the first record
        that overruns the file.

        Returns the file size the scan saw — ``_end`` short of it means
        a torn tail — or None when the bytes past ``_end`` are not known
        to be shard records: the file's magic is not a shard's, or an
        I/O fault cut the scan short (the records proved so far stay
        indexed; they are immutable).
        """
        header_size = RECORD_HEADER.size
        try:
            with open(self.shard_path, "rb") as shard:
                size = os.fstat(shard.fileno()).st_size
                if size < self._end:
                    self._forget()  # replaced or cut: no offset holds
                if self._end == 0:
                    magic = shard.read(len(SHARD_MAGIC))
                    if not SHARD_MAGIC.startswith(magic):
                        return None  # not a shard: never write into it
                    if magic != SHARD_MAGIC:
                        return size  # empty, or a torn first append
                    self._end = len(SHARD_MAGIC)
                shard.seek(self._end)
                position = self._end
                while position + header_size <= size:
                    header = shard.read(header_size)
                    if len(header) < header_size:
                        break
                    key, flags, length = RECORD_HEADER.unpack(header)
                    payload_at = position + header_size
                    if payload_at + length > size:
                        break  # torn tail: stop at the last full record
                    shard.seek(length, os.SEEK_CUR)
                    self._index[key] = (payload_at, length, flags)
                    position = self._end = payload_at + length
        except FileNotFoundError:
            self._forget()
            return 0
        except OSError:
            return None
        return size

    def _forget(self) -> None:
        self._close_reader()
        self._index = {}
        self._end = 0

    def _entries(self) -> dict[bytes, tuple[int, int, int]]:
        if self._stale:
            self._stale = False
            self._scan()
        return self._index

    # -- reads ----------------------------------------------------------

    def has(self, key: bytes) -> bool:
        return key in self._entries()

    def load(self, key: bytes) -> Optional[bytes]:
        """The payload stored under ``key``, or None.  Reads share one
        buffered descriptor — a warm rerun's fold is a seek+read per
        point, not an open/parse/close."""
        entry = self._entries().get(key)
        if entry is None:
            return None
        offset, length, flags = entry
        try:
            if self._reader is None:
                self._reader = open(self.shard_path, "rb")
            self._reader.seek(offset)
            payload = self._reader.read(length)
        except OSError:
            self._close_reader()
            return None
        if len(payload) != length:
            return None
        if flags & FLAG_ZLIB:
            try:
                payload = zlib.decompress(payload)
            except zlib.error:
                return None
        return payload

    def _close_reader(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None

    def refresh(self) -> None:
        """Make the next read scan the bytes past ``_end``.  The campaign
        runner calls this to observe points its worker *processes*
        appended after this object last looked — records are immutable
        once complete, so a refresh only ever reveals more of them."""
        self._close_reader()
        self._stale = True

    # -- writes ---------------------------------------------------------

    def store(self, key: bytes, payload: bytes) -> bool:
        """Append one record (last write for a key wins).  Returns False
        instead of raising on any I/O trouble, on a file that is not a
        shard, and when the tail could not be scanned to its end."""
        if len(key) != 32:
            return False
        flags = 0
        packed = zlib.compress(payload, _ZLIB_LEVEL)
        if len(packed) < len(payload):
            payload, flags = packed, FLAG_ZLIB
        try:
            self.shard_path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.shard_path, "ab") as shard:
                _lock(shard)
                try:
                    if os.fstat(shard.fileno()).st_size != self._end:
                        # Other writers' records, or a crash remnant.
                        size = self._scan()
                        if size is None:
                            return False
                        if size > self._end:
                            shard.truncate(self._end)
                    if self._end == 0:
                        shard.write(SHARD_MAGIC)
                        self._end = len(SHARD_MAGIC)
                    payload_at = self._end + RECORD_HEADER.size
                    shard.write(
                        RECORD_HEADER.pack(key, flags, len(payload)) + payload)
                    shard.flush()
                finally:
                    _unlock(shard)
        except OSError:
            return False
        self._index[key] = (payload_at, len(payload), flags)
        self._end = payload_at + len(payload)
        return True
