"""Packed per-experiment result store: one append-only shard + index.

The sweep cache used to keep one JSON file per grid point.  At campaign
scale that layout pays a file open/close/stat per point and scatters a
64-point sweep over 64 inodes; a fleet of shard runs then has to rsync
thousands of little files.  This module packs all of an experiment's
cached points into **two** files under the cache root:

``<exp_id>.shard``
    Append-only record log.  Each record is a fixed header
    (32-byte key, 1 flag byte, u32 payload length, little-endian)
    followed by the payload bytes — the JSON-encoded point result,
    zlib-compressed when that is smaller (flag bit 0).

``<exp_id>.idx``
    An index accelerator: one fixed-size row (key, offset, length,
    flags) per shard record, in append order.  Purely derived data —
    when it is missing, stale, or torn, the shard is scanned once and
    the index rewritten.  Readers therefore never trust the index
    further than ``offset + length <= filesize``.

Properties the sweep pipeline relies on:

* **Same keys, same semantics** — the store maps opaque 32-byte keys to
  payload bytes; the digest-based cache keys (and their source-tree
  auto-invalidation) are untouched upstream.
* **Append-only, last write wins** — re-storing a key appends a new
  record; both the in-memory index and a rebuild scan keep the latest
  offset.  Nothing is ever rewritten in place, so a reader can never
  observe a half-updated record.  Superseded records stay in the file:
  nothing reclaims them.  A key is only re-stored when a corrupt record
  is re-simulated or a retried or backup campaign worker repeats a
  point, so the dead weight is bounded by the campaign retry budget.
* **Torn-tail tolerant** — a crash mid-append leaves a truncated last
  record; scans stop at the first malformed header, so the store
  recovers to its last complete record (exactly the old per-file
  cache's "corrupt entry is a miss" behaviour).
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
from typing import Iterator, Optional, Union

SHARD_MAGIC = b"QSHARD1\0"
INDEX_MAGIC = b"QSHIDX1\0"

#: Shard record header: key (raw sha256), flags, payload length.
RECORD_HEADER = struct.Struct("<32sBI")
#: Index row: key, payload offset, payload length, flags.
INDEX_ROW = struct.Struct("<32sQIB")

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
            # the caller re-seeks to EOF before writing (and "ab" mode
            # forces writes to the end regardless).  LK_LOCK retries for
            # ~10 s before raising OSError, which store() already maps
            # to a False return.
            fileobj.seek(0)
            msvcrt.locking(fileobj.fileno(), msvcrt.LK_LOCK, 1)

        def _unlock(fileobj) -> None:
            fileobj.seek(0)
            msvcrt.locking(fileobj.fileno(), msvcrt.LK_UNLCK, 1)
    except ImportError:
        # No advisory locking primitive at all (exotic platforms): the
        # store degrades to SINGLE-WRITER — concurrent appends can
        # interleave torn records mid-shard, which the torn-tail scan
        # does not repair.  Give each writer its own cache root and
        # merge afterwards (repro.sim.campaign.merge_campaign).
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
        self.index_path = self.shard_path.with_suffix(".idx")
        # key -> (offset, length, flags); offsets address payload bytes.
        self._index: Optional[dict[bytes, tuple[int, int, int]]] = None
        self._reader: Optional[io.BufferedReader] = None

    # -- index ----------------------------------------------------------

    def _entries(self) -> dict[bytes, tuple[int, int, int]]:
        if self._index is None:
            self._index = self._load_index()
        return self._index

    def _load_index(self) -> dict[bytes, tuple[int, int, int]]:
        """Read the index accelerator, falling back to (and rewriting
        from) a full shard scan whenever it cannot be trusted."""
        try:
            shard_size = self.shard_path.stat().st_size
        except OSError:
            return {}
        try:
            raw = self.index_path.read_bytes()
        except OSError:
            raw = b""
        entries: dict[bytes, tuple[int, int, int]] = {}
        covered = len(SHARD_MAGIC)
        trusted = raw[: len(INDEX_MAGIC)] == INDEX_MAGIC
        if trusted:
            row_size = INDEX_ROW.size
            body = raw[len(INDEX_MAGIC):]
            usable = len(body) - len(body) % row_size  # ignore a torn row
            for key, offset, length, flags in INDEX_ROW.iter_unpack(
                    body[:usable]):
                if offset + length > shard_size:
                    trusted = False  # stale beyond the shard: rescan
                    break
                entries[key] = (offset, length, flags)
                covered = max(covered, offset + length)
        if not trusted:
            entries, covered, complete = self._scan_shard(0)
            # Rewrite the accelerator only from a scan that reached the
            # shard's end: a mid-scan read fault yields a partial entry
            # set, and persisting that would clobber a good index with
            # an empty (or truncated) one — every cached point would
            # then miss until the next full rescan.  The partial
            # entries still serve this process; the index keeps its old
            # bytes for the next load to retry against.
            if complete:
                self._write_index(entries)
        elif covered < shard_size:
            # The shard grew past the index (another writer, or a crash
            # between the payload and index appends): scan just the tail.
            tail, _, complete = self._scan_shard(covered)
            if tail:
                entries.update(tail)
                if complete:
                    self._write_index(entries)
        return entries

    def _scan_shard(
        self, start: int,
    ) -> tuple[dict[bytes, tuple[int, int, int]], int, bool]:
        """Walk shard records from byte ``start`` (0 = validate the magic
        too), stopping at the first torn/garbled record.

        Returns ``(entries, end, complete)``.  ``complete`` is False
        when an I/O fault interrupted the scan: the entries gathered so
        far are still good (records are immutable once written), but
        they are not the whole shard, so callers must not persist them
        as the authoritative index.  A torn tail is *not* an
        interruption — stopping at the last full record is the normal,
        definitive result.
        """
        entries: dict[bytes, tuple[int, int, int]] = {}
        header_size = RECORD_HEADER.size
        end = start
        try:
            with open(self.shard_path, "rb") as shard:
                size = os.fstat(shard.fileno()).st_size
                if start < len(SHARD_MAGIC):
                    if shard.read(len(SHARD_MAGIC)) != SHARD_MAGIC:
                        return {}, 0, True  # definitively not a shard
                    position = len(SHARD_MAGIC)
                else:
                    shard.seek(start)
                    position = start
                while position + header_size <= size:
                    header = shard.read(header_size)
                    if len(header) < header_size:
                        break
                    key, flags, length = RECORD_HEADER.unpack(header)
                    payload_at = position + header_size
                    if payload_at + length > size:
                        break  # torn tail: stop at the last full record
                    shard.seek(length, os.SEEK_CUR)
                    entries[key] = (payload_at, length, flags)
                    position = payload_at + length
                    end = position
        except OSError:
            # Keep what the scan already proved; just mark it partial.
            return entries, end, False
        return entries, end, True

    def _write_index(self, entries: dict[bytes, tuple[int, int, int]]) -> None:
        """Rewrite the accelerator (best-effort, atomic via rename)."""
        rows = sorted(entries.items(), key=lambda item: item[1][0])
        blob = bytearray(INDEX_MAGIC)
        for key, (offset, length, flags) in rows:
            blob += INDEX_ROW.pack(key, offset, length, flags)
        try:
            tmp = self.index_path.with_suffix(f".idx.tmp{os.getpid()}")
            tmp.write_bytes(blob)
            tmp.replace(self.index_path)
        except OSError:
            pass  # the index is only an accelerator

    # -- reads ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries())

    def has(self, key: bytes) -> bool:
        return key in self._entries()

    def keys(self) -> set[bytes]:
        return set(self._entries())

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

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Every (key, payload) in the store (merge tooling; offset order
        so a sequential scan reads the shard front to back)."""
        entries = sorted(self._entries().items(), key=lambda kv: kv[1][0])
        for key, _ in entries:
            payload = self.load(key)
            if payload is not None:
                yield key, payload

    def _close_reader(self) -> None:
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None

    def refresh(self) -> None:
        """Forget cached index/reader state so the next read re-probes
        disk.  The campaign runner calls this to observe points its
        worker *processes* appended after this object last looked —
        records are immutable once complete, so a refresh can only ever
        reveal more keys, never change an offset already handed out."""
        self._close_reader()
        self._index = None

    # -- writes ---------------------------------------------------------

    def store(self, key: bytes, payload: bytes) -> bool:
        """Append one record (last write for a key wins).  Returns False
        instead of raising on any I/O trouble."""
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
                    offset = shard.seek(0, os.SEEK_END)
                    if offset == 0:
                        shard.write(SHARD_MAGIC)
                        offset = len(SHARD_MAGIC)
                    payload_at = offset + RECORD_HEADER.size
                    shard.write(
                        RECORD_HEADER.pack(key, flags, len(payload)) + payload)
                    shard.flush()
                    with open(self.index_path, "ab") as index:
                        if index.seek(0, os.SEEK_END) == 0:
                            index.write(INDEX_MAGIC)
                        index.write(INDEX_ROW.pack(
                            key, payload_at, len(payload), flags))
                finally:
                    _unlock(shard)
        except OSError:
            return False
        if self._index is not None:
            self._index[key] = (payload_at, len(payload), flags)
        return True
