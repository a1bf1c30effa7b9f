"""Shard store scans, torn tails and I/O faults.

The shard is the store's only file and its only index: a store scans
the record headers once, remembers ``_end`` (the end of the last
complete record) and scans only past it afterwards.  Pinned here:

* a scan cut short by a read fault keeps the records it proved, and
  nothing acts on the rest — reads serve the partial index, appends
  fail, and the file is never truncated or rewritten;
* a torn tail is a miss for readers and is truncated by the next
  append (under the writer lock), so the appended record lands on the
  last record boundary and every later reader sees it;
* writers whose ``_end`` is stale index each other's complete records
  instead of truncating them, in one process or many at once;
* a file with a wrong magic is never written; a torn magic heals.
"""

import builtins
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.sim.shardstore import (
    RECORD_HEADER,
    SHARD_MAGIC,
    ShardStore,
)


def key_for(n: int) -> bytes:
    return hashlib.sha256(f"point-{n}".encode()).digest()


def payload_for(n: int) -> bytes:
    return f"payload-{n}".encode() * 50


def filled_store(tmp_path, count=6):
    store = ShardStore(tmp_path / "exp.shard")
    for n in range(count):
        assert store.store(key_for(n), payload_for(n))
    return store


def record_ends(raw: bytes) -> list[int]:
    """End offset of every complete record in shard bytes ``raw``."""
    ends, position = [], len(SHARD_MAGIC)
    while position + RECORD_HEADER.size <= len(raw):
        _key, _flags, length = RECORD_HEADER.unpack_from(raw, position)
        position += RECORD_HEADER.size + length
        if position > len(raw):
            break
        ends.append(position)
    return ends


def record_bytes(tmp_path, key: bytes, payload: bytes) -> bytes:
    """The bytes one ``store(key, payload)`` appends after the magic."""
    reference = ShardStore(tmp_path / "reference.shard")
    assert reference.store(key, payload)
    return reference.shard_path.read_bytes()[len(SHARD_MAGIC):]


class FaultInjector:
    """Patches ``open`` so binary reads of one path draw from a shared
    read budget, then fail with EIO — until :meth:`disarm`.  Appends
    (mode ``"ab"``) are never faulted."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self._state = None

    def arm(self, path, reads_before_fault):
        real_open = builtins.open
        state = self._state = {"path": str(path),
                               "budget": reads_before_fault,
                               "armed": True}

        class SharedBudgetFile:
            def __init__(self, fileobj):
                self._file = fileobj

            def read(self, *args):
                if state["armed"]:
                    if state["budget"] <= 0:
                        raise OSError(5, "injected read fault")
                    state["budget"] -= 1
                return self._file.read(*args)

            def __getattr__(self, name):
                return getattr(self._file, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self._file.__exit__(*exc)

        def faulty_open(file, mode="r", *args, **kwargs):
            fileobj = real_open(file, mode, *args, **kwargs)
            if state["armed"] and str(file) == state["path"] \
                    and "r" in mode and "b" in mode:
                return SharedBudgetFile(fileobj)
            return fileobj

        self._monkeypatch.setattr(builtins, "open", faulty_open)

    def disarm(self):
        if self._state is not None:
            self._state["armed"] = False


@pytest.fixture()
def faults(monkeypatch):
    return FaultInjector(monkeypatch)


def test_scan_fault_preserves_scanned_entries(tmp_path, faults):
    store = filled_store(tmp_path)
    ends = record_ends(store.shard_path.read_bytes())
    # Budget: magic + 3 record headers succeed, then EIO.  (Payload
    # reads are seeks, so every read is a header read.)
    faults.arm(store.shard_path, 4)
    faulted = ShardStore(store.shard_path)
    assert faulted._scan() is None  # cut short: nothing past _end known
    assert faulted._end == ends[2]
    assert [faulted.has(key_for(n)) for n in range(6)] == \
        [True] * 3 + [False] * 3


def test_faulted_load_serves_partial_but_skips_index_rewrite(
        tmp_path, faults):
    """A faulted scan serves what it proved and writes nothing; once
    the fault clears, a refresh resumes the scan from ``_end``."""
    store = filled_store(tmp_path)
    before = store.shard_path.read_bytes()
    faults.arm(store.shard_path, 3)
    faulted = ShardStore(store.shard_path)
    assert faulted.has(key_for(0))  # partial entries still serve
    assert not faulted.has(key_for(5))
    assert store.shard_path.read_bytes() == before
    faults.disarm()
    faulted.refresh()
    assert all(faulted.has(key_for(n)) for n in range(6))
    assert faulted.load(key_for(5)) == payload_for(5)


def test_fault_during_tail_scan_keeps_good_index(tmp_path, faults):
    """A refresh whose tail scan faults keeps every record already
    indexed; the next clean refresh picks up the tail."""
    store = filled_store(tmp_path, count=2)
    reader = ShardStore(store.shard_path)
    assert reader.has(key_for(1))
    assert ShardStore(store.shard_path).store(key_for(2), b"late" * 80)
    faults.arm(store.shard_path, 0)  # every read faults
    reader.refresh()
    assert reader.has(key_for(0)) and reader.has(key_for(1))
    assert not reader.has(key_for(2))
    faults.disarm()
    assert reader.load(key_for(1)) == payload_for(1)
    reader.refresh()
    assert reader.load(key_for(2)) == b"late" * 80


def test_garbage_magic_is_still_definitive(tmp_path):
    """A file that is definitively not a shard is a full miss, and no
    append ever writes into it."""
    path = tmp_path / "bad.shard"
    garbage = b"NOTSHARD" + b"x" * 64
    path.write_bytes(garbage)
    store = ShardStore(path)
    assert store._scan() is None
    assert not store.has(key_for(0))
    assert not store.store(key_for(0), b"payload")
    assert not ShardStore(path).store(key_for(0), b"payload")
    assert path.read_bytes() == garbage


def test_torn_magic_stub_heals(tmp_path):
    """A file shorter than the magic whose bytes are a prefix of it is
    a crash inside the first append: the next append truncates it."""
    path = tmp_path / "exp.shard"
    path.write_bytes(SHARD_MAGIC[:3])
    store = ShardStore(path)
    assert not store.has(key_for(0))
    assert store.store(key_for(0), payload_for(0))
    assert path.read_bytes() == \
        SHARD_MAGIC + record_bytes(tmp_path, key_for(0), payload_for(0))
    assert ShardStore(path).load(key_for(0)) == payload_for(0)


def test_torn_tail_recovery_is_unchanged(tmp_path):
    """The pre-existing contract: a truncated last record is dropped,
    everything before it loads, and reading never modifies the file."""
    store = filled_store(tmp_path, count=3)
    raw = store.shard_path.read_bytes()
    store.shard_path.write_bytes(raw[:-7])  # tear the last payload
    recovered = ShardStore(store.shard_path)
    assert recovered._scan() == len(raw) - 7  # complete, torn tail left
    assert recovered._end == record_ends(raw)[1]
    assert [recovered.has(key_for(n)) for n in range(3)] == \
        [True, True, False]
    assert recovered.load(key_for(1)) == payload_for(1)
    assert store.shard_path.read_bytes() == raw[:-7]


def test_append_after_torn_tail_lands_on_the_record_boundary(tmp_path):
    """A fresh store appending over a torn tail truncates the stub
    first, so the new record is reachable by every later reader."""
    store = filled_store(tmp_path, count=3)
    raw = store.shard_path.read_bytes()
    good_prefix = raw[:record_ends(raw)[1]]
    store.shard_path.write_bytes(raw[:-7])
    assert ShardStore(store.shard_path).store(key_for(9), payload_for(9))
    assert store.shard_path.read_bytes() == \
        good_prefix + record_bytes(tmp_path, key_for(9), payload_for(9))
    fresh = ShardStore(store.shard_path)
    assert [fresh.has(key_for(n)) for n in (0, 1, 2, 9)] == \
        [True, True, False, True]
    assert fresh.load(key_for(9)) == payload_for(9)


def test_read_fault_during_append_tail_scan_writes_nothing(
        tmp_path, faults):
    """store() must scan the tail before truncating it: a read fault
    there fails the append and leaves the file byte-identical."""
    writer = filled_store(tmp_path, count=2)  # _end after record 1
    other = ShardStore(writer.shard_path)
    assert other.store(key_for(2), payload_for(2))
    assert other.store(key_for(3), payload_for(3))
    raw = writer.shard_path.read_bytes()
    writer.shard_path.write_bytes(raw[:-7])  # record 3 torn
    before = writer.shard_path.read_bytes()
    faults.arm(writer.shard_path, 0)
    assert not writer.store(key_for(9), payload_for(9))
    assert not ShardStore(writer.shard_path).store(key_for(9), b"x" * 99)
    faults.disarm()
    assert writer.shard_path.read_bytes() == before
    # Fault cleared: the same append scans, truncates and lands.
    assert writer.store(key_for(9), payload_for(9))
    assert writer.shard_path.read_bytes() == raw[:record_ends(raw)[2]] + \
        record_bytes(tmp_path, key_for(9), payload_for(9))
    assert writer.has(key_for(2)) and not writer.has(key_for(3))


def test_alternating_writers_with_stale_ends_see_each_other(tmp_path):
    """Each append finds the file past its ``_end`` holding the other
    writer's complete record: it indexes that record and truncates
    nothing, so the file equals one writer's six appends."""
    path = tmp_path / "exp.shard"
    first, second = ShardStore(path), ShardStore(path)
    for n in range(6):
        assert (first, second)[n % 2].store(key_for(n), payload_for(n))
    single = ShardStore(tmp_path / "single.shard")
    for n in range(6):
        assert single.store(key_for(n), payload_for(n))
    assert path.read_bytes() == single.shard_path.read_bytes()
    # Without a refresh, each writer saw everything up to its last append.
    assert all(first.has(key_for(n)) for n in range(5))
    assert all(second.has(key_for(n)) for n in range(6))
    fresh = ShardStore(path)
    assert [fresh.load(key_for(n)) for n in range(6)] == \
        [payload_for(n) for n in range(6)]


def test_store_after_the_shard_is_deleted_starts_afresh(tmp_path):
    """A live store whose file vanished (a wiped cache dir) must not
    append at its old ``_end``: it starts a new shard from the magic."""
    store = filled_store(tmp_path, count=3)
    store.shard_path.unlink()
    assert store.store(key_for(9), payload_for(9))
    assert store.shard_path.read_bytes() == \
        SHARD_MAGIC + record_bytes(tmp_path, key_for(9), payload_for(9))
    assert not store.has(key_for(0))
    assert store.load(key_for(9)) == payload_for(9)


_WRITER = """
import hashlib, sys
from repro.sim.shardstore import ShardStore
path, writer, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
store = ShardStore(path)
for n in range(count):
    key = hashlib.sha256(f"{writer}-{n}".encode()).digest()
    if not store.store(key, f"{writer}-{n}".encode() * (40 + n % 7)):
        sys.exit(f"append {writer}-{n} failed")
"""


def test_concurrent_writer_processes_lose_no_record(tmp_path):
    """More writer processes than cores append to one shard at once.
    Every append scans other writers' records past its ``_end`` under
    the lock; none may be truncated or torn."""
    path = tmp_path / "exp.shard"
    writers, count = 2 * (os.cpu_count() or 1) + 1, 30
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).parent.parent))
    procs = [subprocess.Popen(
        [sys.executable, "-c", _WRITER, str(path), str(w), str(count)],
        env=env) for w in range(writers)]
    try:
        codes = [proc.wait(timeout=120) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    assert codes == [0] * writers
    raw = path.read_bytes()
    assert record_ends(raw)[-1] == len(raw)  # no torn or stray bytes
    assert len(record_ends(raw)) == writers * count
    reader = ShardStore(path)
    for w in range(writers):
        for n in range(count):
            key = hashlib.sha256(f"{w}-{n}".encode()).digest()
            assert reader.load(key) == f"{w}-{n}".encode() * (40 + n % 7)


def test_payloads_round_trip_raw_zlib_and_superseded(tmp_path):
    """Loads return the exact bytes stored, whether the record went in
    zlib-compressed or raw, and the last write of a key wins — in the
    writer's index and in a fresh reader's scan alike."""
    store = ShardStore(tmp_path / "exp.shard")
    compressible = b"A" * 4096  # stored zlib'd
    incompressible = random.Random(0).randbytes(4096)  # stored raw
    assert store.store(key_for(0), compressible)
    assert store.store(key_for(1), incompressible)
    assert store.store(key_for(2), b"first-version" * 40)
    assert store.store(key_for(2), b"second-version" * 40)  # supersedes
    for reader in (store, ShardStore(store.shard_path)):
        assert reader.load(key_for(0)) == compressible
        assert reader.load(key_for(1)) == incompressible
        assert reader.load(key_for(2)) == b"second-version" * 40


def test_refresh_sees_other_writers_appends(tmp_path):
    """The campaign runner's polling primitive: a reader holding a
    scanned index re-reads disk after refresh() and sees records another
    store object appended."""
    writer = ShardStore(tmp_path / "exp.shard")
    assert writer.store(key_for(0), b"zero" * 20)
    reader = ShardStore(tmp_path / "exp.shard")
    assert reader.has(key_for(0))  # index now scanned
    assert writer.store(key_for(1), b"one" * 20)
    assert not reader.has(key_for(1))  # stale by design...
    reader.refresh()
    assert reader.has(key_for(1))  # ...until refreshed
    assert reader.load(key_for(1)) == b"one" * 20


def test_lock_functions_are_paired(tmp_path):
    """Whatever platform branch imported, _lock/_unlock must exist and
    round-trip on a real file (on POSIX this exercises flock)."""
    from repro.sim import shardstore

    path = tmp_path / "lockfile"
    path.write_bytes(b"\0")
    with open(path, "ab") as fileobj:
        shardstore._lock(fileobj)
        shardstore._unlock(fileobj)
