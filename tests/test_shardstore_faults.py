"""Shard store I/O-fault hardening.

The scenario behind the regression tests: a campaign's cache has a good
shard and a good index; one load hits a transient read error mid-scan
(NFS hiccup, EIO).  The old behaviour treated the partial scan as "the
shard is empty" and **rewrote the index from it** — clobbering a good
accelerator and turning every cached point into a miss.  Pinned here:
a faulted scan keeps the entries it already proved, never persists a
partial index, and the next clean load sees everything again.
"""

import builtins
import hashlib
import random

import pytest

from repro.sim.shardstore import (
    INDEX_MAGIC,
    RECORD_HEADER,
    SHARD_MAGIC,
    ShardStore,
)


def key_for(n: int) -> bytes:
    return hashlib.sha256(f"point-{n}".encode()).digest()


def filled_store(tmp_path, count=6):
    store = ShardStore(tmp_path / "exp.shard")
    for n in range(count):
        assert store.store(key_for(n), f"payload-{n}".encode() * 50)
    return store


class FaultyFile:
    """A real file object whose reads start failing after a budget —
    the shape of a transient EIO mid-scan."""

    def __init__(self, fileobj, reads_before_fault):
        self._file = fileobj
        self._remaining = reads_before_fault

    def read(self, *args):
        if self._remaining <= 0:
            raise OSError(5, "injected read fault")
        self._remaining -= 1
        return self._file.read(*args)

    def __getattr__(self, name):
        return getattr(self._file, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._file.__exit__(*exc)


class FaultInjector:
    """Patches ``open`` so binary reads of one path draw from a shared
    read budget, then fail with EIO — until :meth:`disarm`."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self._state = None

    def arm(self, path, reads_before_fault):
        real_open = builtins.open
        state = self._state = {"path": str(path),
                               "budget": reads_before_fault,
                               "armed": True}

        class SharedBudgetFile(FaultyFile):
            def read(self, *args):
                if state["armed"]:
                    if state["budget"] <= 0:
                        raise OSError(5, "injected read fault")
                    state["budget"] -= 1
                return self._file.read(*args)

        def faulty_open(file, mode="r", *args, **kwargs):
            fileobj = real_open(file, mode, *args, **kwargs)
            if state["armed"] and str(file) == state["path"] \
                    and "r" in mode and "b" in mode:
                return SharedBudgetFile(fileobj, 0)
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
    store.index_path.unlink()  # force a full recovery scan
    # Budget: magic + 3 record headers succeed, then EIO.  (Payload
    # reads are seeks, so every read is a header read.)
    faults.arm(store.shard_path, 4)
    faulted = ShardStore(store.shard_path)
    entries, end, complete = faulted._scan_shard(0)
    assert not complete
    assert len(entries) == 3  # everything scanned before the fault
    assert end > len(SHARD_MAGIC)
    for n in range(3):
        assert key_for(n) in entries


def test_faulted_load_serves_partial_but_skips_index_rewrite(
        tmp_path, faults):
    store = filled_store(tmp_path)
    index_bytes = store.index_path.read_bytes()
    store.index_path.unlink()
    faults.arm(store.shard_path, 3)
    faulted = ShardStore(store.shard_path)
    assert faulted.has(key_for(0))  # partial entries still serve
    assert not faulted.has(key_for(5))
    # The load must NOT have persisted the partial scan as the index.
    assert not faulted.index_path.exists()
    # A later, healthy process sees the whole store and heals the index.
    faults.disarm()
    healthy = ShardStore(store.shard_path)
    assert healthy.keys() == {key_for(n) for n in range(6)}
    assert healthy.index_path.read_bytes() == index_bytes


def test_fault_during_tail_scan_keeps_good_index(tmp_path, faults):
    """A stale-but-valid index plus a faulted tail scan: the good rows
    must survive on disk (no rewrite from partial knowledge)."""
    store = filled_store(tmp_path, count=2)
    stale_index = store.index_path.read_bytes()
    # Grow the shard past the index (simulates a writer crash between
    # the payload append and the index append).
    more = ShardStore(store.shard_path)
    assert more.store(key_for(2), b"late" * 80)
    store.index_path.write_bytes(stale_index)
    # Every read faults -> the tail scan learns nothing.
    faults.arm(store.shard_path, 0)
    reader = ShardStore(store.shard_path)
    assert reader.keys() == {key_for(0), key_for(1)}  # index rows serve
    assert reader.index_path.read_bytes() == stale_index  # untouched
    faults.disarm()
    healthy = ShardStore(store.shard_path)
    assert healthy.keys() == {key_for(0), key_for(1), key_for(2)}


def test_garbage_magic_is_still_definitive(tmp_path):
    """A file that is definitively not a shard yields a definitive
    empty result (complete=True) — that's corruption, not a fault."""
    path = tmp_path / "bad.shard"
    path.write_bytes(b"NOTSHARD" + b"x" * 64)
    store = ShardStore(path)
    entries, end, complete = store._scan_shard(0)
    assert (entries, end, complete) == ({}, 0, True)
    assert len(store) == 0


def test_torn_tail_recovery_is_unchanged(tmp_path):
    """The pre-existing contract: a truncated last record is dropped,
    everything before it loads (and this counts as a complete scan)."""
    store = filled_store(tmp_path, count=3)
    raw = store.shard_path.read_bytes()
    store.shard_path.write_bytes(raw[:-7])  # tear the last payload
    store.index_path.unlink()
    recovered = ShardStore(store.shard_path)
    entries, _end, complete = recovered._scan_shard(0)
    assert complete
    assert set(entries) == {key_for(0), key_for(1)}
    assert recovered.keys() == {key_for(0), key_for(1)}
    assert recovered.index_path.exists()  # definitive scans still heal


def test_payloads_round_trip_raw_zlib_and_superseded(tmp_path):
    """Loads return the exact bytes stored, whether the record went in
    zlib-compressed or raw, and the last write of a key wins — in the
    writer's index and in a fresh reader's rebuild scan alike."""
    store = ShardStore(tmp_path / "exp.shard")
    compressible = b"A" * 4096  # stored zlib'd
    incompressible = random.Random(0).randbytes(4096)  # stored raw
    assert store.store(key_for(0), compressible)
    assert store.store(key_for(1), incompressible)
    assert store.store(key_for(2), b"first-version" * 40)
    assert store.store(key_for(2), b"second-version" * 40)  # supersedes
    store.index_path.unlink()
    for reader in (store, ShardStore(store.shard_path)):
        assert reader.load(key_for(0)) == compressible
        assert reader.load(key_for(1)) == incompressible
        assert reader.load(key_for(2)) == b"second-version" * 40


def test_refresh_sees_other_writers_appends(tmp_path):
    """The campaign runner's polling primitive: a reader holding a
    cached index re-reads disk after refresh() and sees records another
    store object appended."""
    writer = ShardStore(tmp_path / "exp.shard")
    assert writer.store(key_for(0), b"zero" * 20)
    reader = ShardStore(tmp_path / "exp.shard")
    assert reader.keys() == {key_for(0)}  # index now cached
    assert writer.store(key_for(1), b"one" * 20)
    assert reader.keys() == {key_for(0)}  # stale by design...
    reader.refresh()
    assert reader.keys() == {key_for(0), key_for(1)}  # ...until refreshed


def test_lock_functions_are_paired(tmp_path):
    """Whatever platform branch imported, _lock/_unlock must exist and
    round-trip on a real file (on POSIX this exercises flock)."""
    from repro.sim import shardstore

    path = tmp_path / "lockfile"
    path.write_bytes(b"\0")
    with open(path, "ab") as fileobj:
        shardstore._lock(fileobj)
        shardstore._unlock(fileobj)
