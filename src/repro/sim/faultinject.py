"""Fault-injection harness for the campaign/sweep/store stack.

Every recovery path in the fault-tolerant campaign orchestrator
(:mod:`repro.sim.campaign`) and the sweep runner's worker-retry logic
(:mod:`repro.sim.sweep`) is provable only if the faults themselves are
reproducible.  This module is the single injection point: production
code calls :func:`fire` at named **sites**, and an environment-driven
**fault plan** decides whether anything happens there.  With the
environment clean, :func:`fire` is a dictionary miss — the harness costs
nothing in real campaigns.

The plan lives in ``$REPRO_FAULT`` as a comma-separated list of
``action@site[:arg]`` clauses::

    REPRO_FAULT="crash@mid-shard"            # SIGKILL the worker after
                                             # its first stored point
    REPRO_FAULT="crash-runner@mid-shard"     # SIGKILL the campaign
                                             # runner AND the worker
    REPRO_FAULT="raise@pre-store"            # injected OSError before a
                                             # shard-store append
    REPRO_FAULT="sleep@pre-run:2.5"          # straggle 2.5 s before the
                                             # first point
    REPRO_FAULT="exit@point:3"               # plain nonzero exit

Actions: ``crash`` (SIGKILL self — the un-catchable death), ``crash-runner``
(SIGKILL the parent process, then self — how tests and the CI chaos job
take down a campaign runner *and* one of its workers in a single
deterministic stroke), ``exit`` (``os._exit``), ``raise`` (``OSError
EIO``), ``sleep`` (straggler).

Sites are just strings agreed between injector and code; the ones wired
up today:

==========================  ===============================================
``pre-run``                 campaign worker, before simulating any point
``mid-shard``               campaign worker, right after its first point is
                            stored
``pre-store``               campaign worker, before each shard-store append
``point``                   :func:`repro.sim.sweep.run_point`, before the
                            simulation
``serve-journal``           ingest server consumer, before each write-ahead
                            journal append (selector: node id) — ``crash``
                            here is the SIGKILL-mid-stream the serve chaos
                            job recovers from
``serve-checkpoint``        ingest server event loop, before each
                            checkpoint snapshot is handed to the writer
                            (selector: node id)
``serve-checkpoint-write``  ingest server checkpoint writer thread, after
                            the tmp file's fsync and before ``os.replace``
                            (selector: node id) — ``crash`` here is a kill
                            with a background write in flight
``serve-restore``           ingest server restart, before each journaled
                            node's restore (selector: node id)
==========================  ===============================================

Two refinements make chaos deterministic instead of merely chaotic:

* ``$REPRO_FAULT_FUSE=<path>`` — a **fire-once fuse**: the first process
  to fire claims the path with ``O_CREAT|O_EXCL`` and no one ever fires
  again.  A crash that must happen exactly once (so the retry or the
  resumed campaign succeeds) is one env var away, race-free across any
  number of workers.
* ``$REPRO_FAULT_SELECT=<value>`` — fire only where the code passes a
  matching selector (the shard index in campaign workers, the seed in
  ``run_point``), so a fault targets one shard or one grid point.

Also here: the reusable I/O-fault and torn-tail tools the shard-store
tests and the campaign fuzz tests share — :func:`io_faults` wraps
``builtins.open`` so reads/writes of one path fail with ``EIO`` after a
budget, and :func:`tear_tail` truncates a file mid-record the way a
crashed writer does.
"""

from __future__ import annotations

import builtins
import errno
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import CampaignError

#: The fault plan (see module docstring).  Parsed lazily, memoized on the
#: raw string, so `fire` in a clean environment is two dict lookups.
ENV_VAR = "REPRO_FAULT"

#: Fire-once fuse file path; claimed atomically with O_CREAT|O_EXCL.
FUSE_ENV_VAR = "REPRO_FAULT_FUSE"

#: Only fire at sites whose selector stringifies to this value.
SELECT_ENV_VAR = "REPRO_FAULT_SELECT"

ACTIONS = ("crash", "crash-runner", "exit", "raise", "sleep")


@dataclass(frozen=True)
class FaultSpec:
    """One ``action@site[:arg]`` clause of the fault plan."""

    action: str
    site: str
    arg: Optional[str] = None


def parse_plan(text: str) -> tuple[FaultSpec, ...]:
    """Parse a ``$REPRO_FAULT`` value; raises :class:`CampaignError` on a
    malformed clause (a typo'd chaos job should fail loudly, not run a
    clean campaign and report vacuous success)."""
    specs = []
    for clause in text.split(","):
        clause = clause.strip()
        if not clause:
            continue
        action, sep, rest = clause.partition("@")
        if not sep or not rest:
            raise CampaignError(
                f"bad ${ENV_VAR} clause {clause!r}; expected action@site[:arg]")
        site, _, arg = rest.partition(":")
        if action not in ACTIONS:
            raise CampaignError(
                f"bad ${ENV_VAR} action {action!r}; "
                f"known: {', '.join(ACTIONS)}")
        specs.append(FaultSpec(action=action, site=site, arg=arg or None))
    return tuple(specs)


_plan_cache: tuple[str, tuple[FaultSpec, ...]] = ("", ())


def _active_plan() -> tuple[FaultSpec, ...]:
    global _plan_cache
    text = os.environ.get(ENV_VAR, "")
    if text != _plan_cache[0]:
        _plan_cache = (text, parse_plan(text))
    return _plan_cache[1]


def _claim_fuse() -> bool:
    """True if this process may fire: either no fuse is configured, or
    this call atomically claimed it.  A claimed fuse is permanent — the
    crash it guards happens exactly once across every process of a
    campaign, which is what makes chaos runs resumable."""
    fuse = os.environ.get(FUSE_ENV_VAR)
    if not fuse:
        return True
    try:
        fd = os.open(fuse, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return False  # unwritable fuse dir: fail safe, never fire
    os.write(fd, f"{os.getpid()}\n".encode("ascii"))
    os.close(fd)
    return True


def fire(site: str, selector: object = None) -> None:
    """Run the fault plan's clauses for ``site`` (usually: do nothing).

    ``selector`` is the call site's identity (shard index, seed); with
    ``$REPRO_FAULT_SELECT`` set, only matching sites fire.  Depending on
    the action this call may not return (crash/exit), may raise
    ``OSError``, or may just sleep.
    """
    plan = _active_plan()
    if not plan:
        return
    select = os.environ.get(SELECT_ENV_VAR)
    for spec in plan:
        if spec.site != site:
            continue
        if select is not None and selector is not None \
                and str(selector) != select:
            continue
        if not _claim_fuse():
            continue
        _execute(spec, site)


def _execute(spec: FaultSpec, site: str) -> None:
    if spec.action == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif spec.action == "crash-runner":
        # The chaos-job primitive: take down the campaign runner *and*
        # this worker with one deterministic stroke (parent first, so
        # the runner cannot observe our death and react).
        os.kill(os.getppid(), signal.SIGKILL)
        os.kill(os.getpid(), signal.SIGKILL)
    elif spec.action == "exit":
        os._exit(int(spec.arg or 3))
    elif spec.action == "raise":
        raise OSError(errno.EIO, f"injected fault at {site}")
    elif spec.action == "sleep":
        time.sleep(float(spec.arg or 1.0))


# -- reusable I/O fault tools ------------------------------------------------


def tear_tail(path, drop: int = 7) -> None:
    """Truncate the last ``drop`` bytes of ``path`` — the on-disk shape
    of a writer crashing mid-append (a torn record tail)."""
    size = os.path.getsize(path)
    with open(path, "r+b") as fileobj:
        fileobj.truncate(max(0, size - drop))


class _BudgetedFile:
    """A real file object whose reads/writes draw from shared budgets and
    then fail with ``EIO`` — the shape of a transient NFS hiccup."""

    def __init__(self, fileobj, state):
        self._file = fileobj
        self._state = state

    def read(self, *args):
        state = self._state
        if state["armed"]:
            if state["reads"] is not None:
                if state["reads"] <= 0:
                    raise OSError(errno.EIO, "injected read fault")
                state["reads"] -= 1
        return self._file.read(*args)

    def write(self, *args):
        state = self._state
        if state["armed"]:
            if state["writes"] is not None:
                if state["writes"] <= 0:
                    raise OSError(errno.EIO, "injected write fault")
                state["writes"] -= 1
        return self._file.write(*args)

    def __getattr__(self, name):
        return getattr(self._file, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._file.__exit__(*exc)


@contextmanager
def io_faults(path, reads: Optional[int] = None,
              writes: Optional[int] = None) -> Iterator[dict]:
    """Within the context, binary opens of ``path`` return files whose
    reads (after ``reads`` successes) and/or writes (after ``writes``)
    raise ``EIO``.  Budgets are shared across every open of the path —
    one injector models one flaky device, however many descriptors touch
    it.  Yields the mutable budget state; set ``state["armed"] = False``
    to heal the device mid-test.
    """
    real_open = builtins.open
    state = {"path": str(path), "reads": reads, "writes": writes,
             "armed": True}

    def faulty_open(file, mode="r", *args, **kwargs):
        fileobj = real_open(file, mode, *args, **kwargs)
        if state["armed"] and str(file) == state["path"] and "b" in mode:
            return _BudgetedFile(fileobj, state)
        return fileobj

    builtins.open = faulty_open
    try:
        yield state
    finally:
        builtins.open = real_open
