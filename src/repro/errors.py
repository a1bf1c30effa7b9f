"""Exception hierarchy for the Quanto reproduction.

All library errors derive from :class:`ReproError` so callers can catch one
base type.  The names mirror the subsystem that raises them.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """Raised on misuse of the discrete-event engine (e.g. scheduling in
    the past, running a finished simulator)."""


class HardwareError(ReproError):
    """Raised when a hardware model is driven into an illegal transition
    (e.g. transmitting while the radio regulator is off)."""


class PowerModelError(ReproError):
    """Raised for inconsistent ground-truth power bookkeeping."""


class LoggerError(ReproError):
    """Raised by the Quanto logger (e.g. decoding a corrupt entry)."""


class RegressionError(ReproError):
    """Raised when the energy-breakdown regression cannot be solved
    (e.g. no intervals, or a rank-deficient design matrix in strict mode)."""


class ActivityError(ReproError):
    """Raised on activity-label misuse (bad encoding, unknown ids)."""


class NetworkError(ReproError):
    """Raised by the radio channel / network substrate."""


class AnalysisBackendError(ReproError):
    """Raised when :func:`~repro.core.accounting.build_energy_map` is
    asked for an analysis implementation other than ``"columnar"`` (the
    product path) or ``"streaming"`` (the reference)."""


class ExperimentParameterError(ReproError):
    """Raised when an experiment override names an unknown parameter or
    carries a value that cannot be coerced to the parameter's type."""


class SweepError(ReproError):
    """Raised by the sweep runner (bad grid, worker failure, empty sweep)."""


class CampaignError(SweepError):
    """Raised by the campaign orchestrator (bad manifest, exhausted shard
    retries, expected-digest mismatch).  A :class:`SweepError` subclass
    so sweep-layer callers and the CLI need no new catch sites."""


class WindowingError(ReproError):
    """Raised on windowed-accounting misuse (non-positive stride, folding
    an empty window sequence, sliding width not a stride multiple)."""


class ServeError(ReproError):
    """Raised by the live ingest server / client (bad handshake, unknown
    query, protocol violations on a node stream)."""
