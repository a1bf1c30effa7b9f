"""Wire protocol of the live ingest service.

A connection opens with exactly one ASCII line that names its role:

* ``INGEST <json>\\n`` — a node stream.  The JSON *hello* carries
  everything the server needs to account the node without seeing the
  simulation: the solved regression (columns, draws, constant floor),
  the activity registry contents, device declarations, component names,
  the pulse energy, and the window parameters.  After the hello the
  connection body is **raw packed log entries** — the same 12-byte
  frames the on-node logger writes (see :mod:`repro.core.logger`), in
  any chunking the transport produces.  The client half-closes when the
  log is done; the server replies with one JSON line holding the final
  folded energy map, then closes.
* ``QUERY <json>\\n`` — a control query.  The server answers with one
  JSON line and closes.  Commands: ``nodes`` (session states),
  ``breakdown`` (live or final per-node map), ``windows`` (the newest
  ``last`` window snapshots, a non-negative int, default 8), ``stats``
  (server totals).

**Resume extension** (the durable-ingest handshake): a hello carrying
``"ack": true`` opts into acked offsets.  The server answers the hello
*immediately* with one handshake line ``{"ok": true, "offset": N,
"resumed": ...}`` where ``N`` is the count of stream payload bytes it
already holds for this node (journaled across restarts; 0 for a new
stream) — the client seeks its log to ``N`` and streams from there, so
replay after a reconnect is idempotent.  While the body streams, the
server interleaves ack lines ``{"ack": N}`` (no ``"ok"`` key — the
final reply always has one, which is how the client tells them apart).
A rejected hello may carry ``"retry": true`` (server draining or
overloaded — back off and reconnect) or not (permanent: quarantined
node, malformed hello).  Hellos without ``"ack"`` get the original
one-reply protocol unchanged.

Everything JSON is one line, UTF-8, ``\\n``-terminated.  Energy-map
dicts are serialized as ``[[component, activity, value], ...]`` triple
lists: JSON objects cannot key on the (component, activity) tuples and
a triple list preserves the map's insertion order, which is part of the
determinism contract.  Floats survive the round trip exactly —
``json`` emits ``repr`` shortest-roundtrip forms — so a client can
compare a served map against an offline one for bit-equality.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.accounting import EnergyMap, WindowSnapshot
from repro.core.labels import ActivityRegistry
from repro.core.regression import RegressionResult, SinkColumn
from repro.errors import ServeError

#: Connection-role line prefixes.
INGEST_VERB = "INGEST"
QUERY_VERB = "QUERY"

#: Stream buffer limit for the JSON lines (the hello dominates; a
#: registry of 256 names fits in a few KiB).
LINE_LIMIT = 1 << 20

#: An address is ``(host, port)`` for TCP or a filesystem path for a
#: unix-domain socket.
Address = Union[tuple[str, int], str]


def parse_address(spec: str) -> Address:
    """Parse a CLI address: ``unix:/path``, ``host:port``, or ``:port``
    (localhost)."""
    if spec.startswith("unix:"):
        path = spec[len("unix:"):]
        if not path:
            raise ServeError(f"empty unix socket path in {spec!r}")
        return path
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ServeError(
            f"bad address {spec!r}; expected unix:/path, host:port, or :port"
        )
    if int(port) > 65535:
        raise ServeError(f"bad address {spec!r}; port must be 0-65535")
    return (host or "127.0.0.1", int(port))


def encode_json_line(obj) -> bytes:
    """One compact JSON line, ready to write."""
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def decode_json_line(line: bytes, what: str):
    try:
        return json.loads(line)
    except ValueError as exc:
        raise ServeError(f"bad {what} JSON: {exc}") from None


def is_ack_line(reply: dict) -> bool:
    """True for the server's interleaved ``{"ack": N}`` offset lines
    (every handshake/final reply carries an ``"ok"`` key; acks don't)."""
    return isinstance(reply, dict) and "ack" in reply and "ok" not in reply


# -- (component, activity) keyed dicts --------------------------------------


def pairs_to_wire(mapping: dict) -> list:
    """``{(component, activity): value}`` → ordered triple list."""
    return [[component, activity, value]
            for (component, activity), value in mapping.items()]


def pairs_from_wire(triples: Sequence) -> dict:
    """Ordered triple list → ``{(component, activity): value}``."""
    return {(component, activity): value
            for component, activity, value in triples}


def emap_to_wire(emap: EnergyMap) -> dict:
    return {
        "energy_j": pairs_to_wire(emap.energy_j),
        "time_ns": pairs_to_wire(emap.time_ns),
        "metered_energy_j": emap.metered_energy_j,
        "reconstructed_energy_j": emap.reconstructed_energy_j,
        "span_ns": emap.span_ns,
    }


def emap_from_wire(obj: dict) -> EnergyMap:
    return EnergyMap(
        time_ns=pairs_from_wire(obj["time_ns"]),
        energy_j=pairs_from_wire(obj["energy_j"]),
        metered_energy_j=obj["metered_energy_j"],
        reconstructed_energy_j=obj["reconstructed_energy_j"],
        span_ns=obj["span_ns"],
    )


def snapshot_to_wire(snapshot: WindowSnapshot) -> dict:
    """A window snapshot for query replies: the display deltas plus the
    window's cumulative totals (the full cumulative dicts stay
    server-side; queries are for dashboards, the exactness contract is
    settled in the final ingest reply)."""
    return {
        "index": snapshot.index,
        "t0_ns": snapshot.t0_ns,
        "t1_ns": snapshot.t1_ns,
        "intervals": snapshot.intervals,
        "energy_j": pairs_to_wire(snapshot.energy_j),
        "time_ns": pairs_to_wire(snapshot.time_ns),
        "reconstructed_energy_j": snapshot.reconstructed_energy_j,
        "metered_energy_j": snapshot.metered_energy_j,
        "final": snapshot.final,
    }


# -- regression / registry ---------------------------------------------------


def regression_to_wire(regression: RegressionResult) -> dict:
    """The accounting-relevant slice of a solved regression: the column
    layout, the per-column draws, and the constant floor.  The solver
    diagnostics (residuals, groups, weights) stay home."""
    return {
        "columns": [[c.res_id, c.value, c.name] for c in regression.columns],
        "power_w": dict(regression.power_w),
        "const_power_w": regression.const_power_w,
        "voltage": regression.voltage,
    }


def regression_from_wire(obj: dict) -> RegressionResult:
    """Rebuild a :class:`RegressionResult` good enough for accounting
    (empty diagnostic arrays; the accumulator reads only columns,
    ``power_w``, and ``const_power_w``)."""
    empty = np.zeros(0)
    return RegressionResult(
        columns=[SinkColumn(res_id=r, value=v, name=n)
                 for r, v, n in obj["columns"]],
        power_w=dict(obj["power_w"]),
        const_power_w=obj["const_power_w"],
        voltage=obj.get("voltage", 0.0),
        y=empty, y_hat=empty, weights=empty,
        group_states=[], group_time_ns=[], group_energy_j=[],
    )


def registry_to_wire(registry: ActivityRegistry) -> dict:
    """aid → name, every registration included (builtins too, so the
    rebuilt registry renders identically)."""
    return {str(aid): name for aid, name in registry.known_ids().items()}


def registry_from_wire(obj: dict) -> ActivityRegistry:
    """A real registry restored from the wire names — ``name_of``
    renders exactly as the sending node's registry does (including the
    ``actN`` fallback for ids the sender never named)."""
    names = {int(aid): name for aid, name in obj.items()}
    registry = ActivityRegistry()
    next_id = max(names, default=0) + 1
    registry.restore_state((names, next_id))
    return registry


# -- the ingest hello --------------------------------------------------------

def make_hello(
    *,
    node_id: int,
    registry: ActivityRegistry,
    component_names: dict[int, str],
    regression: RegressionResult,
    energy_per_pulse_j: float,
    idle_name: str,
    stride_ns: int,
    single_res_ids: Sequence[int],
    multi_res_ids: Sequence[int],
    end_time_ns: Optional[int] = None,
    origin_ns: Optional[int] = None,
) -> dict:
    return {
        "node_id": node_id,
        "registry": registry_to_wire(registry),
        "component_names": {str(k): v for k, v in component_names.items()},
        "regression": regression_to_wire(regression),
        "energy_per_pulse_j": energy_per_pulse_j,
        "idle_name": idle_name,
        "stride_ns": stride_ns,
        "single_res_ids": list(single_res_ids),
        "multi_res_ids": list(multi_res_ids),
        "end_time_ns": end_time_ns,
        "origin_ns": origin_ns,
    }


def _int(value, low=0) -> bool:
    """A JSON integer (not true/false) of at least ``low``."""
    return type(value) is int and value >= low


def _number(value) -> bool:
    return _int(value, -math.inf) \
        or (type(value) is float and math.isfinite(value))


def _names(obj) -> bool:
    """An object of decimal-id keys and string values."""
    return isinstance(obj, dict) and all(
        key.isdecimal() and isinstance(name, str)
        for key, name in obj.items())


def _regression(obj) -> bool:
    """Columns whose draws it carries, and the constant floor."""
    power = obj.get("power_w") if isinstance(obj, dict) else None
    return (isinstance(power, dict) and isinstance(obj.get("columns"), list)
            and all(isinstance(column, list) and len(column) == 3
                    and _int(column[0]) and _int(column[1])
                    and isinstance(column[2], str) and column[2] in power
                    for column in obj["columns"])
            and all(_number(watts) for watts in power.values())
            and _number(obj.get("const_power_w")))


_IDS = (lambda v: isinstance(v, list) and all(_int(r) and r < 256 for r in v),
        "a list of ints in 0..255")


#: Each hello field's check and what it must be; a field whose check
#: passes on null may be left out.
_HELLO_FIELDS = {
    "node_id": (_int, "an int >= 0"),
    "stride_ns": (lambda v: _int(v, 1), "an int > 0"),
    "energy_per_pulse_j": (lambda v: _number(v) and v > 0,
                           "a finite number > 0"),
    "end_time_ns": (lambda v: v is None or _int(v), "an int >= 0 or null"),
    "origin_ns": (lambda v: v is None or _int(v), "an int >= 0 or null"),
    "single_res_ids": _IDS,
    "multi_res_ids": _IDS,
    "component_names": (_names, "an object of res_id -> name"),
    "registry": (_names, "an object of activity id -> name"),
    "idle_name": (lambda v: isinstance(v, str), "a string"),
    "regression": (_regression,
                   "an object of columns, their power_w and const_power_w"),
}


def check_hello(hello: dict) -> dict:
    """Validate an ingest hello — every field present, of its type and
    in its range — so a bad one is refused before anything is
    journaled.  Returns it for chaining."""
    if not isinstance(hello, dict):
        raise ServeError("ingest hello is not a JSON object")
    missing = [key for key, (valid, _) in _HELLO_FIELDS.items()
               if key not in hello and not valid(None)]
    if missing:
        raise ServeError(f"ingest hello missing {', '.join(missing)}")
    for key, (valid, what) in _HELLO_FIELDS.items():
        value = hello.get(key)
        if not valid(value):
            raise ServeError(
                f"ingest hello {key} must be {what}, got {value!r:.80}")
    return hello
