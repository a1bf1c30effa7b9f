"""Activity labels: ⟨origin node : activity id⟩ pairs.

The paper encodes a label in 16 bits — 8 bits of origin node id and 8 bits
of statically defined activity id — "sufficient for networks of up to 256
nodes with 256 distinct activity ids" (Section 3.3).  We use the same
encoding, both in log entries and in the hidden packet field, so the wire
format constraints are honored.

Well-known ids: 0 is the idle activity; ids 0xC8 and up are reserved for
interrupt proxy activities (statically assigned per interrupt vector, as
the paper does for the non-reentrant MSP430 interrupt model) and for
Quanto's own bookkeeping activity (the continuous-logging drain task,
which accounts for itself like Unix ``top``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ActivityError

#: The idle activity id (activity of a device doing nothing).
IDLE_ID = 0

#: First id reserved for interrupt proxy activities.
PROXY_BASE = 0xC8

#: Statically assigned proxy ids, one per interrupt source (paper §3.3).
PROXY_IDS = {
    "int_TIMERB0": PROXY_BASE + 0,
    "int_TIMERB1": PROXY_BASE + 1,
    "int_TIMERA1": PROXY_BASE + 2,
    "int_UART0RX": PROXY_BASE + 3,
    "int_DACDMA": PROXY_BASE + 4,
    "pxy_RX": PROXY_BASE + 5,
    "int_SENSOR": PROXY_BASE + 6,
    "int_FLASH": PROXY_BASE + 7,
    "int_ADC": PROXY_BASE + 8,
    "int_RADIO": PROXY_BASE + 9,
}

#: Quanto's own activity (drain-mode logging accounts for itself).
QUANTO_ID = PROXY_BASE + 15


@dataclass(frozen=True, order=True)
class ActivityLabel:
    """An activity label: where it started and which activity it is."""

    origin: int
    aid: int

    def __post_init__(self) -> None:
        if not 0 <= self.origin <= 0xFF:
            raise ActivityError(f"origin {self.origin} does not fit in 8 bits")
        if not 0 <= self.aid <= 0xFF:
            raise ActivityError(f"activity id {self.aid} does not fit in 8 bits")
        # Labels live as dict keys and set members on every tracker hot
        # path; precompute the (immutable) hash and wire encoding once.
        object.__setattr__(self, "_hash", hash((self.origin, self.aid)))
        object.__setattr__(self, "_encoded", (self.origin << 8) | self.aid)

    def __hash__(self) -> int:  # same value the generated hash would give
        return self._hash

    def encode(self) -> int:
        """16-bit wire encoding: origin in the high byte."""
        return self._encoded

    @staticmethod
    def decode(value: int) -> "ActivityLabel":
        # Decoded labels are interned: a log replays the same handful of
        # 16-bit encodings thousands of times, and the label is frozen,
        # so one instance per encoding serves every decode.
        label = _DECODED.get(value)
        if label is None:
            if not 0 <= value <= 0xFFFF:
                raise ActivityError(
                    f"encoded label {value} does not fit in 16 bits")
            label = ActivityLabel(origin=value >> 8, aid=value & 0xFF)
            _DECODED[value] = label
        return label

    @property
    def is_proxy(self) -> bool:
        return PROXY_BASE <= self.aid < PROXY_BASE + 15

    def __str__(self) -> str:
        return f"{self.origin}:{self.aid}"


#: Interned decode results, keyed by the 16-bit wire encoding.
_DECODED: dict[int, "ActivityLabel"] = {}


def idle_label(origin: int = 0) -> ActivityLabel:
    """The idle activity (conventionally rendered as ``Idle``)."""
    return ActivityLabel(origin=origin, aid=IDLE_ID)


class ActivityRegistry:
    """Maps activity ids to programmer-facing names.

    Ids are statically defined (as in the paper); the registry exists so
    reports can render ``1:Red`` or ``4:BounceApp`` instead of raw pairs.
    One registry is shared across a network — activity ids are a global
    namespace in the paper's deployments.
    """

    def __init__(self) -> None:
        self._names: dict[int, str] = {IDLE_ID: "Idle", QUANTO_ID: "Quanto"}
        for name, aid in PROXY_IDS.items():
            self._names[aid] = name
        self._next_id = 1
        # Rendered-name cache: name_of() runs for every closed segment
        # during accounting; the format work is done once per label.
        # Invalidated on register() (a late registration can upgrade an
        # ``actN`` fallback to a real name).
        self._rendered: dict[ActivityLabel, str] = {}
        # Reverse index for register()'s idempotent path: tasks and
        # timers re-register their names constantly, and a linear scan
        # per post shows up in profiles.
        self._by_name: dict[str, int] = {
            name: aid for aid, name in self._names.items()
        }

    def register(self, name: str) -> int:
        """Register a named activity under the next free id; returns the
        id.  Re-registering the same name returns the existing id."""
        existing = self._by_name.get(name)
        if existing is not None:
            return existing
        aid = self._next_id
        while aid in self._names:
            aid += 1
        if aid >= PROXY_BASE:
            raise ActivityError(
                f"no application activity id left for {name!r} "
                f"(ids 1..{PROXY_BASE - 1})")
        self._names[aid] = name
        self._by_name[name] = aid
        self._next_id = aid + 1
        self._rendered.clear()
        return aid

    def label(self, origin: int, name: str) -> ActivityLabel:
        """Look up (registering if needed) a label by name.

        Returns the *interned* instance for the encoding (the decode
        cache), so repeated lookups of one activity hand back one
        object — the device trackers' identity fast path then skips the
        field-compare on every idempotent repaint.
        """
        aid = self.register(name)
        if not 0 <= origin <= 0xFF:
            raise ActivityError(f"origin {origin} does not fit in 8 bits")
        return ActivityLabel.decode((origin << 8) | aid)

    def name_of(self, label: ActivityLabel) -> str:
        """Render a label like the paper's figures: ``origin:Name``."""
        rendered = self._rendered.get(label)
        if rendered is None:
            name = self._names.get(label.aid, f"act{label.aid}")
            rendered = f"{label.origin}:{name}"
            self._rendered[label] = rendered
        return rendered

    def known_ids(self) -> dict[int, str]:
        return dict(self._names)

    # -- warm-start snapshot/restore --------------------------------------

    def snapshot_state(self) -> tuple[dict[int, str], int]:
        """Capture the registration state (for the warm-start protocol:
        a node snapshots its registry right after construction)."""
        return dict(self._names), self._next_id

    def restore_state(self, state: tuple[dict[int, str], int]) -> None:
        """Drop registrations made since :meth:`snapshot_state`, so a
        reset run re-registers application activities from the same id
        space the cold run saw (same names → same ids)."""
        names, next_id = state
        self._names = dict(names)
        self._by_name = {name: aid for aid, name in self._names.items()}
        self._next_id = next_id
        self._rendered.clear()
