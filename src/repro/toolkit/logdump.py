"""A human-readable view of a Quanto log.

``dump_log`` renders decoded entries one per line with resolved resource
and activity names — the first thing you reach for when a trace looks
wrong.

It consumes any *iterable* of decoded entries and renders
incrementally: feed them :func:`repro.core.logger.iter_entries` and a
large log dumps without every entry object (or every rendered line's
source) being live at once — only the rendered text accumulates.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.labels import ActivityLabel, ActivityRegistry
from repro.core.logger import (
    LogEntry,
    TYPE_ACT_ADD,
    TYPE_ACT_BIND,
    TYPE_ACT_CHANGE,
    TYPE_ACT_REMOVE,
    TYPE_BOOT,
    TYPE_POWERSTATE,
)

_ACTIVITY_TYPES = (TYPE_ACT_CHANGE, TYPE_ACT_BIND, TYPE_ACT_ADD,
                   TYPE_ACT_REMOVE)


def dump_log(
    entries: Iterable[LogEntry],
    registry: Optional[ActivityRegistry] = None,
    component_names: Optional[dict[int, str]] = None,
    limit: Optional[int] = None,
) -> str:
    """Render entries like::

        [   12]     8000123 us  ic=  962301  powerstate  LED0 -> 1
        [   13]     8000225 us  ic=  962301  act_change  CPU  -> 1:Red

    ``entries`` may be a list or a generator (e.g. ``iter_entries``);
    past ``limit`` the remaining entries are counted, not materialized.
    """
    names = component_names or {}
    lines = []
    beyond = 0
    for entry in entries:
        if limit and len(lines) >= limit:
            beyond += 1
            continue
        resource = names.get(entry.res_id, f"res{entry.res_id}")
        if entry.type in _ACTIVITY_TYPES:
            label = ActivityLabel.decode(entry.value)
            value = registry.name_of(label) if registry else str(label)
        else:
            value = str(entry.value)
        lines.append(
            f"[{entry.seq:>6}] {entry.time_us:>12} us  "
            f"ic={entry.icount:>10}  {entry.type_name:<11} "
            f"{resource:<8} -> {value}"
        )
    if beyond:
        lines.append(f"... {beyond} more entries")
    return "\n".join(lines)
