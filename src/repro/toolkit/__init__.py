"""Offline log tooling — the paper's "set of tools we wrote to parse and
visualize the logs" (§4): human-readable dumps and a log linter that
flags structural problems before analysis."""

from repro.toolkit.logdump import dump_log
from repro.toolkit.validate import LogIssue, validate_log

__all__ = [
    "dump_log",
    "validate_log",
    "LogIssue",
]
