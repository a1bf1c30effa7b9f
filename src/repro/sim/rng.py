"""Deterministic per-component random streams.

Every stochastic piece of the simulation (interferer bursts, device
variation, meter noise, MAC backoff) draws from its own named stream so
that adding randomness to one component never perturbs another.  Streams
are derived from a master seed plus the component name, so a run is fully
reproducible from ``(seed,)`` alone.
"""

from __future__ import annotations

import hashlib
import random


class RngFactory:
    """Derives independent ``random.Random`` streams from one master seed."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the named stream."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        stream = random.Random(self._derive(name))
        self._streams[name] = stream
        return stream

    def _derive(self, name: str) -> int:
        digest = hashlib.sha256(
            f"{self.master_seed}:{name}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def reseed(self, master_seed: int) -> None:
        """Re-key the factory (and every stream already handed out) for a
        new master seed, *in place*.

        Part of the warm-start protocol: consumers hold direct references
        to their streams (the sensor, the meter, a MAC), so replacing the
        factory would leave them on the old seed.  Re-seeding each cached
        ``random.Random`` instead puts every holder into exactly the
        state a cold construction with ``RngFactory(master_seed)`` would
        have produced — same derivation, same stream names.
        """
        self.master_seed = int(master_seed)
        for name, stream in self._streams.items():
            stream.seed(self._derive(name))

