"""A virtual oscilloscope: ground truth for calibrating Quanto.

The paper calibrates against a Tektronix MSO4104 watching the voltage
across a 10-ohm shunt between the iCount regulator and the mote.  Our
scope subscribes to the hidden :class:`~repro.hw.power.PowerRail` step
trace and records the aggregate current exactly.  For presentation
(Figure 10) it can also synthesize the switching-regulator ripple that the
real scope sees — a sawtooth at the iCount pulse frequency around the mean
current — and it can apply measurement noise so that calibration tables
show realistic residuals (the paper's Table 2 closes with a 0.83 % relative
error, not zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.hw.power import PowerRail
from repro.units import to_s


@dataclass
class ScopeTrace:
    """A piecewise-constant record of aggregate current.

    ``times_ns[i]`` is when the current stepped to ``amps[i]``; the level
    holds until the next step (or ``end_ns``).
    """

    times_ns: list[int] = field(default_factory=list)
    amps: list[float] = field(default_factory=list)
    end_ns: int = 0

    def level_at(self, t_ns: int) -> float:
        """Current level at an instant (0 before the first step)."""
        # Binary search over step times.
        lo, hi = 0, len(self.times_ns)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.times_ns[mid] <= t_ns:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            return 0.0
        return self.amps[lo - 1]

    def mean_current(self, t0_ns: int, t1_ns: int) -> float:
        """Time-weighted mean current over [t0, t1] in amperes."""
        if t1_ns <= t0_ns:
            raise ValueError("empty window")
        total = 0.0
        prev_t = t0_ns
        prev_level = self.level_at(t0_ns)
        for t, level in zip(self.times_ns, self.amps):
            if t <= t0_ns:
                continue
            if t >= t1_ns:
                break
            total += prev_level * (t - prev_t)
            prev_t, prev_level = t, level
        total += prev_level * (t1_ns - prev_t)
        return total / (t1_ns - t0_ns)


class Oscilloscope:
    """Records the rail's aggregate current and produces sampled views."""

    def __init__(
        self,
        rail: PowerRail,
        noise_fraction: float = 0.0,
        rng=None,
    ) -> None:
        self.rail = rail
        self.noise_fraction = float(noise_fraction)
        self._rng = rng
        self.trace = ScopeTrace()
        rail.add_observer(self._on_step)
        # Record the initial level so windows before the first change work.
        self.trace.times_ns.append(rail.sim.now)
        self.trace.amps.append(rail.current())

    def _on_step(self, t_ns: int, amps: float) -> None:
        self.trace.times_ns.append(t_ns)
        self.trace.amps.append(amps)
        self.trace.end_ns = t_ns

    # -- measurement API ---------------------------------------------------

    def measure_mean_current(self, t0_ns: int, t1_ns: int) -> float:
        """Mean current over a window, with optional measurement noise —
        this is what feeds the Table 2 calibration regression."""
        mean = self.trace.mean_current(t0_ns, t1_ns)
        if self.noise_fraction and self._rng is not None:
            mean *= 1.0 + self._rng.gauss(0.0, self.noise_fraction)
        return max(mean, 0.0)

    def sample(
        self,
        t0_ns: int,
        t1_ns: int,
        sample_period_ns: int,
        ripple: bool = False,
    ) -> tuple[list[int], list[float]]:
        """Sampled current waveform over a window.

        With ``ripple=True`` a sawtooth at the iCount switching frequency is
        superimposed on each constant segment, reproducing the waveform the
        paper's Figure 10 shows (the regulator dumping charge packets).  The
        sawtooth is shaped so its mean equals the segment's true current.
        """
        times: list[int] = []
        values: list[float] = []
        t = t0_ns
        while t < t1_ns:
            level = self.trace.level_at(t)
            value = level
            if ripple and level > 0:
                i_ma = level * 1e3
                f_khz = (i_ma + 0.05) / 2.77
                freq_hz = max(f_khz * 1e3, 1.0)
                phase = (to_s(t) * freq_hz) % 1.0
                # Sawtooth between 1.6x and 0.4x of the mean, mean-preserving.
                value = level * (1.6 - 1.2 * phase)
            if self.noise_fraction and self._rng is not None:
                value += level * self._rng.gauss(0.0, self.noise_fraction)
            times.append(t)
            values.append(max(value, 0.0))
            t += sample_period_ns
        return times, values
