"""The iCount energy meter (Dutta et al., IPSN'08), as Quanto sees it.

iCount rides on the node's switching regulator: every regulator switch
cycle transfers a fixed quantum of energy, so counting switch pulses meters
cumulative energy.  The paper's calibration (Section 4.1) found, for the
HydroWatch at 3 V:

* pulse frequency linear in load current: ``I_avg(mA) = 2.77 f(kHz) - 0.05``
  with R^2 = 0.99995, i.e. one pulse corresponds to about **8.33 uJ**;
* maximum error around +/-15 % over five decades of current;
* a read latency of 24 instruction cycles;
* an energy resolution of roughly 1 uJ.

Our model integrates the hidden ground-truth rail energy exactly and
quantizes it at the pulse quantum.  Optional error knobs reproduce the
meter's non-idealities: a per-node *gain error* (the dominant term in the
+/-15 % spec — a fixed miscalibration of the effective uJ/pulse) and a
small white *jitter* on each read (pulse-edge phase noise).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.hw.power import PowerRail

#: Energy per regulator pulse at 3.0 V, from the paper's calibration.
DEFAULT_ENERGY_PER_PULSE_J = 8.33e-6

#: Cost charged to the CPU for reading the counter (Table 4: 24 cycles).
READ_COST_CYCLES = 24


class ICountMeter:
    """Quantized, optionally noisy view of the rail's cumulative energy.

    ``read()`` returns the pulse count — a ``uint32``-style monotone counter
    — without charging any CPU time; the caller (the Quanto logger) charges
    the 24-cycle read cost, mirroring how the real OS pays for the read.
    """

    def __init__(
        self,
        rail: PowerRail,
        gain_error: float = 0.0,
        jitter_pulses: float = 0.0,
        rng=None,
    ) -> None:
        self.rail = rail
        self.nominal_energy_per_pulse_j = DEFAULT_ENERGY_PER_PULSE_J
        # A gain error of g means the meter behaves as if each pulse carried
        # (1+g)x the nominal energy: the count reads low for g > 0.
        self.gain_error = float(gain_error)
        self.jitter_pulses = float(jitter_pulses)
        self._rng = rng
        self._last_count = 0
        # Both constants are fixed at construction; read() runs once per
        # log record, so the derived per-pulse energy is computed once.
        self._effective_j = (
            self.nominal_energy_per_pulse_j * (1.0 + self.gain_error)
        )
        # read() is the log's per-record cost: the jitter draw is a
        # closure replica of ``random.Random.gauss(0.0, sigma)`` with the
        # uniform source, sigma, and libm functions bound once (the
        # stream object is stable — warm-start reseeds it in place).
        # The cached-pair state lives in ``_jitter_state`` so reset()
        # can clear it exactly like ``seed()`` clears ``gauss_next``.
        self._jitter_state: list[Optional[float]] = [None]
        if self.jitter_pulses and rng is not None:
            self._gauss = self._make_jitter(
                rng, self.jitter_pulses, self._jitter_state)
        else:
            self._gauss = None

    @staticmethod
    def _make_jitter(
        rng, sigma: float, state: list
    ) -> "Callable[[], float]":
        """Bit-identical closure form of ``rng.gauss(0.0, sigma)``:
        same polar-pair recurrence over the same uniform stream, same
        ``mu + z*sigma`` arithmetic (``mu = 0.0`` kept explicit so the
        signed-zero behavior matches), with the spare draw cached in
        ``state[0]`` instead of ``rng.gauss_next``."""
        uniform = rng.random
        cos = math.cos
        sin = math.sin
        log = math.log
        sqrt = math.sqrt
        twopi = 2.0 * math.pi

        def draw() -> float:
            z = state[0]
            state[0] = None
            if z is None:
                x2pi = uniform() * twopi
                g2rad = sqrt(-2.0 * log(1.0 - uniform()))
                z = cos(x2pi) * g2rad
                state[0] = sin(x2pi) * g2rad
            return 0.0 + z * sigma

        return draw

    def reset(self) -> None:
        """Warm-start reset: rewind the monotone counter clamp.  The rng
        stream is re-seeded by the factory, and the calibration constants
        are per-config, so nothing else here is run state.  The cached
        jitter pair is cleared because the factory's in-place ``seed()``
        clears ``gauss_next`` on the real generator."""
        self._last_count = 0
        self._jitter_state[0] = None

    def read(self, at_ns: Optional[int] = None) -> int:
        """Current pulse count (monotone, uint32 semantics handled by the
        logger's 32-bit field).

        ``at_ns`` — read as of a near-future instant within the current
        CPU job (the logger passes the cycle-advanced virtual time).  The
        rail's draw is constant for the remainder of the executing job, so
        the energy is extrapolated at the present aggregate power; this
        mirrors the real meter being read mid-execution rather than at the
        event-loop boundary.
        """
        # Inlined rail.energy()/rail.power() *and* the integrate step:
        # one read per log record makes the method-call overhead of the
        # polite accessors real money (the arithmetic, its grouping, and
        # the per-sink accumulation order are exactly
        # PowerRail._integrate_to_now's).
        rail = self.rail
        now = rail.sim._now
        dt_ns = now - rail._last_update_ns
        if dt_ns > 0:
            total = rail._total_amps
            if total:
                dt_s = dt_ns * 1e-9
                voltage = rail.voltage
                rail._energy_j += voltage * total * dt_s
                sink_energy = rail._sink_energy_j
                for name, handle in rail._hot.items():
                    sink_energy[name] += voltage * handle._amps * dt_s
            rail._last_update_ns = now
        energy = rail._energy_j
        if at_ns is not None:
            ahead_ns = at_ns - now
            if ahead_ns > 0:
                energy += rail._total_amps * rail.voltage * ahead_ns * 1e-9
        count = energy / self._effective_j
        if self._gauss is not None:
            count += self._gauss()
        pulses = math.floor(count)
        if pulses < self._last_count:
            # Jitter must never make the counter run backwards.
            pulses = self._last_count
        self._last_count = pulses
        return pulses

    def frequency_for_current(self, amps: float) -> float:
        """Switch frequency (Hz) at a given load, from the paper's linear
        fit ``I_avg(mA) = 2.77 f(kHz) - 0.05`` — used to synthesize the
        switching ripple in Figure 10 renderings."""
        i_ma = amps * 1e3
        f_khz = (i_ma + 0.05) / 2.77
        return max(f_khz, 0.0) * 1e3
