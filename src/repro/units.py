"""Time, energy, and electrical unit helpers.

The simulator runs on an integer nanosecond clock.  One CPU cycle on the
modeled MSP430F1611 at 1 MHz is exactly 1000 ns, so all cycle-denominated
costs convert to integer tick counts with no rounding.  Energies are plain
floats in joules, currents in amperes, and voltages in volts; the helpers
here exist so call sites read like the paper ("500 us", "8.33 uJ") instead
of bare exponents.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Time: integer nanoseconds.
# ---------------------------------------------------------------------------

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


def us(value: float) -> int:
    """Microseconds to integer nanoseconds."""
    return int(round(value * NS_PER_US))


def ms(value: float) -> int:
    """Milliseconds to integer nanoseconds."""
    return int(round(value * NS_PER_MS))


def seconds(value: float) -> int:
    """Seconds to integer nanoseconds."""
    return int(round(value * NS_PER_S))


def to_ms(t_ns: int) -> float:
    """Integer nanoseconds to float milliseconds."""
    return t_ns / NS_PER_MS


def to_s(t_ns: int) -> float:
    """Integer nanoseconds to float seconds."""
    return t_ns / NS_PER_S


# ---------------------------------------------------------------------------
# Electrical units: currents in amperes, energy in joules, power in watts.
# ---------------------------------------------------------------------------


def ua(value: float) -> float:
    """Microamps to amps."""
    return value * 1e-6


def ma(value: float) -> float:
    """Milliamps to amps."""
    return value * 1e-3


def to_mj(joules: float) -> float:
    """Joules to millijoules."""
    return joules * 1e3
