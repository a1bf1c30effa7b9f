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


def ns(value: float) -> int:
    """Nanoseconds (identity, but rounds floats to the integer grid)."""
    return int(round(value))


def us(value: float) -> int:
    """Microseconds to integer nanoseconds."""
    return int(round(value * NS_PER_US))


def ms(value: float) -> int:
    """Milliseconds to integer nanoseconds."""
    return int(round(value * NS_PER_MS))


def seconds(value: float) -> int:
    """Seconds to integer nanoseconds."""
    return int(round(value * NS_PER_S))


def to_us(t_ns: int) -> float:
    """Integer nanoseconds to float microseconds."""
    return t_ns / NS_PER_US


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


def to_ma(amps: float) -> float:
    """Amps to milliamps."""
    return amps * 1e3


def mw(value: float) -> float:
    """Milliwatts to watts."""
    return value * 1e-3


def to_mw(watts: float) -> float:
    """Watts to milliwatts."""
    return watts * 1e3


def uj(value: float) -> float:
    """Microjoules to joules."""
    return value * 1e-6


def to_mj(joules: float) -> float:
    """Joules to millijoules."""
    return joules * 1e3


# ---------------------------------------------------------------------------
# Formatting helpers used by reports.
# ---------------------------------------------------------------------------

_TIME_STEPS = (
    (NS_PER_S, "s"),
    (NS_PER_MS, "ms"),
    (NS_PER_US, "us"),
    (1, "ns"),
)


def fmt_time(t_ns: int) -> str:
    """Render a nanosecond timestamp with a readable unit (e.g. '1.500 ms')."""
    for scale, suffix in _TIME_STEPS:
        if abs(t_ns) >= scale:
            return f"{t_ns / scale:.3f} {suffix}"
    return "0 ns"


def fmt_energy(joules: float) -> str:
    """Render an energy with a readable unit (e.g. '180.71 mJ')."""
    mag = abs(joules)
    if mag >= 1.0:
        return f"{joules:.3f} J"
    if mag >= 1e-3:
        return f"{joules * 1e3:.2f} mJ"
    if mag >= 1e-6:
        return f"{joules * 1e6:.2f} uJ"
    return f"{joules * 1e9:.2f} nJ"


def fmt_power(watts: float) -> str:
    """Render a power with a readable unit (e.g. '61.8 mW')."""
    mag = abs(watts)
    if mag >= 1.0:
        return f"{watts:.3f} W"
    if mag >= 1e-3:
        return f"{watts * 1e3:.3f} mW"
    return f"{watts * 1e6:.2f} uW"
