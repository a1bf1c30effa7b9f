"""Table 4: the costs of Quanto's logging.

The paper's cost model: 12-byte entries, an 800-sample RAM buffer, and
102 cycles per synchronous record at 1 MHz (41 call overhead + 19 timer
read + 24 iCount read + 18 other).  Section 4.4 then measures Blink:
597 log messages over 48 s, 60.71 ms of logging — 71.05 % of the active
CPU time but only 0.12 % of total CPU time — costing 0.41 mJ (0.08 % of
the total energy).

We print the cost model (it is the implemented model, so these equalities
are exact by construction) and then *measure* the same Blink-run numbers
in simulation, where the 102-cycle charges actually occupy the CPU.
"""

from __future__ import annotations

from repro.core.logger import (
    COST_CALL_OVERHEAD,
    COST_OTHER,
    COST_READ_ICOUNT,
    COST_READ_TIMER,
    COST_TOTAL,
    DEFAULT_BUFFER_ENTRIES,
    ENTRY_SIZE,
)
from repro.core.report import format_table, render_kv
from repro.experiments.common import ExperimentResult, run_blink
from repro.hw.mcu import CYCLE_NS
from repro.units import to_mj, to_s


def run(seed: int = 0) -> ExperimentResult:
    cost_table = format_table(
        ("item", "value"),
        [
            ("Buffer size", f"{DEFAULT_BUFFER_ENTRIES} samples"),
            ("Sample size", f"{ENTRY_SIZE} bytes"),
            ("Cost of logging", f"{COST_TOTAL} cycles @ 1 MHz"),
            ("  Call overhead", f"{COST_CALL_OVERHEAD} cycles"),
            ("  Read timer", f"{COST_READ_TIMER} cycles"),
            ("  Read iCount", f"{COST_READ_ICOUNT} cycles"),
            ("  Others", f"{COST_OTHER} cycles"),
        ],
        title="the cost model (as implemented)")

    node, app, sim = run_blink(seed)
    records = node.logger.records_written
    logging_ns = records * COST_TOTAL * CYCLE_NS
    active_ns = node.platform.mcu.total_active_time_ns
    total_ns = sim.now

    regression = node.regression()
    cpu_power_w = regression.power_w.get("CPU", 0.0)
    logging_energy_j = (
        (cpu_power_w + regression.const_power_w) * logging_ns * 1e-9)
    total_energy_j = node.platform.rail.energy()

    measured = render_kv("measured on the 48 s Blink run", [
        ("log messages", records),
        ("time spent logging", f"{logging_ns / 1e6:.2f} ms"),
        ("share of active CPU time",
         f"{100 * logging_ns / active_ns:.2f} %"),
        ("share of total CPU time",
         f"{100 * logging_ns / total_ns:.3f} %"),
        ("energy spent logging (CPU + const)",
         f"{to_mj(logging_energy_j):.2f} mJ"),
        ("share of total energy",
         f"{100 * logging_energy_j / total_energy_j:.3f} %"),
        ("RAM for the log", f"{records * ENTRY_SIZE} bytes"
                            f" ({records} entries)"),
    ])

    return ExperimentResult(
        exp_id="table4",
        title="Costs of logging to RAM",
        text="\n\n".join([cost_table, measured]),
        data={
            "records": records,
            "logging_ms": logging_ns / 1e6,
            "active_share_pct": 100 * logging_ns / active_ns,
            "total_share_pct": 100 * logging_ns / total_ns,
            "logging_energy_mj": to_mj(logging_energy_j),
            "energy_share_pct": 100 * logging_energy_j / total_energy_j,
        },
        comparisons=[
            ("log cost (cycles)", 102, COST_TOTAL),
            ("entry size (bytes)", 12, ENTRY_SIZE),
            ("Blink log messages / 48 s", 597, records),
            ("time logging (ms)", 60.71, logging_ns / 1e6),
            ("share of active CPU (%)", 71.05,
             100 * logging_ns / active_ns),
            ("share of total CPU (%)", 0.12, 100 * logging_ns / total_ns),
            ("logging energy (mJ)", 0.41, to_mj(logging_energy_j)),
            ("share of total energy (%)", 0.08,
             100 * logging_energy_j / total_energy_j),
        ],
    )
