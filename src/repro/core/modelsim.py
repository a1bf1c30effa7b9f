"""A PowerTOSSIM-style model-based energy estimator (the baseline).

The paper positions Quanto against simulation/model approaches:
"PowerTOSSIM uses same-code simulation of TinyOS applications with power
state tracking, combined with a power model of the different peripheral
states ... it does not capture the variability common in real hardware
or operating environments" (§6).

This estimator is that baseline, built honestly: it consumes the *same*
power-state log Quanto records (so state tracking is identical) but
instead of metering it prices each state from a static model — the
Table 1 datasheet draws.  On hardware whose actual draws differ from the
datasheet (ours, like the paper's), the model-based answer is wrong in
proportion to that gap, while Quanto's regression recovers the actual
values.  The ``ablation_model_vs_meter`` experiment quantifies the gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.regression import SinkColumn
from repro.core.timeline import PowerInterval
from repro.errors import RegressionError
from repro.hw.catalog import NOMINAL_CATALOG, catalog_sink


@dataclass
class ModelEstimate:
    """The model-based breakdown."""

    energy_by_column_j: dict[str, float] = field(default_factory=dict)
    baseline_energy_j: float = 0.0
    total_j: float = 0.0
    time_by_column_ns: dict[str, int] = field(default_factory=dict)

    def energy_of(self, name: str) -> float:
        return self.energy_by_column_j.get(name, 0.0)


#: Maps a power-state column to the catalog entry that prices it.
#: The instrumented sink names don't always equal catalog names (the
#: radio var folds several catalog sinks), so the model needs this table
#: — itself a source of model-based error on real systems.
DEFAULT_MODEL_MAP: dict[str, tuple[str, str]] = {
    "CPU": ("CPU", "ACTIVE"),
    "LED0": ("LED0", "ON"),
    "LED1": ("LED1", "ON"),
    "LED2": ("LED2", "ON"),
    "Radio.VREG": ("RadioRegulator", "ON"),
    "Radio.IDLE": ("RadioControlPath", "IDLE"),
    "Radio.RX": ("RadioRxPath", "RX_LISTEN"),
    "Radio.TX": ("RadioTxPath", "TX_0dBm"),
    "Flash.STANDBY": ("ExternalFlash", "STANDBY"),
    "Flash.READ": ("ExternalFlash", "READ"),
    "Flash.WRITE": ("ExternalFlash", "WRITE"),
    "Flash.ERASE": ("ExternalFlash", "ERASE"),
    "ADC": ("ADC", "CONVERTING"),
    "VRef": ("VoltageReference", "ON"),
}


def model_based_estimate(
    intervals: Sequence[PowerInterval],
    layout: Sequence[SinkColumn],
    voltage: float,
    baseline_amps: float = 0.0,
) -> ModelEstimate:
    """Price every interval from the static model.

    ``baseline_amps`` is the model's guess at the constant floor — a
    PowerTOSSIM-style tool typically uses the MCU sleep draw from the
    datasheet (2.6 uA for LPM3), wildly below a real node's regulator
    quiescent current.
    """
    if not intervals:
        raise RegressionError("no intervals to price")
    mapping = DEFAULT_MODEL_MAP
    estimate = ModelEstimate()
    column_by_key = {(c.res_id, c.value): c for c in layout}
    for interval in intervals:
        dt_s = interval.dt_ns * 1e-9
        estimate.baseline_energy_j += baseline_amps * voltage * dt_s
        for res_id, value in interval.states:
            column = column_by_key.get((res_id, value))
            if column is None:
                continue  # baseline state of that sink
            entry = mapping.get(column.name)
            if entry is None:
                continue  # the model has no price for this state
            sink_name, state_name = entry
            amps = catalog_sink(sink_name).state(state_name).nominal_amps
            joules = amps * voltage * dt_s
            estimate.energy_by_column_j[column.name] = (
                estimate.energy_by_column_j.get(column.name, 0.0) + joules)
            estimate.time_by_column_ns[column.name] = (
                estimate.time_by_column_ns.get(column.name, 0)
                + interval.dt_ns)
    estimate.total_j = (
        sum(estimate.energy_by_column_j.values())
        + estimate.baseline_energy_j)
    return estimate
