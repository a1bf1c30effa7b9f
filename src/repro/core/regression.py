"""The energy-breakdown regression (paper Section 2.5).

Input: power intervals — spans of constant power state with their measured
aggregate energy.  The solver:

1. groups intervals by identical power-state vector *j*, accumulating the
   energy ``E_j`` and time ``t_j`` spent in that vector;
2. forms the average aggregate power ``y_j = E_j / t_j`` and the weight
   ``w_j = sqrt(E_j * t_j)`` (confidence grows with both, and they are
   linearly dependent at constant power — hence the square root);
3. builds the binary design matrix ``X`` with one column per (sink, state)
   pair plus a constant column, and solves the weighted least squares
   ``Pi = (X^T W X)^{-1} X^T W Y``;
4. reports residuals ``eps = Y - X Pi`` and the relative error
   ``||Y - X Pi|| / ||Y||`` that the paper quotes (0.83 % for Table 2).

Identifiability is checked explicitly: unobserved columns are dropped
(reported), and a rank-deficient design (states that always co-occur —
the paper's "linear independence" limitation, Section 5.2) is reported
as aliased column groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.timeline import PowerInterval
from repro.errors import RegressionError

#: Supported weighting schemes (the ablation bench sweeps these).
WEIGHTINGS = ("sqrt_et", "none", "t", "e")


@dataclass(frozen=True)
class SinkColumn:
    """One design-matrix column: a (sink, state-value) pair."""

    res_id: int
    value: int
    name: str


def layout_from_tracker(tracker) -> list[SinkColumn]:
    """Build the column layout from a node's PowerStateTracker: one column
    per non-baseline state of every registered variable.  Binary on/off
    sinks get the bare sink name; multi-state sinks get ``sink.STATE``."""
    columns: list[SinkColumn] = []
    for var in tracker.all_vars():
        non_baseline = [
            value for value in sorted(var.state_names)
            if value != var.baseline_value
        ]
        for value in non_baseline:
            if len(non_baseline) == 1:
                name = var.name
            else:
                name = f"{var.name}.{var.state_names[value]}"
            columns.append(SinkColumn(var.res_id, value, name))
    return columns


@dataclass
class RegressionResult:
    """The solved breakdown."""

    columns: list[SinkColumn]
    power_w: dict[str, float]  # column name -> estimated power draw (W)
    const_power_w: float
    voltage: float
    y: np.ndarray  # observed mean power per grouped state (W)
    y_hat: np.ndarray  # reconstructed
    weights: np.ndarray
    group_states: list[tuple[tuple[int, int], ...]]
    group_time_ns: list[int]
    group_energy_j: list[float]
    dropped_columns: list[SinkColumn] = field(default_factory=list)
    aliased_groups: list[list[str]] = field(default_factory=list)
    weighting: str = "sqrt_et"

    @property
    def residuals(self) -> np.ndarray:
        return self.y - self.y_hat

    @property
    def relative_error(self) -> float:
        """``||Y - X Pi|| / ||Y||`` — the paper's Table 2 metric."""
        norm_y = float(np.linalg.norm(self.y))
        if norm_y == 0.0:
            return 0.0
        return float(np.linalg.norm(self.residuals)) / norm_y

    def current_ma(self, name: str) -> float:
        """Estimated current draw of a column in mA (at the supply V)."""
        return self.power_w[name] / self.voltage * 1e3

    @property
    def const_current_ma(self) -> float:
        return self.const_power_w / self.voltage * 1e3

    def power_of_states(self, states: Sequence[tuple[int, int]]) -> float:
        """Reconstruct the aggregate power (W) of a full state vector."""
        state_map = dict(states)
        total = self.const_power_w
        for column in self.columns:
            if state_map.get(column.res_id) == column.value:
                total += self.power_w[column.name]
        return total


def group_intervals(
    intervals: Iterable[PowerInterval],
    energy_per_pulse_j: float,
) -> tuple[list[tuple[tuple[int, int], ...]], list[int], list[float]]:
    """Group intervals by power-state vector; returns (vectors, t_ns, E_j)."""
    time_by_state: dict[tuple[tuple[int, int], ...], int] = {}
    energy_by_state: dict[tuple[tuple[int, int], ...], float] = {}
    for interval in intervals:
        key = interval.states
        time_by_state[key] = time_by_state.get(key, 0) + interval.dt_ns
        energy_by_state[key] = (
            energy_by_state.get(key, 0.0)
            + interval.energy_j(energy_per_pulse_j)
        )
    vectors = list(time_by_state)
    return (
        vectors,
        [time_by_state[v] for v in vectors],
        [energy_by_state[v] for v in vectors],
    )


def _make_weights(times_s: np.ndarray, energies: np.ndarray,
                  weighting: str) -> np.ndarray:
    if weighting == "sqrt_et":
        return np.sqrt(np.maximum(energies * times_s, 0.0))
    if weighting == "none":
        return np.ones_like(times_s)
    if weighting == "t":
        return times_s.copy()
    if weighting == "e":
        return energies.copy()
    raise RegressionError(f"unknown weighting {weighting!r}")


def solve_breakdown(
    intervals: Iterable[PowerInterval],
    layout: Sequence[SinkColumn],
    energy_per_pulse_j: float,
    voltage: float,
    weighting: str = "sqrt_et",
) -> RegressionResult:
    """Solve the weighted least-squares energy breakdown."""
    usable = list(intervals)
    if not usable:
        raise RegressionError("no usable power intervals")
    vectors, times_ns, energies = group_intervals(usable, energy_per_pulse_j)
    return solve_grouped(
        vectors, times_ns, energies, layout, voltage, weighting=weighting)


def solve_grouped(
    vectors: Sequence[tuple[tuple[int, int], ...]],
    times_ns: Sequence[int],
    energies: Sequence[float],
    layout: Sequence[SinkColumn],
    voltage: float,
    *,
    weighting: str = "sqrt_et",
) -> RegressionResult:
    """Solve the breakdown from already-grouped ``(E_j, t_j)`` inputs.

    This is the solver core behind :func:`solve_breakdown`; the columnar
    backend feeds it grouped sums computed straight off the interval
    columns (:meth:`repro.core.timeline.ColumnarTimeline.grouped_inputs`)
    without ever materializing :class:`PowerInterval` objects.  Given
    equal groups, the result is identical to the interval path's.
    """
    if not vectors:
        raise RegressionError("no grouped power states")

    times_s = np.array(times_ns, dtype=float) * 1e-9
    energy_arr = np.array(energies, dtype=float)
    y = energy_arr / times_s  # mean power per grouped state, watts

    # Design matrix: one column per layout entry that is actually observed
    # active in at least one group, plus the constant column.  The group
    # vectors are dict-ified once, not once per layout column.
    vector_maps = [dict(vector) for vector in vectors]
    observed_columns: list[SinkColumn] = []
    dropped: list[SinkColumn] = []
    column_data: list[np.ndarray] = []
    for column in layout:
        indicator = np.array(
            [
                1.0 if vector.get(column.res_id) == column.value else 0.0
                for vector in vector_maps
            ]
        )
        if indicator.any():
            observed_columns.append(column)
            column_data.append(indicator)
        else:
            dropped.append(column)

    n_rows = len(vectors)
    x = np.column_stack(column_data + [np.ones(n_rows)]) if column_data else \
        np.ones((n_rows, 1))
    weights = _make_weights(times_s, energy_arr, weighting)
    if not np.any(weights > 0):
        weights = np.ones_like(weights)
    sqrt_w = np.sqrt(weights)

    xw = x * sqrt_w[:, None]
    yw = y * sqrt_w

    # lstsq's effective rank doubles as the deficiency probe: with
    # ``rcond=None`` its cutoff is eps * max(M, N) * S.max() — the same
    # formula ``matrix_rank``'s default tolerance uses — so one SVD
    # serves both the solve and the aliasing diagnosis.
    solution, _residuals, rank, _sv = np.linalg.lstsq(xw, yw, rcond=None)
    aliased = (_find_aliased(x, observed_columns)
               if rank < x.shape[1] else [])
    y_hat = x @ solution

    power_w = {
        column.name: float(solution[i])
        for i, column in enumerate(observed_columns)
    }
    const_power = float(solution[-1])

    return RegressionResult(
        columns=observed_columns,
        power_w=power_w,
        const_power_w=const_power,
        voltage=voltage,
        y=y,
        y_hat=y_hat,
        weights=weights,
        group_states=list(vectors),
        group_time_ns=list(times_ns),
        group_energy_j=list(energies),
        dropped_columns=dropped,
        aliased_groups=aliased,
        weighting=weighting,
    )


def _find_aliased(x: np.ndarray, columns: Sequence[SinkColumn]) -> list[list[str]]:
    """Group columns with identical indicator patterns (always co-active),
    the concrete form of the paper's linear-independence limitation."""
    names = [column.name for column in columns] + ["Const."]
    signature_to_names: dict[bytes, list[str]] = {}
    for i, name in enumerate(names):
        signature = x[:, i].tobytes()
        signature_to_names.setdefault(signature, []).append(name)
    return [group for group in signature_to_names.values() if len(group) > 1]


def solve_from_currents(
    state_currents_ma: Sequence[tuple[Sequence[int], float]],
    column_names: Sequence[str],
) -> tuple[dict[str, float], float, float]:
    """Table 2 helper: regress scope-measured *currents* (mA) on binary
    state indicators plus a constant.

    ``state_currents_ma`` is a list of (indicator-vector, measured mA)
    rows, e.g. the eight LED states of Blink.  Returns (per-column mA,
    constant mA, relative error) exactly as the paper's Table 2 lays out.
    """
    if not state_currents_ma:
        raise RegressionError("no calibration rows")
    x = np.array([list(ind) + [1.0] for ind, _ in state_currents_ma],
                 dtype=float)
    y = np.array([current for _, current in state_currents_ma], dtype=float)
    solution, *_ = np.linalg.lstsq(x, y, rcond=None)
    y_hat = x @ solution
    norm_y = float(np.linalg.norm(y))
    rel_error = float(np.linalg.norm(y - y_hat)) / norm_y if norm_y else 0.0
    estimates = {
        name: float(solution[i]) for i, name in enumerate(column_names)
    }
    return estimates, float(solution[-1]), rel_error
