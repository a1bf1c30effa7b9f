"""Shared experiment plumbing: results, standard runs, parameter hooks.

Besides the result type and the standard Blink run, this module is the
single place where experiments become *sweepable*: :func:`run_experiment`
loads an experiment by id, validates and coerces parameter overrides
against the experiment's own ``run()`` signature, and stamps the applied
parameters into the result header.  Experiments never need forking to
accept overrides — any keyword argument of ``run()`` with an int, float,
str, or bool default is automatically a sweepable parameter.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.core.report import format_table
from repro.errors import ExperimentParameterError
from repro.hw.platform import PlatformConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.tos.node import NodeConfig, QuantoNode
from repro.units import seconds

#: Every table/figure/extension module under ``repro.experiments``.
EXPERIMENT_IDS = (
    "table1", "table2", "table3", "table4", "table5",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "ablation_weighting", "ablation_logging", "ablation_noise",
    "ablation_proxies", "ablation_model_vs_meter",
    "ext_collection", "ext_txpower", "ext_deployment",
)

_TRUE_STRINGS = frozenset(("1", "true", "yes", "on"))
_FALSE_STRINGS = frozenset(("0", "false", "no", "off"))


def env_switch(name: str, default: bool) -> bool:
    """A ``REPRO_*`` on/off environment switch: unset or empty gives
    ``default``, ``0``/``off``/``no``/``false`` (any case) turn it off,
    anything else turns it on."""
    value = os.environ.get(name, "").strip().lower()
    if not value:
        return default
    return value not in _FALSE_STRINGS


@dataclass
class ExperimentResult:
    """What an experiment produces: rendered text plus raw data."""

    exp_id: str
    title: str
    text: str
    data: dict[str, Any] = field(default_factory=dict)
    comparisons: list[tuple[str, float, float]] = field(default_factory=list)
    # each comparison: (metric name, paper value, measured value)
    params: dict[str, Any] = field(default_factory=dict)
    # the (seed, overrides) the run was invoked with, when it went
    # through run_experiment(); rendered in the header for provenance.

    def render(self) -> str:
        parts = [f"== {self.exp_id}: {self.title} =="]
        if self.params:
            joined = " ".join(f"{k}={v}" for k, v in self.params.items())
            parts.append(f"-- params: {joined}")
        parts.append(self.text)
        if self.comparisons:
            rows = []
            for name, paper, measured in self.comparisons:
                if paper:
                    ratio = f"{measured / paper:.3f}"
                else:
                    ratio = "-"
                rows.append((name, f"{paper:g}", f"{measured:.4g}", ratio))
            parts.append("")
            parts.append(format_table(
                ("metric", "paper", "measured", "ratio"), rows,
                title="paper vs measured"))
        return "\n".join(parts)


@dataclass(frozen=True)
class SweepParam:
    """One sweepable parameter of an experiment's ``run()`` signature.

    ``choices`` (from the experiment module's ``PARAM_CHOICES``) closes
    the value set and ``minimum`` (from ``PARAM_MINIMUMS``) bounds it
    below: a grid with an unknown topology name or a one-node network
    fails at expansion time, before any worker is forked.
    """

    name: str
    kind: type
    default: Any
    choices: Optional[tuple[Any, ...]] = None
    minimum: Optional[Any] = None

    def parse(self, raw: Any) -> Any:
        """Coerce a raw (usually CLI string) value to the parameter type.

        Non-string values are type-checked rather than passed through, so
        programmatic overrides get the same fail-fast guarantee as CLI
        ones (``int`` is accepted where a ``float`` is expected; ``bool``
        is never accepted as an ``int``).
        """
        value = self._coerce(raw)
        if self.choices is not None and value not in self.choices:
            allowed = ", ".join(repr(choice) for choice in self.choices)
            raise ExperimentParameterError(
                f"parameter {self.name!r} must be one of {allowed}; "
                f"got {value!r}"
            )
        if self.minimum is not None and value < self.minimum:
            raise ExperimentParameterError(
                f"parameter {self.name!r} must be at least "
                f"{self.minimum}; got {value!r}"
            )
        return value

    def _coerce(self, raw: Any) -> Any:
        if not isinstance(raw, str):
            if self.kind is float and isinstance(raw, int) \
                    and not isinstance(raw, bool):
                return float(raw)
            if isinstance(raw, self.kind) and not (
                self.kind is int and isinstance(raw, bool)
            ):
                return raw
            raise ExperimentParameterError(
                f"parameter {self.name!r} expects {self.kind.__name__}, "
                f"got {type(raw).__name__} {raw!r}"
            )
        try:
            if self.kind is bool:
                lowered = raw.strip().lower()
                if lowered in _TRUE_STRINGS:
                    return True
                if lowered in _FALSE_STRINGS:
                    return False
                raise ValueError(f"not a boolean: {raw!r}")
            if self.kind is int:
                return int(raw, 0)  # accepts 0x… for masks and channels
            return self.kind(raw)
        except ValueError as exc:
            raise ExperimentParameterError(
                f"parameter {self.name!r} expects {self.kind.__name__}, "
                f"got {raw!r}"
            ) from exc


def load_experiment(exp_id: str):
    """Import an experiment module by id, validating the id."""
    if exp_id not in EXPERIMENT_IDS:
        raise ExperimentParameterError(
            f"unknown experiment {exp_id!r}; available: "
            + ", ".join(EXPERIMENT_IDS)
        )
    return importlib.import_module(f"repro.experiments.{exp_id}")


_PARAMS_CACHE: dict[str, dict[str, SweepParam]] = {}


def experiment_params(exp_id: str) -> dict[str, SweepParam]:
    """The sweepable parameters of one experiment.

    Derived from the experiment's ``run()`` signature: every keyword
    argument except ``seed`` whose default is an int, float, str, or bool
    is sweepable, typed by its default.  Experiments therefore opt in by
    declaring defaults — no registration step, no forked modules.  A
    module-level ``PARAM_CHOICES = {"topology": ("line", "star")}``
    closes a parameter's value set, and ``PARAM_MINIMUMS = {"nodes": 2}``
    bounds it below, both for pre-fork validation.

    Memoized per experiment: signatures are static, and a sweep calls
    this once per grid point (``inspect.signature`` is milliseconds —
    real money against a few-ms simulation).  The cached dict is shared;
    callers treat it as read-only (the values are frozen dataclasses).
    """
    cached = _PARAMS_CACHE.get(exp_id)
    if cached is not None:
        return cached
    module = load_experiment(exp_id)
    choices_map = getattr(module, "PARAM_CHOICES", {})
    minimums_map = getattr(module, "PARAM_MINIMUMS", {})
    params: dict[str, SweepParam] = {}
    for name, parameter in inspect.signature(module.run).parameters.items():
        if name == "seed" or parameter.default is inspect.Parameter.empty:
            continue
        default = parameter.default
        if isinstance(default, bool):
            kind: type = bool
        elif isinstance(default, (int, float, str)):
            kind = type(default)
        else:
            continue  # structured defaults are not sweepable from a grid
        choices = choices_map.get(name)
        params[name] = SweepParam(
            name=name, kind=kind, default=default,
            choices=tuple(choices) if choices is not None else None,
            minimum=minimums_map.get(name),
        )
    _PARAMS_CACHE[exp_id] = params
    return params


#: Parsed-override memo: a sweep resolves the same handful of override
#: combos once per point, and the validation + coercion walk is pure in
#: (exp_id, overrides).  Keys are the raw override items, so any change
#: of value re-parses; unhashable values just skip the memo.
_PARSED_OVERRIDES: OrderedDict[tuple, dict[str, Any]] = OrderedDict()
_PARSED_OVERRIDES_MAX = 256


def _resolve_overrides(exp_id: str,
                       overrides: Optional[dict[str, Any]]) -> dict[str, Any]:
    if not overrides:
        return {}
    try:
        memo_key = (exp_id, tuple(sorted(overrides.items())))
    except TypeError:
        memo_key = None  # unhashable value: parse fresh
    if memo_key is not None:
        cached = _PARSED_OVERRIDES.get(memo_key)
        if cached is not None:
            _PARSED_OVERRIDES.move_to_end(memo_key)
            # Rebuilt in the *caller's* key order: the memo key sorts
            # items so equivalent override dicts share one entry, but
            # result.params (and the rendered header) must follow each
            # call's own ordering, exactly as an unmemoized parse would.
            return {key: cached[key] for key in overrides}
    params = experiment_params(exp_id)
    kwargs: dict[str, Any] = {}
    for key, raw in overrides.items():
        param = params.get(key)
        if param is None:
            known = ", ".join(sorted(params)) or "(none)"
            raise ExperimentParameterError(
                f"experiment {exp_id!r} has no parameter {key!r}; "
                f"sweepable parameters: {known}"
            )
        kwargs[key] = param.parse(raw)
    if memo_key is not None:
        _PARSED_OVERRIDES[memo_key] = dict(kwargs)
        while len(_PARSED_OVERRIDES) > _PARSED_OVERRIDES_MAX:
            _PARSED_OVERRIDES.popitem(last=False)
    return kwargs


def run_experiment(
    exp_id: str,
    seed: int = 0,
    overrides: Optional[dict[str, Any]] = None,
) -> ExperimentResult:
    """Run one experiment with validated parameter overrides.

    ``overrides`` maps parameter names to values; string values are
    coerced to the parameter's type (so CLI ``--set key=value`` pairs can
    be passed through verbatim).  Unknown keys raise
    :class:`~repro.errors.ExperimentParameterError` naming the valid ones.
    The applied parameters are stamped into ``result.params`` and show up
    in the rendered header.  Validation and coercion are memoized per
    (experiment, override values) — a sweep pays them once per combo,
    not once per point.
    """
    module = load_experiment(exp_id)
    kwargs = _resolve_overrides(exp_id, overrides)
    result = module.run(seed=seed, **kwargs)
    result.params = {"seed": seed, **kwargs}
    return result


# -- warm-start world cache -------------------------------------------------

#: Env switch for the warm-start protocol (default on; set to 0/off/no to
#: force a cold construction per run, the reference behaviour).
WARM_START_ENV_VAR = "REPRO_WARM_START"

#: Constructed blink worlds, keyed by configuration signature.  A sweep
#: worker revisits the same handful of configurations (one per override
#: combo), so a small LRU holds the working set; each world's log buffer
#: is cleared on reset, so an idle cached world costs one run's log.
_BLINK_WORLDS: OrderedDict[tuple, tuple[Simulator, QuantoNode]] = \
    OrderedDict()
_BLINK_WORLDS_MAX = 8


def warm_start_enabled() -> bool:
    """Whether run_blink may reuse (reset) a cached world."""
    return env_switch(WARM_START_ENV_VAR, default=True)


def clear_warm_worlds() -> None:
    """Drop every cached world (tests use this to force cold paths)."""
    _BLINK_WORLDS.clear()


def _blink_world_key(node_id: int, node_kwargs: dict) -> Optional[tuple]:
    """A hashable signature of one blink-world configuration, or ``None``
    when the configuration is not warm-cacheable (a custom draw profile
    or any structured argument means we cannot prove value equality, so
    those runs always construct cold)."""
    items = []
    for key in sorted(node_kwargs):
        value = node_kwargs[key]
        if key == "platform":
            if type(value) is not PlatformConfig or value.profile is not None:
                return None
            fields = tuple(
                (f.name, getattr(value, f.name))
                for f in dataclasses.fields(PlatformConfig)
                if f.name != "profile"
            )
            items.append((key, fields))
        elif isinstance(value, (int, float, str)) or value is None:
            # bool is an int subclass; type name disambiguates 0 vs False.
            items.append((key, (type(value).__name__, value)))
        else:
            return None
    return (node_id, tuple(items))


# -- batched execution ------------------------------------------------------

#: The announced batch plan: the seeds of the points about to run, in
#: order.  Set by :func:`blink_batch_plan` (the sweep executor uses it);
#: consulted by :func:`run_blink`.
_BATCH_PLAN: Optional[tuple[int, ...]] = None

#: Configs already batch-simulated under the current plan (so a second
#: same-config ``run_blink`` call inside one experiment run falls back
#: to the serial path instead of re-simulating the whole chunk).
_BATCH_DONE: set = set()

#: Simulated-but-not-yet-consumed batch worlds: ``(key, duration, seed)
#: -> (node, app, sim)``.  Entries are popped when their point runs.
_BATCH_POOL: "OrderedDict[tuple, tuple]" = OrderedDict()
_BATCH_POOL_MAX = 64

#: World objects constructed for batching, per config key — the batch
#: path's analogue of ``_BLINK_WORLDS``: reset and re-run chunk after
#: chunk (warm start), never shared with the serial cache.
_BATCH_WORLDS_BY_KEY: "OrderedDict[tuple, list]" = OrderedDict()
_BATCH_WORLDS_MAX_KEYS = 2


@contextmanager
def blink_batch_plan(seeds: Iterable[int]):
    """Announce the seeds of the points about to run.

    Inside the context, the first ``run_blink`` call whose seed heads
    the plan simulates *all* planned seeds for its configuration as one
    interleaved batch (:class:`~repro.sim.batch.BatchSimulator`) and
    pools the results; each later same-config call pops its own world
    from the pool.  Configurations that never match the plan — or
    experiments that never call ``run_blink`` — run serially, so the
    plan is always safe to announce.
    """
    global _BATCH_PLAN
    previous, previous_done = _BATCH_PLAN, set(_BATCH_DONE)
    _BATCH_PLAN = tuple(int(seed) for seed in seeds)
    _BATCH_DONE.clear()
    try:
        yield
    finally:
        _BATCH_PLAN = previous
        _BATCH_DONE.clear()
        _BATCH_DONE.update(previous_done)


def clear_batch_worlds() -> None:
    """Drop pooled batch results and cached batch worlds (tests)."""
    _BATCH_POOL.clear()
    _BATCH_WORLDS_BY_KEY.clear()
    _BATCH_DONE.clear()


def _run_blink_batch(
    seeds: tuple[int, ...],
    duration_ns: int,
    node_id: int,
    node_kwargs: dict,
    key: tuple,
) -> None:
    """Simulate every planned seed for one configuration as a batch and
    pool the finished worlds.

    The K worlds run interleaved on one shared calendar queue; each
    world's schedule, rng streams, and log are bit-identical to its
    serial run (``tests/test_batched.py`` gates this per experiment).
    Afterwards the K logs are decoded in one fused pass
    (:func:`repro.core.logger.decode_batch`), so each point's analysis
    starts from already-decoded columns without materializing
    ``raw_bytes``.
    """
    from repro.apps.blink import BlinkApp
    from repro.core.logger import decode_batch
    from repro.sim.batch import BatchSimulator

    # Reclaim this config's worlds: pooled siblings from an abandoned
    # earlier plan are dropped (a late request falls back serial).
    for pool_key in [k for k in _BATCH_POOL if k[0] == key]:
        del _BATCH_POOL[pool_key]
    reuse = warm_start_enabled()
    stock = _BATCH_WORLDS_BY_KEY.get(key, []) if reuse else []
    worlds = []
    for seed in seeds:
        if stock:
            sim, node = stock.pop()
            node.reset(seed)
        else:
            sim = Simulator()
            node = QuantoNode(
                sim, NodeConfig(node_id=node_id, **node_kwargs),
                rng_factory=RngFactory(seed),
            )
        worlds.append((sim, node))
    batch = BatchSimulator([sim for sim, _ in worlds])
    batch.attach()
    apps = []
    for _, node in worlds:
        app = BlinkApp()
        node.boot(app.start)
        apps.append(app)
    batch.run(until=duration_ns)
    batch.detach()
    for _, node in worlds:
        node.mark_log_end()
    decode_batch([node.logger for _, node in worlds])
    for (sim, node), app, seed in zip(worlds, apps, seeds):
        _BATCH_POOL[(key, duration_ns, seed)] = (node, app, sim)
        while len(_BATCH_POOL) > _BATCH_POOL_MAX:
            _BATCH_POOL.popitem(last=False)
    if reuse:
        _BATCH_WORLDS_BY_KEY[key] = [
            (sim, node) for sim, node in worlds]
        _BATCH_WORLDS_BY_KEY.move_to_end(key)
        while len(_BATCH_WORLDS_BY_KEY) > _BATCH_WORLDS_MAX_KEYS:
            _BATCH_WORLDS_BY_KEY.popitem(last=False)


def run_blink(
    seed: int = 0,
    duration_ns: int = seconds(48),
    node_id: int = 1,
    **node_kwargs,
) -> tuple[QuantoNode, "BlinkApp", Simulator]:
    """The standard 48-second Blink run used by several experiments.

    Warm start: with ``$REPRO_WARM_START`` unset (or truthy), the
    simulator + node world for a given configuration is constructed once
    per process and *reset* per ``(seed)`` instead of rebuilt — module
    setup, hardware models, and registries are reused; all run state is
    rewound.  Reset and rebuild are digest-for-digest equivalent
    (``tests/test_warm_start.py``), so results are bit-identical either
    way; a sweep worker just skips the per-point construction cost.

    Aliasing contract: a warm hit returns the *same* node/sim objects a
    previous same-configuration call returned, reset.  Capture whatever
    you need from a run (bytes, maps, numbers) before calling run_blink
    again with the same configuration — or disable warm start to hold
    several live worlds side by side.
    """
    from repro.apps.blink import BlinkApp

    batch_key = _blink_world_key(node_id, node_kwargs)
    if batch_key is not None:
        pooled = _BATCH_POOL.pop((batch_key, duration_ns, seed), None)
        if pooled is not None:
            return pooled
        plan = _BATCH_PLAN
        if plan is not None and len(plan) > 1 and plan[0] == seed:
            done_key = (batch_key, duration_ns)
            if done_key not in _BATCH_DONE:
                _BATCH_DONE.add(done_key)
                _run_blink_batch(plan, duration_ns, node_id,
                                 node_kwargs, batch_key)
                pooled = _BATCH_POOL.pop(
                    (batch_key, duration_ns, seed), None)
                if pooled is not None:
                    return pooled

    node = None
    key = batch_key if warm_start_enabled() else None
    if key is not None:
        world = _BLINK_WORLDS.get(key)
        if world is not None:
            sim, node = world
            _BLINK_WORLDS.move_to_end(key)
            node.reset(seed)
    if node is None:
        sim = Simulator()
        node = QuantoNode(
            sim, NodeConfig(node_id=node_id, **node_kwargs),
            rng_factory=RngFactory(seed),
        )
        if key is not None:
            _BLINK_WORLDS[key] = (sim, node)
            while len(_BLINK_WORLDS) > _BLINK_WORLDS_MAX:
                _BLINK_WORLDS.popitem(last=False)
    app = BlinkApp()
    node.boot(app.start)
    sim.run(until=duration_ns)
    return node, app, sim


def lanes_for(
    node: QuantoNode,
    timeline,
    res_ids: dict[str, int],
    t0_ns: int,
    t1_ns: int,
    hide_idle: bool = True,
):
    """Build Figure-11/12-style lane segments (component -> painted spans)
    from a node's timeline, for :func:`repro.core.report.render_lanes`."""
    from repro.core.report import LaneSegment

    lanes: dict[str, list] = {}
    idle_name = node.registry.name_of(node.idle)
    for lane_name, res_id in res_ids.items():
        segments = []
        for seg in timeline.activity_segments(res_id):
            if seg.t1_ns < t0_ns or seg.t0_ns > t1_ns:
                continue
            name = node.registry.name_of(seg.label)
            if hide_idle and name == idle_name:
                continue
            segments.append(LaneSegment(seg.t0_ns, seg.t1_ns, name))
        lanes[lane_name] = segments
    return lanes


def network_sweep_data(report) -> dict:
    """Fleet-aggregable statistics from a network-wide energy report.

    Every leaf is numeric, so a sweep over a node-count or topology grid
    turns each of these into a mean/stddev/CI row: the network total,
    each activity's per-node spread (``spread_mj.<activity>.n<node>``),
    how many nodes each activity's cost touched, and the remote
    fraction (the butterfly effect) for every origin-labelled activity.
    """
    from repro.units import to_mj

    return {
        "network_total_mj": to_mj(report.total_j),
        "spread_mj": {
            activity: {
                f"n{node_id}": to_mj(joules)
                for node_id, joules in sorted(nodes.items())
            }
            for activity, nodes in sorted(report.spread.items())
        },
        "nodes_touched": {
            activity: len(nodes)
            for activity, nodes in sorted(report.spread.items())
        },
        "remote_fraction": dict(sorted(report.remote_fractions().items())),
    }


def truth_current_ma(node: QuantoNode, sink: str, state: str) -> float:
    """Ground-truth draw of one sink state, in mA — used only to *score*
    estimates, never by the estimation pipeline."""
    return node.platform.profile.current(sink, state) * 1e3


def truth_baseline_ma(node: QuantoNode) -> float:
    """Ground-truth always-on floor in mA (plus MCU sleep leakage)."""
    profile = node.platform.profile
    sleep = profile.current("CPU", node.config.platform.sleep_state)
    return (profile.baseline_amps + sleep) * 1e3
