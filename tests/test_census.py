"""The line and option census (``tools/line_census.py``) on one fast
surface: what it charges is executable and where it belongs, and the
option scan sees the server's constructor as it is."""

import importlib.util
import sys
from pathlib import Path

from repro.experiments import run_experiment

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "line_census", ROOT / "tools" / "line_census.py")
census = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("line_census", census)
_spec.loader.exec_module(census)


def test_table1_surface_charges_its_own_lines():
    tracer = census.LineTracer()
    with tracer.charge("table1"):
        run_experiment("table1", seed=0).render()
    reached = tracer.reached["table1"]
    assert reached
    for module, lines in reached.items():
        executable = census.line_table(census.SRC / module)
        assert lines <= set(executable), module
    table = census.line_table(census.SRC / "experiments" / "table1.py")
    run_lines = {line for line, name in table.items() if name == "run"}
    assert run_lines
    assert run_lines <= reached["experiments/table1.py"]


def test_option_scan_sees_the_ingest_server_constructor():
    params = {option.name for option, _who in census.option_census()
              if option.kind == "param" and option.callable == "IngestServer"}
    assert {"retain", "state_dir", "checkpoint_bytes", "max_streams"} \
        <= params
    assert "queue_depth" not in params


def test_option_scan_follows_keywords_through_kwargs():
    who = {(option.callable, option.name): setter
           for option, setter in census.option_census()}
    # run_blink(**node_kwargs) -> NodeConfig; build_line_topology(
    # **app_kwargs) -> CollectionApp.
    assert who[("NodeConfig", "logger_mode")] == "product"
    assert who[("CollectionApp", "sample_period_ns")] == "product"
