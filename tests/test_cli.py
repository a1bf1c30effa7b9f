"""The command-line interface."""

import pytest

from repro.cli import EXPERIMENT_IDS, main


def test_list_names_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp_id in EXPERIMENT_IDS:
        assert exp_id in out


def test_experiment_command(capsys):
    assert main(["experiment", "table1"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out
    assert "Energy Sink" in out


def test_experiment_unknown_id(capsys):
    assert main(["experiment", "fig99"]) == 2


def test_blink_command(capsys):
    assert main(["blink", "--seconds", "8"]) == 0
    out = capsys.readouterr().out
    assert "1:Red" in out
    assert "accounting" in out


def test_blink_dump(capsys):
    assert main(["blink", "--seconds", "8", "--dump"]) == 0
    out = capsys.readouterr().out
    assert "powerstate" in out
    assert "boot" in out


@pytest.mark.parametrize("argv,message", [
    (["--seconds", "0"], "--seconds must be positive"),
    (["--seconds", "-1"], "--seconds must be positive"),
    (["--dump", "--dump-limit", "-5"], "--dump-limit must be 0 or more"),
])
def test_blink_refuses_bad_input(capsys, argv, message):
    assert main(["blink", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == message


def test_validate_command(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    # Blink's log is structurally clean; unbound-proxy info lines are
    # expected (the timer proxy never binds).
    assert "error" not in out.split("unbound-proxy")[0]


def test_experiment_ids_all_importable():
    import importlib

    for exp_id in EXPERIMENT_IDS:
        module = importlib.import_module(f"repro.experiments.{exp_id}")
        assert hasattr(module, "run")
