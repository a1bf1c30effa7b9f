"""Every example script runs to completion: each ``examples/*.py``
``main()`` with stdout captured (``quanto_top`` in its in-process mode,
the default with no arguments)."""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples")
                  .glob("*.py"))


def test_every_example_is_listed():
    assert {path.stem for path in EXAMPLES} >= {"quickstart", "quanto_top"}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", [str(path)])
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.strip()
