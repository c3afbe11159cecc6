"""Smoke test: scripts/worked_example.py runs end to end on the library API."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "worked_example.py"


def test_worked_example_main(capsys):
    spec = importlib.util.spec_from_file_location("worked_example", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert "tangent plane: ('3', '-2', '0', '5')" in out
    assert "tangent point: (17/4, 71/8) on fiber t = -1" in out
