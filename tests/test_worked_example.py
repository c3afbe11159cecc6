"""Smoke test: scripts/worked_example.py runs end to end on the library API."""

import importlib.util
from pathlib import Path

import pytest

from dp1.elliptic import ECPoint

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "worked_example.py"


def load_script():
    spec = importlib.util.spec_from_file_location("worked_example", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_worked_example_main(capsys):
    load_script().main()
    out = capsys.readouterr().out
    assert ('cubic model singularities: {"locus": "[0:\\u00b11:1:0]", "sqrt_c": "rational", '
            '"type": "2xA2", "identity_verified": true}') in out
    assert 'singular fibers: {"z12_coefficient": "-432", "multiplicity_at_infinity": 0, ' in out
    assert "tangent plane: ('3', '-2', '0', '5')" in out
    assert "tangent point: (17/4, 71/8) on fiber t = -1" in out


def test_worked_example_names_a_wrong_tangent_point(monkeypatch):
    # a plain exit, not an assert, so that python -O keeps the check
    module = load_script()
    monkeypatch.setattr(module, "tangent_point",
                        lambda S, E, P: ((-1, 1), ECPoint((17, 4), (-71, 8))))
    with pytest.raises(SystemExit, match=r"tangent point mismatch: got \(17/4, -71/8\)"):
        module.main()


@pytest.mark.parametrize("name, change, message", [
    ("classify_singularities", {"type": "A5"}, r"classify mismatch: got \{'locus'"),
    ("classify_singularities", {"locus": "[0:±√(1):1:0]"}, "classify mismatch"),
    ("classify_singularities", {"identity_verified": False}, "classify mismatch"),
    ("singular_fiber_report", {"z12_coefficient": "432"}, r"fibers mismatch: got \{'z12_coefficient'"),
    ("singular_fiber_report", {"total_multiplicity": 11}, "fibers mismatch"),
    ("singular_fiber_report", {"factors": []}, "fibers mismatch"),
], ids=["type", "locus", "identity", "z12", "total", "factors"])
def test_worked_example_names_a_wrong_report(monkeypatch, name, change, message):
    module = load_script()
    right = getattr(module, name)
    monkeypatch.setattr(module, name, lambda S: dict(right(S), **change))
    with pytest.raises(SystemExit, match=message):
        module.main()
