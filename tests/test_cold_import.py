"""Every ``dp1 …`` command pays for what ``import dp1, dp1.cli`` loads, so
the start-up path leaves out modules no command needs before it runs:
``dataclasses`` (which loads ``inspect``) and ``csv``, which only
``--format csv`` uses and imports on first use."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
KEPT_OUT = ("dataclasses", "inspect", "csv")


def modules_after(code: str) -> set:
    """The modules a fresh interpreter has loaded after running code, with
    ``-S`` so that no site hook of the host decides the result."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", f"{code}\nimport sys\nprint(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return set(out.split())


def test_cold_import_leaves_out_unused_modules():
    loaded = modules_after("import dp1, dp1.cli")
    assert {"dp1", "dp1.cli", "dp1.engine"} <= loaded
    assert sorted(set(KEPT_OUT) & loaded) == []


def test_guard_sees_each_module():
    assert set(KEPT_OUT) <= modules_after("import dp1, dp1.cli, dataclasses, csv")
