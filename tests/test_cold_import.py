"""Every ``dp1 …`` command pays for what ``import dp1, dp1.cli`` loads, so
the start-up path leaves out modules no command needs before it runs:
``dataclasses`` (which loads ``inspect``) and ``csv``, which only
``--format csv`` uses and imports on first use.  Nor does it build the root
sieve's residue tables, which the first cubic root search builds."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
KEPT_OUT = ("dataclasses", "inspect", "csv")


def fresh(code: str) -> str:
    """What a fresh interpreter prints running code, with ``-S`` so that no
    site hook of the host decides the result."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout


def modules_after(code: str) -> set:
    """The modules a fresh interpreter has loaded after running code."""
    return set(fresh(f"{code}\nimport sys\nprint(' '.join(sys.modules))").split())


def test_cold_import_leaves_out_unused_modules():
    loaded = modules_after("import dp1, dp1.cli")
    assert {"dp1", "dp1.cli", "dp1.engine"} <= loaded
    assert sorted(set(KEPT_OUT) & loaded) == []


def test_guard_sees_each_module():
    assert set(KEPT_OUT) <= modules_after("import dp1, dp1.cli, dataclasses, csv")


def test_cold_import_builds_no_residue_table():
    # one table per sieve prime, built by the first cubic that reaches it:
    # x³ − 2 has a root mod 5 and none mod 7
    tables = "print(dp1.poly._depressed_roots.cache_info().currsize)"
    assert fresh(f"import dp1, dp1.cli\n{tables}").split() == ["0"]
    assert fresh(f"import dp1, dp1.cli\ndp1.poly.int_roots([-2, 0, 0, 1])\n{tables}"
                 ).split() == ["2"]
