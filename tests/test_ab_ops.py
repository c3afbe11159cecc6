"""Smoke test of scripts/ab_ops.py: the working tree against itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_ops_runs_the_tree_against_itself():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_ops.py"), "--workload", "census",
         "--other", str(ROOT), "--inputs", "20"],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["inputs"] == 20 and report["differ"] == 0
    assert report["sources"]["this"] == report["sources"]["other"] == str(ROOT / "src" / "dp1")
    for tree in ("this", "other"):
        assert 0 < report[tree]["p50_ms"] <= report[tree]["p90_ms"]
