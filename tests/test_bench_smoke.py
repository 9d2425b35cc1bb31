"""The benchmark harness keeps working against the library.

`bench/tracing.py` swaps names inside `pfta.engine` (`heapq`, `unify`,
`rename_clause`, the `bounds` property, `__next__`) and reads the goals
from heap-entry index 2, so a rename there breaks the traced run; the
search counters it reports are deterministic for a seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_tiny_exhaustive_scale_run_checks_and_counts():
    cmd = [sys.executable, "bench/run.py", "--workload", "exhaustive-scale", "--seed", "7",
           "--seconds", "1", "--trace", "1", "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["engine.states_popped"]["value"] == 4541
    assert metrics["engine.explanations"]["value"] == 473
