"""The benchmark harness keeps working against the library.

`bench/tracing.py` swaps names inside `pfta.engine` (`heapq`, `unify`,
the `bounds` property, `__next__`) and reads index 2 of every heap entry
it pops, so a rename there breaks the traced run; a name it asks for that
is gone (`rename_clause`) is reported as not traced.  The search counters
it reports are deterministic for a seed.  The search's heap holds its
priority levels, not its states, so its `engine.states_*` counters count
levels; `ExplanationSearch.stats` counts states.  The tracer's
`engine.explanations` counts `ExplanationSearch.__next__` calls, which no
analysis makes: cut sets filter the search's masks, and the cut-set counts
it once read are pinned in `tests/test_measures.py`.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced_tiny_metrics(workload: str) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", "1", "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result["metrics"]


def test_traced_tiny_exhaustive_scale_run_checks_and_counts():
    metrics = _traced_tiny_metrics("exhaustive-scale")
    # exhaustive unrel evaluates without a search: only mcs searches; the
    # counter counts levels popped (693 states, test_engine pins those)
    assert metrics["engine.states_popped"]["value"] == 74
    assert metrics["engine.explanations"]["value"] == 0


def test_traced_reference_run_checks_and_counts():
    # one pass of every analysis command on the paper's model; only cut
    # sets and bounded answers search, exact measures evaluate the stage-2
    # theory once per request
    metrics = _traced_tiny_metrics("reference")
    # levels popped (452 states)
    assert metrics["engine.states_popped"]["value"] == 65
    assert metrics["engine.explanations"]["value"] == 0
    assert metrics["compile.compile_disjoint.calls"]["value"] == 7
