"""Self-check of the benchmark, on small models; run from the repository root:

    python3 bench/selfcheck.py

For every workload it runs the tiny mode untraced once and traced twice
with one seed, and requires that every output checks, that the printed
metrics and units are exactly those BENCHMARK.json declares, and that the
machine-independent search counters repeat exactly. Exits nonzero on the
first violation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEATABLE = ("engine.states_popped", "engine.explanations", "pha.unify.calls",
              "compile.clauses_out", "oracle.worlds")


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{workload} trace={trace}: outputs failed their checks\n{done.stderr}")
    return result["metrics"]


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    seed = 7
    for workload in WORKLOADS:
        timed = _run(workload, seed, 0)
        if {name: m["unit"] for name, m in timed.items()} != end_to_end:
            raise SystemExit(f"{workload}: end-to-end metrics {timed} differ from the declared")
        first, second = _run(workload, seed, 1), _run(workload, seed, 1)
        if {name: m["unit"] for name, m in first.items()} != per_layer:
            raise SystemExit(f"{workload}: per-layer metrics {first} differ from the declared")
        for name in REPEATABLE:
            if first[name]["value"] != second[name]["value"]:
                raise SystemExit(f"{workload}: {name} is {first[name]['value']} then "
                                 f"{second[name]['value']} with one seed")
        counters = ", ".join(f"{n}={first[n]['value']}" for n in REPEATABLE)
        print(f"{workload}: ok ({counters})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
