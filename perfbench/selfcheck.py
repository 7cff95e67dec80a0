"""Fast self-check of the benchmark at tiny sizes.

Runs every workload once untraced and once traced with ``--tiny``
(a tenth of every size, two rounds) and checks that the last line of
output names exactly the metrics ``BENCHMARK.json`` lists for that mode,
each with its declared unit and a finite value, and that every
correctness check passed.  Takes about ten seconds::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload: str, trace: int, declared: dict[str, str]) -> list[str]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
        "--seconds", "0", "--trace", str(trace), "--tiny",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} checks failed")
    metrics = result["metrics"]
    for name in sorted(set(declared) ^ set(metrics)):
        state = "missing" if name in declared else "undeclared"
        problems.append(f"{where}: metric {name} is {state}")
    for name, entry in metrics.items():
        if name in declared and entry["unit"] != declared[name]:
            problems.append(f"{where}: {name} unit {entry['unit']!r}, declared {declared[name]!r}")
        if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{where}: {name} value {entry['value']!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {
        0: {metric["name"]: metric["unit"] for metric in spec["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in spec["per_layer"]},
    }
    problems = []
    for workload in [entry["name"] for entry in spec["workloads"]]:
        for trace, declared in modes.items():
            found = check(workload, trace, declared)
            print(f"{workload:24s} trace={trace}  {'ok' if not found else 'FAILED'}", flush=True)
            problems.extend(found)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
