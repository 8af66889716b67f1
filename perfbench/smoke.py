"""Smoke check for the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload listed in BENCHMARK.json at tiny sizes (``--tiny``),
untraced and traced, through the command BENCHMARK.json names.
Fails when a run exits non-zero, reports a failed or skipped correctness
check, or prints a metric set that differs from BENCHMARK.json in a name or
a unit.  Takes about a minute on two cores, most of it the cubic ordinary
table, which verify_tables does not accept below its largest stored entry.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    cmd = [*bench["command"], "--workload", workload, "--seed", "5", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-800:]}"]
    lines = proc.stdout.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])["run"]
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)}"]
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"incorrect: {info['failures']}")
    if info["checks_skipped"]:
        problems.append(f"checks skipped: {info['checks_skipped']}")
    want = {m["name"]: m["unit"] for m in bench["end_to_end" if trace == 0 else "per_layer"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    for name in sorted(want.keys() | got.keys()):
        if want.get(name) != got.get(name):
            problems.append(f"metric {name}: unit {got.get(name)!r}, "
                            f"BENCHMARK.json has {want.get(name)!r}")
        elif not isinstance(result["metrics"][name].get("value"), (int, float)):
            problems.append(f"metric {name}: value is not a number")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for wl in bench["workloads"]:
        for trace in (0, 1):
            problems = check_run(bench, wl["name"], trace)
            print(f"{'FAIL' if problems else 'ok  '} {wl['name']} --trace {trace}", flush=True)
            for p in problems:
                print(f"     {p}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
