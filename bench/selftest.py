"""Self-test for the benchmark.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json at the tiny scale, untraced and traced,
and checks that the result line carries exactly the metrics BENCHMARK.json
names, each with its unit and a finite value, and that no operation failed.
A second traced run must repeat the exact counts. Last, the benchmark must
exit non-zero without a result in a directory that holds only
BENCHMARK.json and the benchmark's files.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import EXACT_COUNTS, OUT, ROOT

BENCH = Path(__file__).resolve().parent
TIMEOUT_S = 300


def run(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / BENCH.name / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=TIMEOUT_S, cwd=root)


def result_of(proc):
    if proc.returncode != 0:
        raise ValueError(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def problems_in(result, specs):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0
            and isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"correct={result.get('correct')} attempted="
                        f"{result.get('attempted')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    expected = {spec["name"]: spec["unit"] for spec in specs}
    if set(metrics) != set(expected):
        problems.append(f"metrics missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        traced = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            try:
                result = result_of(run(workload, trace))
                problems = problems_in(result, spec[key])
            except (ValueError, subprocess.TimeoutExpired) as exc:
                problems = [str(exc)]
            else:
                if trace:
                    traced.append(result["metrics"])
            print(f"{'FAIL' if problems else 'PASS'} {workload} trace={trace}")
            failures += [f"{workload} trace={trace}: {p}" for p in problems]
        if len(traced) == 2:
            for name in EXACT_COUNTS:
                first, second = (m[name]["value"] for m in traced)
                if first != second:
                    failures.append(f"{workload}: {name} {first} then {second}")

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(spec["workloads"][0]["name"], 0, root=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"without src/: exit {proc.returncode}, "
                        f"stdout {proc.stdout.strip()[:200]!r}")
    print(f"{'PASS' if proc.returncode else 'FAIL'} exits {proc.returncode} without src/")
    shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"  {failure}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
