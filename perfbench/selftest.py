#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes; run from the repository root:

    python3 perfbench/selftest.py

Checks that every workload runs traced and untraced with no failure, that
each metric BENCHMARK.json declares is printed with its unit, that a
corrupted output file makes failed_frac positive, and that the benchmark
refuses to run, without a result line, where there are no sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def metric_lines(lines, metrics) -> bool:
    """Every metric has a report line naming it and its unit."""
    return all(any(line.split()[:1] == [name] and line.split()[-1] == m["unit"]
                   for line in lines)
               for name, m in metrics.items())


def corrupt_model(wl) -> None:
    """Scale the fitted matrix by 1 + 1e-6: well-formed, but beyond the check's tolerance."""
    path = Path(wl.path("model.json"))
    model = json.loads(path.read_text())
    model["matrix"] = [[v * (1.0 + 1e-6) for v in row] for row in model["matrix"]]
    path.write_text(json.dumps(model))


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS),
           "BENCHMARK.json lists every workload")
    for name in run.workloads.WORKLOADS:
        for trace in (0, 1):
            lines, result = run.benchmark(name, seed=7, seconds=0, trace=trace, size="toy")
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={trace}: {result['attempted']} commands, none failed")
            expect(list(result["metrics"]) == [m["name"] for m in declared]
                   and metric_lines(lines, result["metrics"]),
                   f"{name} trace={trace}: every declared metric printed with its unit")
            if trace:
                accounted = result["metrics"]["trace.accounted_frac"]["value"]
                expect(abs(accounted - 1.0) < 1e-3,
                       f"{name}: self times account for the traced wall ({accounted:.6f})")

    lines, result = run.benchmark("fit-d256", seed=7, seconds=0, trace=0, size="toy",
                                  tamper=corrupt_model)
    frac = [line for line in lines if line.startswith("failed_frac")]
    expect(result["failed"] > 0 and not result["correct"] and frac
           and float(frac[0].split()[1]) > 0,
           f"a corrupted model.json makes failed_frac positive ({frac[0].split()[1]})")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "fit-d256",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(done.returncode != 0 and "correct" not in done.stdout,
           f"without sources it exits {done.returncode} and prints no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
