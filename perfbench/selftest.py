#!/usr/bin/env python3
"""Quick self-test of the benchmark, at a tiny size (n=128).

Usage: python3 perfbench/selftest.py

For every workload and both ``--trace`` values it runs ``run.py --tiny``
for one second and checks that the result line has exactly the contract's
keys, that the outputs were correct, and that every metric named in
``BENCHMARK.json`` is emitted with its unit and nothing else.  It also
checks that ``mean_rate`` equals what ``run_pipeline``/``run_baseline``
return for the same runs, and that the benchmark fails without printing a
result when the package sources are absent.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def fail(msg: str) -> None:
    print(f"selftest FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def check_mean_rate(workload: str, mean_rate: float) -> None:
    sys.path.insert(0, str(HERE))
    import workloads

    details = json.loads((HERE / "out" / f"{workload}-seed{SEED}-trace0-tiny.json").read_text())["details"]
    wl = workloads.build(workload, tiny=True)
    rates = [r.rate for row in wl.rows for r in row.run(details["base_seed"], details["ops"], 1)]
    if statistics.fmean(rates) != mean_rate:
        fail(f"{workload}: mean_rate {mean_rate} != {statistics.fmean(rates)} from the public API")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run_bench(ROOT, w["name"], trace)
            if proc.returncode != 0:
                fail(f"{w['name']} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{w['name']} trace={trace}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{w['name']} trace={trace}: {result['correct']=} {result['failed']=}\n{proc.stderr}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                fail(f"{w['name']} trace={trace}: metrics {got} != {wanted[trace]}")
            if not all(isinstance(m["value"], float) for m in result["metrics"].values()):
                fail(f"{w['name']} trace={trace}: a metric value is not a number")
            if trace == 0:
                check_mean_rate(w["name"], result["metrics"]["mean_rate"]["value"])
            print(f"ok  {w['name']} trace={trace}")

    # Only BENCHMARK.json and the benchmark's files, no package sources.
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = run_bench(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without sources the benchmark exited {proc.returncode} and printed {proc.stdout!r}")
    print("ok  fails without the package sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
