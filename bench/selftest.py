"""Self-test of the benchmark, on two small jobs.

    python3 bench/selftest.py

Checks four things and exits 1 if any fails:
  1. a run's result has the schema of BENCHMARK.json, and the two jobs'
     outputs match their recorded digests;
  2. two traced runs give identical counts;
  3. output digests do not change with PYTHONHASHSEED (each seed runs
     a few jobs in a fresh interpreter);
  4. the workloads cover every CLI command and both error exits.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import jobs as bench_jobs
import run

SMALL = ["tjurina:fermat3", "verify-hp0:fermat3"]
HASH_PROBE = [
    "gb:cyclic4",
    "gb:katsura3:--order lex",
    "milnor:two_quadrics_c4",
    "tjurina:two_quadrics_c4",
    "strata:contact3",
    "leaves:plane_xdxdy:text",
    "verify-hp0:fermat3",
    "exceptional:cusp_fields",
]
HASH_SEEDS = ["0", "1", "2024"]


def named(names):
    table = {j.name: j for jobs in bench_jobs.NAMED.values() for j in jobs}
    return [table[n] for n in names]


def schema_errors(result: dict, declared: list) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append("attempted is not a positive integer")
    if not (isinstance(result.get("failed"), int) and isinstance(result.get("correct"), bool)):
        errors.append("failed is not an integer or correct is not a boolean")
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result.get("metrics", {})
    if set(metrics) != set(units):
        errors.append(f"metric names differ: {sorted(set(metrics) ^ set(units))}")
    for name, metric in metrics.items():
        if metric != {"value": metric.get("value"), "unit": units.get(name)}:
            errors.append(f"metric {name}: {metric}")
        elif not isinstance(metric["value"], (int, float)):
            errors.append(f"metric {name} is not a number")
    return errors


def digests_of(names) -> dict:
    cli = bench_jobs.import_cli()
    return {job.name: bench_jobs.digests(job, bench_jobs.run_job(cli, job)) for job in named(names)}


def main() -> int:
    if sys.argv[1:] == ["--digests"]:
        print(json.dumps(digests_of(HASH_PROBE)))
        return 0
    with open(bench_jobs.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    cli = bench_jobs.import_cli()
    jobs = named(SMALL)
    failures = []

    result = run.measure(cli, jobs, random.Random(0), 0, 0, None)
    failures += schema_errors(result, spec["end_to_end"])
    if not result["correct"]:
        failures.append(f"outputs differ from the recorded digests: {result}")

    counts = []
    for k in range(2):
        path = bench_jobs.WORK / f"trace-selftest-{k}.json"
        traced = run.measure(cli, jobs, random.Random(k), 0, 1, path)
        failures += schema_errors(traced, spec["per_layer"])
        counts.append({n: m["value"] for n, m in traced["metrics"].items() if m["unit"] == "count"})
    if counts[0] != counts[1]:
        failures.append(f"traced counts differ: {counts}")

    expected = bench_jobs.load_expected()
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        probe = subprocess.run(
            [sys.executable, __file__, "--digests"], env=env, check=True, capture_output=True, text=True
        )
        for name, digest in json.loads(probe.stdout).items():
            if digest != expected[name]:
                failures.append(f"PYTHONHASHSEED={seed}: {name} output changed")

    used = {j.argv[0] for jobs in bench_jobs.NAMED.values() for j in jobs}
    if set(cli.COMMANDS) - used:
        failures.append(f"commands in no workload: {sorted(set(cli.COMMANDS) - used)}")
    if not {1, 2} <= {digest["exit"] for digest in expected.values()}:
        failures.append("no job exercises exit code 1 or 2")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
