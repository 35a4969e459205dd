"""The leafalg benchmark.

    python3 bench/run.py --workload {ideals,local,oracle} --seed N \\
        --seconds S --trace {0,1}

Runs the workload's CLI jobs (``leafalg.cli.main`` in this process,
stdout captured) in passes, each pass in an order shuffled by the seed,
until ``--seconds`` would be exceeded; one job starts when the previous
one returns (closed loop, one process, one thread).  Every job's output
is checked (see ``jobs.py``).  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end:
  pass_s        median seconds to run every job once
  job_gmean_ms  geometric mean over jobs of each job's median latency
  setup_s       median time of a fresh interpreter that imports
                leafalg and loads the workload's documents
                (these three are scaled by the machine's speed, measured
                by a fixed reference kernel run between jobs: see
                ``speed.py``; stderr has the raw pass times)
  peak_rss_mib  peak resident memory of this process after the passes
  ok_ratio      job executions whose exit code and output were right,
                over those attempted (1 - failed ratio)

With ``--trace 1`` passes alternate between untraced and traced ones,
the latter with spans around each module's public functions
(``spans.py``); the metrics are per layer.  Spans are written to
``.bench_build/leafalg/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time

import jobs as bench_jobs
from spans import TRACED, Tracer, summarize
from speed import Gauge

# fresh interpreters timed after each pass, so that set-up samples are
# spread over the run like the passes are
SETUP_PER_PASS = 3
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from leafalg import cli
for path in sys.argv[2:]:
    try:
        cli.load_input(path)
    except cli.InputError:
        pass
"""


class Tally:
    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed: dict[str, int] = {}

    def record(self, job, outcome):
        self.attempted += 1
        if not bench_jobs.is_correct(job, outcome, self.expected):
            self.failed[job.name] = self.failed.get(job.name, 0) + 1


def passes(seconds: float, min_passes: int):
    """Yield 0, 1, 2, ... until another pass as long as the last one
    would end past ``seconds``, and at least ``min_passes`` times."""
    began = time.perf_counter()
    k = 0
    while True:
        start = time.perf_counter()
        yield k
        k += 1
        now = time.perf_counter()
        if k >= min_passes and now - began + (now - start) > seconds:
            return


def run_pass(cli, jobs, rng, tally, gauge, tracer=None) -> list:
    """Run every job once, in an order shuffled by ``rng``, with the
    reference kernel sampled between jobs; return ``(job name, start,
    end)`` of each job."""
    index = {j.name: i for i, j in enumerate(jobs)}
    order = list(jobs)
    rng.shuffle(order)
    timed = []
    for job in order:
        if tracer:
            tracer.job = index[job.name]
        gauge.sample()
        start = time.perf_counter()
        outcome = bench_jobs.run_job(cli, job)
        timed.append((job.name, start, start + outcome.seconds))
        tally.record(job, outcome)
    gauge.sample()
    return timed


def time_setup(jobs, gauge) -> list:
    """Return ``(start, end)`` of fresh interpreters that each import
    leafalg and load every document of the workload."""
    docs = sorted({str(j.doc) for j in jobs})
    argv = [sys.executable, "-I", "-c", SETUP_CODE, str(bench_jobs.SRC), *docs]
    spans = []
    for _ in range(SETUP_PER_PASS):
        gauge.sample()
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        spans.append((start, time.perf_counter()))
    gauge.sample()
    return spans


def pass_seconds(gauge, timed) -> tuple:
    """Raw and scaled seconds of a pass: the sums over its jobs."""
    raw = sum(end - start for _, start, end in timed)
    return raw, sum(gauge.scaled(start, end) for _, start, end in timed)


def end_to_end(cli, jobs, rng, seconds, tally) -> dict:
    gauge = Gauge()
    runs, setups = [], []
    for _ in passes(seconds, 3):
        runs.append(run_pass(cli, jobs, rng, tally, gauge))
        setups += time_setup(jobs, gauge)
    raw_times, pass_times = zip(*(pass_seconds(gauge, timed) for timed in runs))
    latencies = {}
    for timed in runs:
        for name, start, end in timed:
            latencies.setdefault(name, []).append(gauge.scaled(start, end))
    gmean = math.exp(statistics.fmean(math.log(statistics.median(v)) for v in latencies.values()))
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = 1 - sum(tally.failed.values()) / tally.attempted
    print(
        f"{len(runs)} passes of {len(jobs)} jobs; raw pass s "
        f"{' '.join(f'{t:.3f}' for t in raw_times)}; scaled pass s "
        f"{' '.join(f'{t:.3f}' for t in pass_times)}; {len(gauge.times)} kernel "
        f"samples, median {statistics.median(gauge.times) * 1000:.4f} ms",
        file=sys.stderr,
    )
    return {
        "pass_s": (statistics.median(pass_times), "s"),
        "job_gmean_ms": (gmean * 1000, "ms"),
        "setup_s": (statistics.median(gauge.scaled(a, b) for a, b in setups), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "ok_ratio": (ok, "ratio"),
    }


def _per_pass(tracer, span_starts):
    bounds = span_starts + [len(tracer.spans)]
    return [summarize(tracer.spans[a:b]) for a, b in zip(bounds, bounds[1:])]


def per_layer(cli, jobs, rng, seconds, tally, trace_path) -> dict:
    tracer = Tracer()
    gauge = Gauge()
    plain, traced, span_starts = [], [], []
    for k in passes(seconds, 4):
        # untraced, traced, traced, untraced, ...: both kinds of pass see
        # the same drift of the machine's speed
        if k % 4 in (1, 2):
            span_starts.append(len(tracer.spans))
            tracer.install()
            try:
                traced.append(run_pass(cli, jobs, rng, tally, gauge, tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_pass(cli, jobs, rng, tally, gauge))
    tracer.write(trace_path, [j.name for j in jobs])
    plain = [pass_seconds(gauge, timed) for timed in plain]
    traced = [pass_seconds(gauge, timed) for timed in traced]
    summaries = _per_pass(tracer, span_starts)
    first = summaries[0]
    counts = [{k: v for k, v in p.items() if k != "self_s"} for p in summaries]
    if any(c != counts[0] for c in counts):
        print("warning: traced counts differ between passes", file=sys.stderr)

    def self_s(name):
        return statistics.median(p["self_s"].get(name, 0.0) for p in summaries)

    metrics = {}
    for module, names in TRACED.items():
        for fn in names:
            name = f"{module}.{fn}"
            metrics[f"{name}.calls"] = (first["calls"].get(name, 0), "count")
            metrics[f"{name}.self_s"] = (self_s(name), "s")
    colength_calls = first["calls"].get("groebner.colength_local", 0)
    metrics["groebner.buchberger.basis_elems"] = (first["basis_elems"], "count")
    metrics["groebner.colength_local.buchberger_per_call"] = (
        first["colength_buchberger"] / colength_calls if colength_calls else 0.0,
        "count",
    )
    metrics["linalg.rref.cells"] = (first["rref_cells"], "count")
    metrics["linalg.rref.max_cells"] = (first["rref_max_cells"], "count")
    metrics["linalg.rref.nonzero_share"] = (
        first["rref_nonzero"] / first["rref_cells"] if first["rref_cells"] else 0.0,
        "ratio",
    )
    metrics["trace.overhead_ratio"] = (
        statistics.median(s for _, s in traced) / statistics.median(s for _, s in plain),
        "ratio",
    )
    # self times are raw seconds, so they are set against raw pass times
    metrics["trace.self_share"] = (
        statistics.median(sum(p["self_s"].values()) / t for p, (t, _) in zip(summaries, traced)),
        "ratio",
    )
    print(f"{len(plain)} untraced and {len(traced)} traced passes", file=sys.stderr)
    return metrics


def measure(cli, jobs, rng, seconds, trace, trace_path) -> dict:
    """Run the jobs for ``seconds`` and return the result object."""
    tally = Tally(bench_jobs.load_expected())
    if trace:
        metrics = per_layer(cli, jobs, rng, seconds, tally, trace_path)
    else:
        metrics = end_to_end(cli, jobs, rng, seconds, tally)
    for name, count in sorted(tally.failed.items()):
        print(f"FAILED {name}: {count} time(s)", file=sys.stderr)
    failed = sum(tally.failed.values())
    return {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=bench_jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = bench_jobs.import_cli()
    rng = random.Random(args.seed)
    jobs = bench_jobs.workload_jobs(args.workload, rng)
    trace_path = bench_jobs.WORK / f"trace-{args.workload}-{args.seed}.json"
    print(json.dumps(measure(cli, jobs, rng, args.seconds, args.trace, trace_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
