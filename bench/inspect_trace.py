"""Per-job view of a trace written by ``run.py --trace 1``.

    python3 bench/inspect_trace.py .bench_build/leafalg/trace-local-1.json tjurina:fermat6

Prints, for the first traced execution of the job, each function's calls
and self seconds, and the (rows, cols, nonzero) of every matrix given to
``rref``, in call order.
"""

import json
import sys

from spans import summarize


def first_execution(spans: list, job: int) -> list:
    """Spans of the job's first execution: those under its first root."""
    roots = [s for s in spans if s[2] == job and s[1] == 0]
    if not roots:
        raise SystemExit("no spans for that job")
    start, end = roots[0][4], roots[0][5]
    return [s for s in spans if s[2] == job and start <= s[4] and s[5] <= end]


def main():
    path, name = sys.argv[1:3]
    with open(path, encoding="utf-8") as handle:
        trace = json.load(handle)
    if name not in trace["jobs"]:
        raise SystemExit(f"unknown job {name!r}; the trace has: {', '.join(trace['jobs'])}")
    spans = first_execution(trace["spans"], trace["jobs"].index(name))
    summary = summarize(spans)
    for fn in sorted(summary["calls"]):
        print(f"{fn:45s} {summary['calls'][fn]:7d} calls {summary['self_s'][fn]:9.4f} s self")
    shapes = [tuple(s[6]) for s in sorted(spans, key=lambda s: s[4]) if s[3] == "linalg.rref"]
    if shapes:
        print("rref (rows, cols, nonzero):", shapes)


if __name__ == "__main__":
    main()
