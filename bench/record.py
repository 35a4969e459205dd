"""Record the exit code and output digests of every named job in
``expected.json``.  Run it only at a commit whose outputs are trusted;
the benchmark then fails any job whose output differs.

    python3 bench/record.py
"""

import json

import jobs as bench_jobs


def main():
    cli = bench_jobs.import_cli()
    expected = {}
    for workload, jobs in bench_jobs.NAMED.items():
        for job in jobs:
            if job.name in expected:
                raise SystemExit(f"duplicate job name {job.name!r} in {workload}")
            expected[job.name] = bench_jobs.digests(job, bench_jobs.run_job(cli, job))
    with open(bench_jobs.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(expected)} jobs in {bench_jobs.EXPECTED}")


if __name__ == "__main__":
    main()
