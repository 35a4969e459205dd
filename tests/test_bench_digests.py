"""The named jobs of the benchmark, run through its own runner: exit code
and output digests must equal ``bench/expected.json``, so a change that
alters any printed basis, membership answer, stratum, colength, family,
derivation basis or coinvariant table fails here before the benchmark
runs."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from leafalg import cli

JOBS = Path(__file__).resolve().parent.parent / "bench" / "jobs.py"


def load_jobs():
    spec = importlib.util.spec_from_file_location("bench_jobs", JOBS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


jobs = load_jobs()


@pytest.mark.parametrize("job", jobs.NAMED["ideals"], ids=lambda job: job.name)
def test_ideals_job_output_matches_recorded_digests(job):
    outcome = jobs.run_job(cli, job)
    assert jobs.is_correct(job, outcome, jobs.load_expected()), (outcome.code, outcome.stderr)


@pytest.mark.parametrize(
    "job", jobs.NAMED["local"] + jobs.NAMED["oracle"], ids=lambda job: job.name
)
def test_local_and_oracle_job_output_matches_recorded_digests(job):
    outcome = jobs.run_job(cli, job)
    assert jobs.is_correct(job, outcome, jobs.load_expected()), (outcome.code, outcome.stderr)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_named_job_argv_parses(workload):
    # a command's flags may only narrow while no benchmark job passes them
    parser = cli.build_parser()
    for job in jobs.NAMED[workload]:
        flags = parser.parse_args(list(job.argv))
        assert flags.command == job.argv[0]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_seeded_jobs_pass_their_property_checks(workload, seed):
    # Bezout 16 for dense quadrics, Milnor-Orlik 64 for the quintic
    # surface, a matching oracle totalling 64 for the diagonal quintic
    for job in jobs.generated_jobs(workload, random.Random(seed)):
        outcome = jobs.run_job(cli, job)
        assert jobs.is_correct(job, outcome, jobs.load_expected()), (job.name, outcome.code, outcome.stderr)
