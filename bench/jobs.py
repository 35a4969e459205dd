"""Workloads of the leafalg benchmark: which CLI jobs run, on which
documents, and how each job's output is checked.

A job is one ``leafalg`` command line.  Named jobs run on the committed
documents under ``bench/corpus`` and are checked against the exit code
and output digests recorded in ``bench/expected.json``.  Generated jobs
run on documents drawn from the benchmark seed and are checked by
closed-form properties that do not come from the code under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = BENCH / "corpus"
EXPECTED = BENCH / "expected.json"
# git-ignored directory inside the checkout: generated documents and traces
WORK = ROOT / ".bench_build" / "leafalg"


def import_cli():
    """Import ``leafalg.cli`` from this checkout's sources, and from
    nowhere else; raise SystemExit when the sources are missing."""
    if not (SRC / "leafalg" / "cli.py").is_file():
        raise SystemExit(f"bench: no leafalg sources at {SRC / 'leafalg'}")
    sys.path.insert(0, str(SRC))
    from leafalg import cli

    if Path(cli.__file__).resolve().parent != SRC / "leafalg":
        raise SystemExit(f"bench: imported leafalg from {cli.__file__}, not from {SRC}")
    return cli


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    doc: Path
    # property check on (exit code, stdout) for a generated instance;
    # None means "compare with the recorded digests"
    check: Callable[[int, str], bool] | None = None


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    stderr: str
    seconds: float


def run_job(cli, job: Job) -> Outcome:
    """One CLI invocation in this process, stdout and stderr captured.
    The time covers argv parsing, loading, computing and rendering."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(job.argv))
        except Exception:
            # an uncaught exception fails the job, not the benchmark
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), seconds)


def digests(job: Job, outcome: Outcome) -> dict:
    """Exit code and SHA-256 of stdout and stderr, with the document
    path (echoed in the JSON report's ``input`` field) replaced."""
    path = str(job.doc)
    stdout = outcome.stdout.replace(json.dumps(path), '"<input>"')
    stderr = outcome.stderr.replace(path, "<input>")
    return {
        "exit": outcome.code,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(stderr.encode()).hexdigest(),
    }


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def is_correct(job: Job, outcome: Outcome, expected: dict) -> bool:
    if job.check is None:
        return expected.get(job.name) == digests(job, outcome)
    try:
        return job.check(outcome.code, outcome.stdout)
    except (ValueError, KeyError, TypeError, AttributeError):
        return False  # output that is not the expected report


# -- named jobs --------------------------------------------------------


def _job(command: str, doc: str, *extra: str, text: bool = False) -> Job:
    path = CORPUS / f"{doc}.json"
    parts = [command, doc]
    if extra:
        parts.append(" ".join(extra))
    if text:
        parts.append("text")
    fmt = () if text else ("--format", "json")
    return Job(":".join(parts), (command, "-i", str(path), *extra, *fmt), path)


ADE_CURVES = ["a2", "a3", "a5", "d4", "d5", "d6", "e6", "e7", "e8"]
SINGULARITIES = (
    [f"fermat{n}" for n in range(3, 7)]
    + [f"{c}_curve" for c in ADE_CURVES]
    + ["e8_surface", "nqh_curve_5", "nqh_curve_9"]
)

NAMED = {
    # Few, large Buchberger calls; no linear algebra except the small
    # Lie closure in front of the vector-field strata.
    "ideals": [
        _job("gb", "cyclic4"),
        _job("gb", "cyclic4", text=True),
        _job("gb", "cyclic5"),
        _job("gb", "katsura3"),
        _job("gb", "katsura3", "--order", "lex"),
        _job("gb", "katsura4"),
        _job("member", "katsura4", "-f", "u0^3 - u4^2"),
        _job("member", "katsura4", "-f", "u0*u0 + 2*u1*u1 + 2*u2*u2 + 2*u3*u3 + 2*u4*u4 - u0"),
        _job("strata", "so3_squares"),
    ],
    # Many small Buchberger calls: the I + m^N loop of colength_local,
    # plus every cheap command, both output formats and both error exits.
    "local": (
        [_job(c, s) for s in SINGULARITIES for c in ("milnor", "tjurina", "gap")]
        + [_job(c, "fermat3", text=True) for c in ("milnor", "tjurina", "gap")]
        + [
            _job("milnor", "two_quadrics_c4"),
            _job("milnor", "two_quadrics_c4", text=True),
            _job("tjurina", "two_quadrics_c4"),  # exit 1: non-isolated
            _job("milnor", "malformed"),  # exit 2: unparsable polynomial
            _job("hp0", "fermat4"),
            _job("hp0", "e8_surface", text=True),
            _job("bracket", "fermat3", "-f", "x", "-g", "y"),
            _job("bracket", "contact3", "-f", "x", "-g", "y"),
            _job("bracket", "plane_xdxdy", "-f", "x", "-g", "y", text=True),
            _job("hamvec", "fermat3", "-f", "x"),
            _job("hamvec", "contact3", "-f", "y", text=True),
            _job("hamvec", "plane_xdxdy", "-f", "y"),
            _job("degenerate", "fermat4"),
            _job("degenerate", "fermat4", text=True),
            _job("leaves", "plane_xdxdy"),
            _job("leaves", "plane_xdxdy", text=True),
            _job("leaves", "fermat3"),
            _job("strata", "fermat3"),
            _job("strata", "plane_xdxdy", text=True),
            _job("strata", "contact3"),
            _job("sympower", "e8_curve"),
            _job("sympower", "fermat3", text=True),
        ]
    ),
    # Exact linear algebra over one fixed basis: dense Fraction rref and
    # thousands of normal forms; Buchberger is nearly absent.
    "oracle": [
        _job("verify-hp0", "fermat3"),
        _job("verify-hp0", "fermat4"),
        _job("verify-hp0", "fermat5"),
        _job("verify-hp0", "e8_curve"),
        _job("verify-hp0", "e8_surface"),
        _job("verify-hp0", "e8_surface", text=True),
        _job("coinv", "fermat4", "--max-degree", "6"),
        _job("coinv", "fermat4", "--family", "derivations", "--max-degree", "6"),
        _job("coinv", "e8_curve", text=True),
        _job("derivations", "fermat4"),
        _job("derivations", "two_quadrics_c4"),
        _job("sym2-brute", "fermat3", "--max-degree", "4"),
        _job("sym2-brute", "a5_curve", text=True),
        _job("incompressible", "fermat3"),
        _job("incompressible", "line_fields", "--max-degree", "2"),
        _job("incompressible", "line_fields", "--max-degree", "2", text=True),
        _job("exceptional", "cusp_fields"),
        _job("exceptional", "fermat3"),
        _job("exceptional", "cusp_fields", text=True),
        _job("hamgen", "fermat3"),
        _job("hamgen", "fermat4"),
        _job("hamgen", "e8_curve", text=True),
    ],
}

WORKLOADS = tuple(NAMED)


# -- generated jobs and their independent checks -------------------------


def _nonzero(rng: random.Random, bound: int = 9) -> int:
    return rng.choice([c for c in range(-bound, bound + 1) if c])


def _signed_sum(terms) -> str:
    text = " + ".join(f"{c}*{m}" if m else str(c) for c, m in terms)
    return text.replace("+ -", "- ")


def _write_doc(name: str, doc: dict) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def _json_job(command: str, name: str, doc: dict, check, *extra: str) -> Job:
    path = _write_doc(name, doc)
    argv = (command, "-i", str(path), *extra, "--format", "json")
    return Job(f"{command}:{name}", argv, path, check)


def _result(code: int, stdout: str):
    return json.loads(stdout)["result"] if code == 0 else None


def _parse_monomial(text: str, variables) -> tuple:
    expo = [0] * len(variables)
    for factor in text.split("*"):
        if factor[0].isdigit():
            continue
        name, _, power = factor.partition("^")
        expo[variables.index(name)] += int(power or 1)
    return tuple(expo)


def _grevlex_leading(poly: str, variables) -> tuple:
    """Leading monomial of a printed polynomial under graded reverse
    lexicographic order (all weights 1)."""
    monos = [_parse_monomial(t.strip(), variables) for t in poly.replace(" - ", " + ").lstrip("-").split(" + ")]
    return max(monos, key=lambda m: (sum(m), tuple(-e for e in reversed(m))))


def standard_monomial_count(basis: list, variables) -> int | None:
    """Monomials outside the leading-term ideal of a printed Groebner
    basis (None when that quotient is infinite)."""
    leads = [_grevlex_leading(p, variables) for p in basis]
    caps = []
    for i in range(len(variables)):
        pure = [m[i] for m in leads if m[i] and sum(m) == m[i]]
        if not pure:
            return None
        caps.append(min(pure))
    box = itertools.product(*(range(cap) for cap in caps))
    return sum(not any(all(a <= b for a, b in zip(lead, m)) for lead in leads) for m in box)


QUADRIC_VARS = ["x", "y", "z", "w"]


def _dense_quadrics(rng: random.Random) -> dict:
    """Four dense quadrics in four variables.  Generic coefficients give
    2^4 = 16 points counted with multiplicity (Bezout), hence 16
    standard monomials."""
    v = QUADRIC_VARS
    monos = [f"{a}*{b}" for i, a in enumerate(v) for b in v[i:]] + v + [""]
    ideal = [_signed_sum((_nonzero(rng), m) for m in monos) for _ in range(4)]
    return {"ring": {"vars": v, "weights": [1, 1, 1, 1]}, "ideal": ideal}


def _bezout_check(code: int, stdout: str) -> bool:
    result = _result(code, stdout)
    return result is not None and standard_monomial_count(result["basis"], QUADRIC_VARS) == 16


def _quintic_surface(rng: random.Random) -> dict:
    """c1 x^5 + c2 y^5 + c3 z^5 + e x^2 y^2 z^2: semi-quasihomogeneous
    with a nondegenerate principal part, so mu = (5-1)^3 = 64
    (Milnor-Orlik)."""
    terms = [(rng.randint(1, 9), "x^5"), (rng.randint(1, 9), "y^5"), (rng.randint(1, 9), "z^5")]
    terms.append((_nonzero(rng), "x^2*y^2*z^2"))
    return {"ring": {"vars": ["x", "y", "z"], "weights": [1, 1, 1]}, "ideal": [_signed_sum(terms)]}


def _milnor_orlik_check(code: int, stdout: str) -> bool:
    result = _result(code, stdout)
    return result is not None and result["mu"] == 64


def _diagonal_quintic(rng: random.Random) -> dict:
    terms = [(_nonzero(rng), "x^5"), (_nonzero(rng), "y^5"), (_nonzero(rng), "z^5")]
    return {
        "ring": {"vars": ["x", "y", "z"], "weights": [1, 1, 1]},
        "ideal": [_signed_sum(terms)],
        "structure": {"kind": "jacobian"},
    }


def _hp0_quintic_check(code: int, stdout: str) -> bool:
    """The oracle matches the closed form and both total (5-1)^3 = 64
    through the socle degree 3 * (5 - 2) = 9."""
    result = _result(code, stdout)
    return (
        result is not None
        and result["match"] is True
        and sum(result["oracle"].values()) == 64
        and sum(result["closed_form"].values()) == 64
    )


def generated_jobs(workload: str, rng: random.Random) -> list[Job]:
    if workload == "ideals":
        return [
            _json_job("gb", f"dense_quadrics_{k}", _dense_quadrics(rng), _bezout_check)
            for k in range(2)
        ]
    if workload == "local":
        return [_json_job("tjurina", "quintic_surface", _quintic_surface(rng), _milnor_orlik_check)]
    if workload == "oracle":
        return [
            _json_job(
                "verify-hp0", "diagonal_quintic", _diagonal_quintic(rng), _hp0_quintic_check,
                "--margin", "0",
            )
        ]
    raise ValueError(f"unknown workload {workload!r}")


def workload_jobs(workload: str, rng: random.Random) -> list[Job]:
    return list(NAMED[workload]) + generated_jobs(workload, rng)
