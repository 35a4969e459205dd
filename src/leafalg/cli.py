"""Command-line front end.

Input is a JSON document describing a ring, an ideal, and an optional
structure (without one, ``Variety`` gives the Jacobian polyvector); each
command is a handler in ``COMMANDS`` that calls the library, and the
report is printed as text or JSON.  ``COMMANDS`` also names the flags
each handler reads, and the parser registers only those.  Exit codes:
0 success, 1 mathematical-domain error (non-isolated, inhomogeneous
where required), 2 input error (bad flags included), 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .coinv import coinvariants_truncated, verify_hp0
from .errors import DomainError, InputError
from .geom import (
    Variety,
    degenerate_locus,
    hamiltonian,
    leaves_check,
    milnor_breakdown,
    milnor_from_chain,
    rank_strata,
    tjurina,
)
from .groebner import INFINITE, LEX, WGREVLEX, buchberger, normal_form, poincare_series
from .poly import PolyRing, parse_poly
from .sympower import brute_sym2_coinvariants, hp0_sym_series
from .vfields import (
    JacobianPolyvector,
    JacobiStructure,
    VectorField,
    VectorFieldFamily,
    derivation_generators,
    derivations_up_to_degree,
    exceptional_ideal,
    hamiltonian_family_top,
    incompressibility_truncated,
)


class InputDocument:
    __slots__ = ("ring", "ideal", "structure", "options", "warnings", "path")

    def __init__(self, ring: PolyRing, ideal: list, structure, options: dict, warnings: list, path: str):
        self.ring, self.ideal, self.structure = ring, ideal, structure
        self.options, self.warnings, self.path = options, warnings, path


def _is_int(value) -> bool:
    """A JSON integer; ``bool`` is an ``int`` subclass but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _fail(path: str, message: str):
    raise InputError(f"{path}: {message}")


def _only(obj: dict, path: str, reader: str, reads: tuple) -> None:
    """Refuse the first key of ``obj`` outside ``reads``, at ``path + key``."""
    for key in obj:
        if key not in reads:
            _fail(path + key, f"{reader} reads only {', '.join(reads)}")


def _parse_matrix(ring: PolyRing, rows, path: str):
    if not isinstance(rows, list) or not rows:
        _fail(path, "expected a non-empty list of rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ring.arity:
            _fail(f"{path}[{i}]", f"expected a list of {ring.arity} polynomial strings")
        out.append(tuple(_parse_entry(ring, e, f"{path}[{i}][{j}]") for j, e in enumerate(row)))
    if len(out) != ring.arity:
        _fail(path, f"expected {ring.arity} rows")
    return tuple(out)


def _parse_entry(ring: PolyRing, text, path: str):
    if not isinstance(text, str):
        _fail(path, "expected a polynomial string")
    try:
        return parse_poly(text, ring)
    except InputError as exc:
        _fail(path, str(exc))


def _parse_field(ring: PolyRing, coeffs, path: str) -> VectorField:
    if not isinstance(coeffs, list) or len(coeffs) != ring.arity:
        _fail(path, f"expected {ring.arity} coefficient strings (one per variable)")
    return VectorField(ring, [_parse_entry(ring, c, f"{path}[{i}]") for i, c in enumerate(coeffs)])


# the keys each structure kind reads besides "kind"; any other is refused
_STRUCTURE_KEYS = {"jacobian": (), "bracket": ("matrix",), "jacobi": ("matrix", "u"), "vector-fields": ("generators",)}


def load_input(path: str) -> InputDocument:
    """Parse and validate an input document; raises InputError on any
    schema violation, naming the JSON path of the fault."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # malformed, a number longer than int() converts, too deep
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        _fail("$", "top level must be an object")
    _only(raw, "", "a document", ("ring", "ideal", "structure", "options"))
    warnings: list[str] = []

    ring_obj = raw.get("ring")
    if not isinstance(ring_obj, dict):
        _fail("ring", "required object with 'vars' and optional 'weights'")
    _only(ring_obj, "ring.", "a ring", ("vars", "weights"))
    var_names = ring_obj.get("vars")
    if not isinstance(var_names, list) or not all(isinstance(v, str) for v in var_names) or not var_names:
        _fail("ring.vars", "required non-empty list of strings")
    weights = ring_obj.get("weights")
    if weights is None:
        weights = [1] * len(var_names)
        warnings.append("ring.weights missing: defaulted to all 1")
    if not isinstance(weights, list) or not all(_is_int(w) for w in weights):
        _fail("ring.weights", "expected a list of integers")
    if len(weights) != len(var_names):
        _fail("ring.weights", "length must match ring.vars")
    try:
        ring = PolyRing(var_names, weights)
    except InputError as exc:
        _fail("ring", str(exc))

    ideal_obj = raw.get("ideal", [])
    if not isinstance(ideal_obj, list):
        _fail("ideal", "expected a list of polynomial strings")
    ideal = [_parse_entry(ring, s, f"ideal[{i}]") for i, s in enumerate(ideal_obj)]

    structure = None
    s_obj = raw.get("structure")
    if s_obj is not None:
        if not isinstance(s_obj, dict) or "kind" not in s_obj:
            _fail("structure", "expected an object with a 'kind'")
        kind = s_obj["kind"]
        if not isinstance(kind, str) or kind not in _STRUCTURE_KEYS:
            _fail("structure.kind", f"unknown kind {kind!r}")
        _only(s_obj, "structure.", f"kind {kind!r}", ("kind", *_STRUCTURE_KEYS[kind]))
        if kind == "jacobian":
            structure = JacobianPolyvector()
        elif kind in ("bracket", "jacobi"):  # a Poisson bracket is a Jacobi pair without u
            matrix = _parse_matrix(ring, s_obj.get("matrix"), "structure.matrix")
            u = _parse_field(ring, s_obj.get("u"), "structure.u") if kind == "jacobi" else None
            try:
                structure = JacobiStructure(ring, matrix, u)
            except InputError as exc:
                _fail("structure" if u is not None else "structure.matrix", str(exc))
        else:  # vector-fields
            gens = s_obj.get("generators")
            if not isinstance(gens, list) or not gens:
                _fail("structure.generators", "expected a non-empty list of coefficient lists")
            fields = tuple(
                _parse_field(ring, g, f"structure.generators[{i}]") for i, g in enumerate(gens)
            )
            structure = VectorFieldFamily(fields)

    options = raw.get("options", {})
    if not isinstance(options, dict):
        _fail("options", "expected an object")
    _only(options, "options.", "an options object", ("max_degree",))
    if "max_degree" in options and not (_is_int(options["max_degree"]) and options["max_degree"] >= 0):
        _fail("options.max_degree", "expected a non-negative integer")
    return InputDocument(ring, ideal, structure, options, warnings, path)



# -- commands ----------------------------------------------------------
#
# A handler takes the loaded document and the parsed flags and returns
# (result, text lines).  It reads only the flags its COMMANDS entry
# declares, and calls the library through this module's globals, so a
# rebinding of, say, ``cli.buchberger`` is seen by every command.

ORDERS = {"wgrevlex": WGREVLEX, "lex": LEX}


def _basis(doc: InputDocument, flags):
    return buchberger(list(doc.ideal), ORDERS[flags.order], ring=doc.ring)


def _variety(doc: InputDocument, flags) -> Variety:
    return Variety(doc.ring, doc.ideal, doc.structure, order=ORDERS[flags.order])


def _fmt_dim(value):
    return "infinite" if value == INFINITE else value


def _by_weight(table: dict) -> dict:
    """A weight -> value table as JSON, keys in increasing weight."""
    return {str(w): d for w, d in sorted(table.items())}


def _ideal_text(gens) -> str:
    return ", ".join(gens) or "0"


def _series_json(series):
    out = {"display": str(series), "finite": series.finite}
    if series.finite:
        out["coefficients"] = _by_weight(series.coefficients())
        out["total"] = series.total_dimension()
    else:
        out["numerator"] = _by_weight(series.numerator)
        out["denominator_weights"] = list(series.denominator)
    return out


def _stratum_json(stratum):
    return {
        "rank": stratum.rank,
        "ideal": [str(g) for g in stratum.ideal.elements],
        "dimension": stratum.dimension,
    }


def _max_degree(doc: InputDocument, flags, default=None):
    """``--max-degree``, else the document's ``options.max_degree``, else
    ``default``."""
    if flags.max_degree is not None:
        return flags.max_degree
    return doc.options.get("max_degree", default)


def _default_degree(X: Variety, doc: InputDocument, flags) -> int:
    """Truncation of the solver commands: the requested degree, else the
    socle degree of the closed form plus 3 when available, else 6."""
    degree = _max_degree(doc, flags)
    if degree is not None:
        return degree
    try:
        return max(X.hp0().socle_degree(), 0) + 3
    except (DomainError, InputError):
        return 6


def _derivation_table(X: Variety, flags, degree: int, generators: bool = False) -> dict:
    """Tangent derivations by weight up to ``degree``, or only the ones
    that generate them as a module; a ring with a zero weight needs
    ``--zero-weight-cap`` to bound their exponents."""
    if X.ring.has_zero_weights and flags.zero_weight_cap is None:
        raise InputError("ring has zero-weight variables: pass --zero-weight-cap")
    solve = derivation_generators if generators else derivations_up_to_degree
    return solve(X.groebner(), degree, zero_weight_cap=flags.zero_weight_cap)


def _family_fields(X: Variety, flags, degree: int, generators: bool = False):
    """Fields for solver commands: the declared vector-field structure if
    present, else tangent derivations up to the truncation (only their
    generators with ``generators``)."""
    if isinstance(X.structure, VectorFieldFamily):
        return list(X.structure.generators), "vector-fields structure"
    table = _derivation_table(X, flags, degree, generators)
    fields = [xi for _, fs in sorted(table.items()) for xi in fs]
    return fields, f"derivations up to weight {degree}"


def _gb(doc, flags):
    basis = [str(g) for g in _basis(doc, flags).elements]
    lines = [f"  {g}" for g in basis] or ["  (zero ideal)"]
    return {"basis": basis}, ["reduced Groebner basis:", *lines]


def _member(doc, flags):
    gb = _basis(doc, flags)
    p = _parse_entry(doc.ring, flags.poly, "-f")
    nf = normal_form(p, gb)
    result = {"polynomial": str(p), "normal_form": str(nf), "member": nf.is_zero()}
    return result, [f"normal form: {nf}", "member: yes" if nf.is_zero() else "member: no"]


def _milnor(doc, flags):
    lengths = milnor_breakdown(_variety(doc, flags))
    mu = milnor_from_chain(lengths)
    result = {"mu": _fmt_dim(mu), "chain_colengths": [_fmt_dim(c) for c in lengths]}
    if mu != INFINITE:
        return result, [f"mu = {mu}"]
    first = next(i for i, c in enumerate(lengths, start=1) if c == INFINITE)
    result["offending_chain_index"] = first
    return result, [f"mu = infinite (chain ideal J_{first} has infinite colength)"]


def _tjurina(doc, flags):
    # tjurina raises DomainError unless every number is finite
    rep = tjurina(_variety(doc, flags))
    result = {"mu": rep.milnor, "tau": rep.tjurina, "gap": rep.gap}
    result["predicted_local_coinvariant_dim"] = rep.milnor
    text = [f"tau = {rep.tjurina}", f"mu = {rep.milnor}, gap = {rep.gap}"]
    if rep.singularity_ring_series is not None:
        result["singularity_ring_series"] = _series_json(rep.singularity_ring_series)
        text.append(f"singularity ring series: {rep.singularity_ring_series}")
    return result, text


def _gap(doc, flags):
    result, _ = _tjurina(doc, flags)
    return result, [f"mu - tau = {result['gap']}"]


def _hp0(doc, flags):
    series = _variety(doc, flags).hp0()
    return {"series": _series_json(series)}, [
        f"coinvariant Poincare polynomial: {series}",
        f"total dimension: {series.total_dimension()}",
    ]


def _coinv(doc, flags):
    X = _variety(doc, flags)
    table = coinvariants_truncated(X, flags.family, _default_degree(X, doc, flags))
    result = {"family": table.family, "truncation": table.truncation, "total": table.total()}
    result["dimensions"] = _by_weight(table.dimensions)
    return result, [str(table)]


def _verify_hp0(doc, flags):
    rep = verify_hp0(_variety(doc, flags), margin=flags.margin)
    result = {"match": rep.match, "oracle": _by_weight(rep.table.dimensions)}
    result["closed_form"] = _by_weight(rep.series_coefficients)
    if not rep.match:
        result["mismatches"] = [
            {"weight": w, "oracle": o, "closed_form": c} for w, o, c in rep.mismatches
        ]
    return result, [str(rep)]


def _strata(doc, flags):
    strata = rank_strata(_variety(doc, flags), bracket_depth=flags.bracket_depth)
    result = {"strata": [_stratum_json(s) for s in strata]}
    return result, [
        f"rank <= {s['rank']}: ideal ({_ideal_text(s['ideal'])}), dimension {s['dimension']}"
        for s in result["strata"]
    ]


def _leaves(doc, flags):
    rep = leaves_check(_variety(doc, flags), bracket_depth=flags.bracket_depth)
    result = {"passed": rep.passed, "strata": [_stratum_json(s) for s in rep.strata]}
    if rep.passed:
        return result, ["PASS: every rank stratum has dimension at most its rank"]
    w = rep.witness
    result["witness"] = _stratum_json(w)
    gens = _ideal_text(result["witness"]["ideal"])
    fail = f"FAIL: stratum i={w.rank} ideal ({gens}) has dimension {w.dimension} > {w.rank}"
    return result, [fail]


def _degenerate(doc, flags):
    rep = degenerate_locus(_variety(doc, flags))
    result = {"ideal": [str(g) for g in rep.ideal.elements], "dimension": rep.dimension}
    result["finite"] = rep.finite
    verdict = "finite" if rep.finite else "not finite"
    return result, [f"degenerate locus dimension {rep.dimension}: {verdict}"]


def _bracket(doc, flags):
    X = _variety(doc, flags)
    f = _parse_entry(doc.ring, flags.poly, "-f")
    g = _parse_entry(doc.ring, flags.second, "-g")
    value = str(hamiltonian(X, f, g))
    return {"bracket": value}, [value]


def _hamvec(doc, flags):
    X = _variety(doc, flags)
    xi = str(hamiltonian(X, _parse_entry(doc.ring, flags.poly, "-f")))
    return {"field": xi}, [xi]


def _hamgen(doc, flags):
    X = _variety(doc, flags)
    degree = _default_degree(X, doc, flags)
    fields = hamiltonian_family_top(X, degree)
    result = {"max_degree": degree, "fields": [str(xi) for xi in fields]}
    text = [f"{len(fields)} Hamiltonian fields up to weight {degree}:"]
    return result, text + [f"  {xi}" for xi in result["fields"]]


def _derivations(doc, flags):
    X = _variety(doc, flags)
    degree = _default_degree(X, doc, flags)
    table = _derivation_table(X, flags, degree)
    by_weight = _by_weight({w: [str(xi) for xi in fs] for w, fs in table.items()})
    text = []
    for w, fs in by_weight.items():
        text.append(f"weight {w}:")
        text.extend(f"  {xi}" for xi in fs)
    return {"max_degree": degree, "fields_by_weight": by_weight}, text


def _exceptional(doc, flags):
    X = _variety(doc, flags)
    # the generators of the derivation module give the same ideal
    fields, label = _family_fields(X, flags, _default_degree(X, doc, flags), generators=True)
    gb = exceptional_ideal(fields, X.groebner())
    result = {"family": label, "ideal": [str(g) for g in gb.elements]}
    text = [f"exceptional ideal ({_ideal_text(result['ideal'])}) [family: {label}]"]
    try:
        series = poincare_series(gb)
    except DomainError:
        return result, text
    result["quotient_series"] = _series_json(series)
    result["quotient_dimension"] = _fmt_dim(series.total_dimension())
    return result, text + [f"quotient dimension: {result['quotient_dimension']}"]


def _incompressible(doc, flags):
    X = _variety(doc, flags)
    degree = _default_degree(X, doc, flags)
    fields, label = _family_fields(X, flags, degree)
    rep = incompressibility_truncated(
        fields, X.groebner(), degree, zero_weight_cap=flags.zero_weight_cap
    )
    result = {"family": label, "verdict": rep.verdict}
    text = [f"verdict: {rep.verdict} [family: {label}]"]
    if rep.consistent:
        return result, text
    result["witness"] = [str(p) for p in rep.witness_coefficients]
    result["residue"] = str(rep.witness_residue)
    return result, text + [f"witness coefficients: ({', '.join(result['witness'])})"]


def _sympower(doc, flags):
    X = _variety(doc, flags)
    nmax = _max_degree(doc, flags, 3)
    corrected = hp0_sym_series(X, nmax, corrected=True)
    plain = hp0_sym_series(X, nmax, corrected=False)
    result = {"truncation": nmax}
    for key, series in (("corrected", corrected), ("uncorrected", plain)):
        result[key] = {str(r): _by_weight(series.s_layer(r)) for r in range(nmax + 1)}
    return result, [
        f"uncorrected: {plain}",
        f"corrected (power variable carries minus the equation weight): {corrected}",
    ]


def _sym2_brute(doc, flags):
    X = _variety(doc, flags)
    degree = _default_degree(X, doc, flags)
    dims = _by_weight(brute_sym2_coinvariants(X, degree))
    conjectural = X.expected_dimension < 2
    result = {"dimensions": dims, "truncation": degree, "conjectural_comparison": conjectural}
    table = ", ".join(f"{w}: {d}" for w, d in dims.items())
    text = [f"second symmetric power coinvariant dimensions: {{{table}}}"]
    if conjectural:
        text.append(
            "note: outside the surface hypotheses; comparison with the "
            "symmetric-power series is conjectural"
        )
    return result, text


# name -> (handler, the flags it reads besides -i, --format and --order)
COMMANDS = {
    "gb": (_gb, ()),
    "member": (_member, ("-f",)),
    "milnor": (_milnor, ()),
    "tjurina": (_tjurina, ()),
    "gap": (_gap, ()),
    "hp0": (_hp0, ()),
    "coinv": (_coinv, ("--max-degree", "--family")),
    "verify-hp0": (_verify_hp0, ("--margin",)),
    "strata": (_strata, ("--bracket-depth",)),
    "leaves": (_leaves, ("--bracket-depth",)),
    "degenerate": (_degenerate, ()),
    "bracket": (_bracket, ("-f", "-g")),
    "hamvec": (_hamvec, ("-f",)),
    "hamgen": (_hamgen, ("--max-degree",)),
    "derivations": (_derivations, ("--max-degree", "--zero-weight-cap")),
    "exceptional": (_exceptional, ("--max-degree", "--zero-weight-cap")),
    "incompressible": (_incompressible, ("--max-degree", "--zero-weight-cap")),
    "sympower": (_sympower, ("--max-degree",)),
    "sym2-brute": (_sym2_brute, ("--max-degree",)),
}


def run(command: str, doc: InputDocument, flags) -> dict:
    """Execute a command and return the report object (the 'result' part
    plus rendering hints)."""
    handler, _ = COMMANDS[command]
    result, text = handler(doc, flags)
    return {"result": result, "text": text}


def _count(text: str) -> int:
    """Argument type of the degree, depth, cap and margin flags: ASCII
    digits, as in polynomial strings."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


# add_argument keywords of each flag in COMMANDS
FLAGS = {
    "-f": {"dest": "poly", "required": True, "help": "polynomial argument"},
    "-g": {"dest": "second", "required": True, "help": "second polynomial argument"},
    "--max-degree": {"type": _count, "default": None},
    "--bracket-depth": {"type": _count, "default": 2},
    "--zero-weight-cap": {"type": _count, "default": None},
    "--family": {"choices": ("hamiltonian-top", "derivations"), "default": "hamiltonian-top"},
    "--margin": {"type": _count, "default": 2},
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an InputError, which ``main`` prints as
    one line and exit code 2; ``-h`` still prints help and exits 0."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    later call in the process: parse with it, never modify it."""
    parser = _Parser(
        prog="leafalg",
        description="invariants of affine varieties carrying Lie algebras of vector fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("-i", "--input", required=True, help="input JSON document")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--order", choices=tuple(ORDERS), default="wgrevlex")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def render_report(command: str, doc: InputDocument, payload: dict, fmt: str) -> str:
    if fmt == "json":
        report = {
            "command": command,
            "input": doc.path,
            "result": payload["result"],
            "warnings": doc.warnings,
        }
        return json.dumps(report, indent=2, sort_keys=True)
    lines = [f"warning: {w}" for w in doc.warnings]
    lines.extend(payload["text"])
    return "\n".join(lines)


def main(argv=None) -> int:
    try:
        flags = build_parser().parse_args(argv)
        doc = load_input(flags.input)
        payload = run(flags.command, doc, flags)
        try:
            print(render_report(flags.command, doc, payload, flags.format), flush=True)
        except OSError:  # a closed or full stdout: aim it at devnull, or exit flushes it again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a defect, reported without a traceback
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
