"""Command-line front end.

Input is a JSON document describing a ring, an ideal, and an optional
structure; commands dispatch to the library and print a text or JSON
report.  Exit codes: 0 success, 1 mathematical-domain error
(non-isolated, inhomogeneous where required), 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from .coinv import coinvariants_truncated, verify_hp0
from .errors import DomainError, InputError
from .geom import (
    BracketStructure,
    JacobianPolyvector,
    Variety,
    VectorFieldFamily,
    degenerate_locus,
    hp0_series,
    jacobian_bracket_matrix,
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
    JacobiStructure,
    VectorField,
    derivations_up_to_degree,
    exceptional_ideal,
    hamiltonian_from_bracket,
    hamiltonian_family_top,
    incompressibility_truncated,
    jacobi_bracket,
    jacobi_hamiltonian,
    top_polyvector_field,
)

COMMANDS = (
    "gb",
    "member",
    "milnor",
    "tjurina",
    "gap",
    "hp0",
    "coinv",
    "verify-hp0",
    "strata",
    "leaves",
    "degenerate",
    "bracket",
    "hamvec",
    "hamgen",
    "derivations",
    "exceptional",
    "incompressible",
    "sympower",
    "sym2-brute",
)


@dataclass
class InputDocument:
    ring: PolyRing
    ideal: list
    structure: object | None
    options: dict
    warnings: list
    path: str


def _is_int(value) -> bool:
    """A JSON integer; ``bool`` is an ``int`` subclass but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _fail(path: str, message: str):
    raise InputError(f"{path}: {message}")


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


def load_input(path: str) -> InputDocument:
    """Parse and validate an input document; raises InputError on any
    schema violation, naming the JSON path of the fault."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        _fail("$", "top level must be an object")
    warnings: list[str] = []

    ring_obj = raw.get("ring")
    if not isinstance(ring_obj, dict):
        _fail("ring", "required object with 'vars' and optional 'weights'")
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
        if kind == "jacobian":
            structure = JacobianPolyvector()
        elif kind == "bracket":
            matrix = _parse_matrix(ring, s_obj.get("matrix"), "structure.matrix")
            try:
                structure = BracketStructure(matrix)
            except InputError as exc:
                _fail("structure.matrix", str(exc))
        elif kind == "jacobi":
            matrix = _parse_matrix(ring, s_obj.get("matrix"), "structure.matrix")
            u = _parse_field(ring, s_obj.get("u"), "structure.u")
            try:
                structure = JacobiStructure(ring, matrix, u)
            except InputError as exc:
                _fail("structure", str(exc))
        elif kind == "vector-fields":
            gens = s_obj.get("generators")
            if not isinstance(gens, list) or not gens:
                _fail("structure.generators", "expected a non-empty list of coefficient lists")
            fields = tuple(
                _parse_field(ring, g, f"structure.generators[{i}]") for i, g in enumerate(gens)
            )
            structure = VectorFieldFamily(fields)
        else:
            _fail("structure.kind", f"unknown kind {kind!r}")

    options = raw.get("options", {})
    if not isinstance(options, dict):
        _fail("options", "expected an object")
    if "max_degree" in options and not (_is_int(options["max_degree"]) and options["max_degree"] >= 0):
        _fail("options.max_degree", "expected a non-negative integer")
    return InputDocument(ring, ideal, structure, options, warnings, path)


def _variety(doc: InputDocument, order) -> Variety:
    return Variety(doc.ring, doc.ideal, doc.structure, order=order)


def _fmt_dim(value):
    return "infinite" if value == INFINITE else value


def _series_json(series):
    out = {"display": str(series), "finite": series.finite}
    if series.finite:
        out["coefficients"] = {str(k): v for k, v in series.coefficients().items()}
        out["total"] = series.total_dimension()
    else:
        out["numerator"] = {str(k): v for k, v in sorted(series.numerator.items())}
        out["denominator_weights"] = list(series.denominator)
    return out


def _stratum_json(stratum):
    return {
        "rank": stratum.rank,
        "ideal": [str(g) for g in stratum.ideal.elements],
        "dimension": stratum.dimension,
    }


def _default_degree(X: Variety, flags, options: dict) -> int:
    """Truncation default: socle degree of the closed form plus 3 when
    available, else 6."""
    if flags.max_degree is not None:
        return flags.max_degree
    if "max_degree" in options:
        return options["max_degree"]
    try:
        return max(hp0_series(X).socle_degree(), 0) + 3
    except (DomainError, InputError):
        return 6


def _family_fields(X: Variety, flags, degree: int):
    """Fields for solver commands: the declared vector-field structure if
    present, else tangent derivations up to the truncation."""
    if isinstance(X.structure, VectorFieldFamily):
        return list(X.structure.generators), "vector-fields structure"
    table = derivations_up_to_degree(X.groebner(), degree, zero_weight_cap=flags.zero_weight_cap)
    fields = [xi for _, fs in sorted(table.items()) for xi in fs]
    return fields, f"derivations up to weight {degree}"


def run(command: str, doc: InputDocument, flags) -> dict:
    """Execute a command and return the report object (the 'result' part
    plus rendering hints)."""
    order = LEX if flags.order == "lex" else WGREVLEX
    result: dict = {}
    text: list[str] = []

    # plain ideal commands work on any generator list; the rest go
    # through a Variety, whose invariants cap the codimension
    if command == "gb":
        gb = buchberger(list(doc.ideal), order, ring=doc.ring)
        result["basis"] = [str(g) for g in gb.elements]
        text.append("reduced Groebner basis:")
        if gb.elements:
            text.extend(f"  {g}" for g in result["basis"])
        else:
            text.append("  (zero ideal)")
        return {"result": result, "text": text}
    if command == "member":
        if not flags.poly:
            raise InputError("member needs -f <polynomial>")
        gb = buchberger(list(doc.ideal), order, ring=doc.ring)
        p = parse_poly(flags.poly, doc.ring)
        nf = normal_form(p, gb)
        result["polynomial"] = str(p)
        result["normal_form"] = str(nf)
        result["member"] = nf.is_zero()
        text.append(f"normal form: {nf}")
        text.append("member: yes" if nf.is_zero() else "member: no")
        return {"result": result, "text": text}

    X = _variety(doc, order)
    if command == "milnor":
        lengths = milnor_breakdown(X)
        mu = milnor_from_chain(lengths)
        result["mu"] = _fmt_dim(mu)
        result["chain_colengths"] = [_fmt_dim(c) for c in lengths]
        if mu == INFINITE:
            offenders = [i + 1 for i, c in enumerate(lengths) if c == INFINITE]
            result["offending_chain_index"] = offenders[0]
            text.append(f"mu = infinite (chain ideal J_{offenders[0]} has infinite colength)")
        else:
            text.append(f"mu = {mu}")
    elif command in ("tjurina", "gap"):
        rep = tjurina(X)
        result["mu"] = _fmt_dim(rep.milnor)
        result["tau"] = _fmt_dim(rep.tjurina)
        result["gap"] = _fmt_dim(rep.gap)
        result["predicted_local_coinvariant_dim"] = _fmt_dim(rep.predicted_local_coinv_dim)
        if rep.singularity_ring_series is not None:
            result["singularity_ring_series"] = _series_json(rep.singularity_ring_series)
        if command == "gap":
            text.append(f"mu - tau = {rep.gap}")
        else:
            text.append(f"tau = {rep.tjurina}")
            text.append(f"mu = {rep.milnor}, gap = {rep.gap}")
            if rep.singularity_ring_series is not None:
                text.append(f"singularity ring series: {rep.singularity_ring_series}")
    elif command == "hp0":
        series = hp0_series(X)
        result["series"] = _series_json(series)
        text.append(f"coinvariant Poincare polynomial: {series}")
        text.append(f"total dimension: {series.total_dimension()}")
    elif command == "coinv":
        degree = _default_degree(X, flags, doc.options)
        table = coinvariants_truncated(X, flags.family, degree)
        result["dimensions"] = {str(w): d for w, d in sorted(table.dimensions.items())}
        result["total"] = table.total()
        result["family"] = table.family
        result["truncation"] = table.truncation
        text.append(str(table))
    elif command == "verify-hp0":
        rep = verify_hp0(X, margin=flags.margin)
        result["match"] = rep.match
        result["oracle"] = {str(w): d for w, d in sorted(rep.table.dimensions.items())}
        result["closed_form"] = {str(w): d for w, d in sorted(rep.series_coefficients.items())}
        if not rep.match:
            result["mismatches"] = [
                {"weight": w, "oracle": o, "closed_form": c} for w, o, c in rep.mismatches
            ]
        text.append(str(rep))
    elif command == "strata":
        strata = rank_strata(X, bracket_depth=flags.bracket_depth)
        result["strata"] = [_stratum_json(s) for s in strata]
        for s in result["strata"]:
            gens = ", ".join(s["ideal"]) or "0"
            text.append(f"rank <= {s['rank']}: ideal ({gens}), dimension {s['dimension']}")
    elif command == "leaves":
        rep = leaves_check(X, bracket_depth=flags.bracket_depth)
        result["passed"] = rep.passed
        result["strata"] = [_stratum_json(s) for s in rep.strata]
        if rep.passed:
            text.append("PASS: every rank stratum has dimension at most its rank")
        else:
            w = rep.witness
            result["witness"] = result["strata"][rep.strata.index(w)]
            gens = ", ".join(result["witness"]["ideal"]) or "0"
            text.append(f"FAIL: stratum i={w.rank} ideal ({gens}) has dimension {w.dimension} > {w.rank}")
    elif command == "degenerate":
        rep = degenerate_locus(X)
        result["ideal"] = [str(g) for g in rep.ideal.elements]
        result["dimension"] = rep.dimension
        result["finite"] = rep.finite
        text.append(
            f"degenerate locus dimension {rep.dimension}: "
            + ("finite" if rep.finite else "not finite")
        )
    elif command == "bracket":
        if not flags.poly or not flags.second:
            raise InputError("bracket needs -f and -g")
        f = parse_poly(flags.poly, doc.ring)
        g = parse_poly(flags.second, doc.ring)
        if isinstance(X.structure, BracketStructure):
            matrix = [list(r) for r in X.structure.matrix]
            value = hamiltonian_from_bracket(f, matrix).apply(g)
        elif isinstance(X.structure, JacobiStructure):
            value = jacobi_bracket(f, g, X.structure)
        else:
            matrix = jacobian_bracket_matrix(X)
            value = hamiltonian_from_bracket(f, matrix).apply(g)
        result["bracket"] = str(value)
        text.append(result["bracket"])
    elif command == "hamvec":
        if not flags.poly:
            raise InputError("hamvec needs -f <polynomial>")
        f = parse_poly(flags.poly, doc.ring)
        if isinstance(X.structure, JacobiStructure):
            xi = jacobi_hamiltonian(f, X.structure)
        elif isinstance(X.structure, BracketStructure):
            xi = hamiltonian_from_bracket(f, [list(r) for r in X.structure.matrix])
        else:
            xi = hamiltonian_from_bracket(f, jacobian_bracket_matrix(X))
        result["field"] = str(xi)
        text.append(result["field"])
    elif command == "hamgen":
        degree = _default_degree(X, flags, doc.options)
        if X.expected_dimension == 1:
            fields = [top_polyvector_field(list(X.ideal_gens), X.ring)]
        else:
            fields = hamiltonian_family_top(X, degree)
        result["max_degree"] = degree
        result["fields"] = [str(xi) for xi in fields]
        text.append(f"{len(fields)} Hamiltonian fields up to weight {degree}:")
        text.extend(f"  {xi}" for xi in result["fields"])
    elif command == "derivations":
        degree = _default_degree(X, flags, doc.options)
        table = derivations_up_to_degree(
            X.groebner(), degree, zero_weight_cap=flags.zero_weight_cap
        )
        result["max_degree"] = degree
        result["fields_by_weight"] = {
            str(w): [str(xi) for xi in fs] for w, fs in sorted(table.items())
        }
        for w, fs in result["fields_by_weight"].items():
            text.append(f"weight {w}:")
            text.extend(f"  {xi}" for xi in fs)
    elif command == "exceptional":
        degree = _default_degree(X, flags, doc.options)
        fields, label = _family_fields(X, flags, degree)
        gb = exceptional_ideal(fields, X.groebner())
        result["family"] = label
        result["ideal"] = [str(g) for g in gb.elements]
        try:
            series = poincare_series(gb)
            result["quotient_series"] = _series_json(series)
            result["quotient_dimension"] = _fmt_dim(series.total_dimension())
        except DomainError:
            pass
        gens = ", ".join(result["ideal"]) or "0"
        text.append(f"exceptional ideal ({gens}) [family: {label}]")
        if "quotient_dimension" in result:
            text.append(f"quotient dimension: {result['quotient_dimension']}")
    elif command == "incompressible":
        degree = _default_degree(X, flags, doc.options)
        fields, label = _family_fields(X, flags, degree)
        rep = incompressibility_truncated(
            fields, X.groebner(), degree, zero_weight_cap=flags.zero_weight_cap
        )
        result["family"] = label
        result["verdict"] = rep.verdict
        if not rep.consistent:
            result["witness"] = [str(p) for p in rep.witness_coefficients]
            result["residue"] = str(rep.witness_residue)
        text.append(f"verdict: {rep.verdict} [family: {label}]")
        if not rep.consistent:
            text.append(f"witness coefficients: ({', '.join(result['witness'])})")
    elif command == "sympower":
        nmax = flags.max_degree if flags.max_degree is not None else 3
        corrected = hp0_sym_series(X, nmax, corrected=True)
        plain = hp0_sym_series(X, nmax, corrected=False)
        result["truncation"] = nmax
        result["corrected"] = {
            str(r): {str(u): c for u, c in sorted(corrected.s_layer(r).items())}
            for r in range(nmax + 1)
        }
        result["uncorrected"] = {
            str(r): {str(u): c for u, c in sorted(plain.s_layer(r).items())}
            for r in range(nmax + 1)
        }
        text.append(f"uncorrected: {plain}")
        text.append(f"corrected (power variable carries minus the equation weight): {corrected}")
    elif command == "sym2-brute":
        degree = _default_degree(X, flags, doc.options)
        dims = brute_sym2_coinvariants(X, degree)
        result["dimensions"] = {str(w): d for w, d in sorted(dims.items())}
        result["truncation"] = degree
        result["conjectural_comparison"] = X.expected_dimension < 2
        table = ", ".join(f"{w}: {d}" for w, d in sorted(dims.items()))
        text.append(f"second symmetric power coinvariant dimensions: {{{table}}}")
        if X.expected_dimension < 2:
            text.append(
                "note: outside the surface hypotheses; comparison with the "
                "symmetric-power series is conjectural"
            )
    else:
        raise InputError(f"unknown command {command!r}")

    return {"result": result, "text": text}


def _count(text: str) -> int:
    """Argument type of the degree, depth, cap and margin flags."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    later call in the process: parse with it, never modify it."""
    parser = argparse.ArgumentParser(
        prog="leafalg",
        description="invariants of affine varieties carrying Lie algebras of vector fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("-i", "--input", required=True, help="input JSON document")
        p.add_argument("--max-degree", type=_count, default=None, dest="max_degree")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--order", choices=("wgrevlex", "lex"), default="wgrevlex")
        p.add_argument("--bracket-depth", type=_count, default=2, dest="bracket_depth")
        p.add_argument("--zero-weight-cap", type=_count, default=None, dest="zero_weight_cap")
        p.add_argument("-f", dest="poly", default=None, help="polynomial argument")
        p.add_argument("-g", dest="second", default=None, help="second polynomial argument")
        p.add_argument(
            "--family",
            choices=("hamiltonian-top", "derivations"),
            default="hamiltonian-top",
        )
        p.add_argument("--margin", type=_count, default=2)
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
    parser = build_parser()
    flags = parser.parse_args(argv)
    try:
        doc = load_input(flags.input)
        payload = run(flags.command, doc, flags)
        report = render_report(flags.command, doc, payload, flags.format)
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
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
