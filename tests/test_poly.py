"""Polynomial arithmetic, parsing, and grading."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from leafalg import poly
from leafalg.errors import DomainError, InputError, ParseError
from leafalg.poly import (
    PolyRing,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    parse_poly,
)

from oracles import (
    per_use_str,
    random_polynomial,
    random_quasihomogeneous,
    reference_parse_poly,
    reference_str,
    weighted_components,
)

XYZ = PolyRing(["x", "y", "z"])
CUSP_RING = PolyRing(["x", "y"], [3, 2])


def test_parse_fermat_cubic():
    p = parse_poly("x^3 + y^3 + z^3", XYZ)
    assert p.terms == {
        (3, 0, 0): Fraction(1),
        (0, 3, 0): Fraction(1),
        (0, 0, 3): Fraction(1),
    }


def test_parse_rational_coefficients():
    p = parse_poly("2*x*y - 1/2*z^2", XYZ)
    assert p.terms == {(1, 1, 0): Fraction(2), (0, 0, 2): Fraction(-1, 2)}


def test_parse_negative_exponent_is_syntax_error():
    with pytest.raises(ParseError) as err:
        parse_poly("x^-1", XYZ)
    assert err.value.position is not None


def test_parse_deep_nesting_is_syntax_error():
    for text in ["(" * 5000 + "x" + ")" * 5000, "-" * 5000 + "x"]:
        with pytest.raises(ParseError, match="nesting"):
            parse_poly(text, XYZ)
    # moderate nesting still parses
    assert parse_poly("(" * 50 + "x" + ")" * 50, XYZ) == parse_poly("x", XYZ)
    assert parse_poly("-" * 50 + "x", XYZ) == parse_poly("x", XYZ)


def test_a_constant_power_is_bounded_before_it_is_computed():
    # one rule with the literal limit: a number written or raised has at
    # most 4300 digits; the parts of c^n are sized before c^n is computed
    big = 10**4300 - 1  # the longest exponent literal
    refused = [("7^20000", 2), ("10^4300", 3), ("(-3/10)^4300", 8), ("(1/7)^6000", 6), ("x + 2*(2^14285)", 9)]
    for text, at in refused:
        with pytest.raises(ParseError, match=f"^power longer than 4300 digits \\(at position {at}\\)$"):
            parse_poly(text, XYZ)
    assert parse_poly("10^4299", XYZ).terms == {(0, 0, 0): 10**4299}
    assert parse_poly("2^14284", XYZ).terms == {(0, 0, 0): 2**14284}
    assert parse_poly("(1/7)^5088*x", XYZ).terms == {(1, 0, 0): Fraction(1, 7**5088)}
    for base, value in (("1", 1), ("(-1)", -1), ("-1", -1), ("0", 0)):
        terms = {(0, 0, 0): value} if value else {}
        assert parse_poly(f"{base}^{big}", XYZ).terms == terms
    assert parse_poly(f"x^{big}*y", XYZ).terms == {(big, 1, 0): 1}


def parse_outcome(parse, text, ring):
    """Terms and coefficient types of a parse, or the refusal's type,
    message and position."""
    try:
        p = parse(text, ring)
    except InputError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return p.terms, sorted({type(c).__name__ for c in p.terms.values()})


def random_expression(rng, depth=0):
    """A string of the grammar: sums, products, powers, parentheses, unary
    minus, integer and p/q literals, a name that is not a variable."""
    r = rng.random()
    if depth > 3 or r < 0.35:
        atoms = ("x", "y", "z", str(rng.randint(0, 12)), f"{rng.randint(0, 9)}/{rng.randint(0, 4)}", "w", "x1")
        return rng.choice(atoms)
    if r < 0.55:
        op = rng.choice(("+", " - ", "*", "  +", "-"))
        return random_expression(rng, depth + 1) + op + random_expression(rng, depth + 1)
    if r < 0.7:
        return "(" + random_expression(rng, depth + 1) + ")"
    if r < 0.85:
        return f"{random_expression(rng, depth + 1)}^{rng.randint(0, 4)}"
    return "-" + random_expression(rng, depth + 1)


GRAMMAR_ALPHABET = "xyzw_0123456789+-*^/() \t\n"


def test_parse_matches_the_reference_parser_on_random_strings():
    # half the strings are random characters, half are grammar strings
    # with a character inserted or deleted here and there
    rng = random.Random(23)
    kinds = set()
    for k in range(4000):
        if k % 2:
            text = "".join(rng.choice(GRAMMAR_ALPHABET) for _ in range(rng.randint(0, 12)))
        else:
            chars = list(random_expression(rng))
            for _ in range(rng.randint(0, 2)):
                i = rng.randint(0, len(chars))
                if rng.random() < 0.5:
                    chars.insert(i, rng.choice(GRAMMAR_ALPHABET))
                elif chars:
                    del chars[min(i, len(chars) - 1)]
            text = "".join(chars)
        expected = parse_outcome(reference_parse_poly, text, XYZ)
        assert parse_outcome(parse_poly, text, XYZ) == expected, text
        kinds.add(expected[0] if isinstance(expected[0], type) else "parsed")
    assert kinds == {"parsed", ParseError, InputError}


def test_parse_matches_the_reference_parser_on_the_corpus():
    strings = 0
    for path in sorted((Path(__file__).resolve().parents[1] / "bench" / "corpus").glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        ring = PolyRing(doc["ring"]["vars"], doc["ring"].get("weights"))
        structure = doc.get("structure", {})
        texts = [*doc.get("ideal", []), *structure.get("u", [])]
        texts += [text for row in structure.get("matrix", []) + structure.get("generators", []) for text in row]
        for text in texts:
            assert parse_outcome(parse_poly, text, ring) == parse_outcome(reference_parse_poly, text, ring), text
        strings += len(texts)
    assert strings == 69


def test_parse_builds_one_polynomial(monkeypatch):
    built = []
    init = Polynomial.__init__

    def counting_init(self, ring, terms):
        built.append(ring)
        init(self, ring, terms)

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    for text in ("x^4 + y^4 + z^4", "-(x - 1/2*y)^3*z + 7", "(x+y+z)^5 - (x+y+z)^5", "0", "2^10"):
        built.clear()
        parse_poly(text, XYZ)
        assert built == [XYZ], text


def test_a_power_of_a_sum_is_expanded_by_products_with_the_base(monkeypatch):
    # squaring made 599 073 monomial products for (x+y+z)^60; 59 products
    # by the three-term base make 113 457
    calls = []
    product = poly.mono_mul

    def counting_mono_mul(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(poly, "mono_mul", counting_mono_mul)
    p = parse_poly("(x+y+z)^60", XYZ)
    assert len(calls) < 200_000
    assert len(p.terms) == math.comb(62, 2)
    assert p.terms[(20, 20, 20)] == math.factorial(60) // math.factorial(20) ** 3
    assert p.evaluate((1, 1, 1)) == 3**60


def test_parse_unknown_identifier():
    with pytest.raises(InputError, match="unknown identifier"):
        parse_poly("x + w", XYZ)


def test_parse_parentheses_and_unary_minus():
    assert parse_poly("-(x - y)^2", XYZ) == -(
        (XYZ.var("x") - XYZ.var("y")) ** 2
    )


def test_arithmetic_difference_of_squares():
    x, y = XYZ.var("x"), XYZ.var("y")
    assert (x + y) * (x - y) == x**2 - y**2


def test_arithmetic_additive_identity():
    p = parse_poly("3*x^2*y - z", XYZ)
    assert p + XYZ.zero() == p


def test_arithmetic_monomial_product():
    assert XYZ.var("x") ** 2 * XYZ.var("y") ** 3 == XYZ.monomial((2, 3, 0))


def test_ring_mismatch_rejected():
    with pytest.raises(InputError, match="ring mismatch"):
        XYZ.var("x") + CUSP_RING.var("x")


def test_partial_derivative_fermat():
    f = parse_poly("x^3 + y^3 + z^3", XYZ)
    assert f.partial_derivative("z") == parse_poly("3*z^2", XYZ)


def test_partial_derivative_absent_variable():
    assert parse_poly("y^5", XYZ).partial_derivative("x").is_zero()


def test_partial_derivative_mixed():
    assert parse_poly("x^2*y^3", XYZ).partial_derivative("y") == parse_poly("3*x^2*y^2", XYZ)


def test_weighted_components_cuspidal():
    p = parse_poly("x^2 - y^3", CUSP_RING)
    comps, homogeneous = weighted_components(p), p.is_quasihomogeneous()
    assert homogeneous
    assert list(comps) == [6]
    assert comps[6] == p


def test_weighted_components_mixed():
    R = PolyRing(["x", "y"])
    p = parse_poly("x^3 + x^2*y + y^4", R)
    comps, homogeneous = weighted_components(p), p.is_quasihomogeneous()
    assert not homogeneous
    assert sorted(comps) == [3, 4]
    assert comps[3] == parse_poly("x^3 + x^2*y", R)
    assert comps[4] == parse_poly("y^4", R)


def test_weighted_components_zero():
    comps, homogeneous = weighted_components(XYZ.zero()), XYZ.zero().is_quasihomogeneous()
    assert comps == {} and homogeneous


def test_ring_validation():
    with pytest.raises(InputError):
        PolyRing(["x", "x"])
    with pytest.raises(InputError):
        PolyRing(["x", "y"], [1])
    with pytest.raises(InputError):
        PolyRing(["x"], [-1])


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(40):
        p = random_polynomial(rng, XYZ)
        q = random_polynomial(rng, XYZ)
        r = random_polynomial(rng, XYZ)
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)


def test_leibniz_rule_random():
    rng = random.Random(11)
    for _ in range(30):
        p = random_polynomial(rng, XYZ)
        q = random_polynomial(rng, XYZ)
        for v in XYZ.variables:
            lhs = (p * q).partial_derivative(v)
            rhs = p * q.partial_derivative(v) + q * p.partial_derivative(v)
            assert lhs == rhs


def test_euler_identity_random():
    rng = random.Random(13)
    for ring, weight in [(CUSP_RING, 6), (CUSP_RING, 12), (XYZ, 3), (XYZ, 5)]:
        for _ in range(10):
            p = random_quasihomogeneous(rng, ring, weight)
            euler = ring.zero()
            for name, m in zip(ring.variables, ring.weights):
                euler = euler + ring.var(name) * Fraction(m) * p.partial_derivative(name)
            assert euler == p * Fraction(weight)


def test_print_parse_round_trip():
    rng = random.Random(17)
    for _ in range(40):
        p = random_polynomial(rng, XYZ)
        printed = str(p)
        reparsed = parse_poly(printed, XYZ)
        assert reparsed == p
        assert str(reparsed) == printed


def test_printing_uses_explicit_operators():
    assert str(parse_poly("3*z^2", XYZ)) == "3*z^2"
    assert str(parse_poly("x^2-y^3", CUSP_RING)) == "x^2 - y^3"
    assert str(XYZ.zero()) == "0"


def test_printer_matches_the_fraction_reference():
    # rational and unit coefficients, constants, negative leading terms,
    # a weighted ring and a ring with a zero weight
    rng = random.Random(29)
    rings = (XYZ, CUSP_RING, PolyRing(["x", "y", "t"], [1, 1, 0]), PolyRing(["u"], [2]))
    coefficients = [Fraction(n, d) for n in (-7, -3, -1, 1, 2, 5) for d in (1, 1, 2, 3)]
    for _ in range(200):
        ring = rng.choice(rings)
        terms = {
            tuple(rng.randint(0, 3) for _ in range(ring.arity)): rng.choice(coefficients)
            for _ in range(rng.randint(1, 6))
        }
        if rng.random() < 0.3:
            terms[(0,) * ring.arity] = rng.choice(coefficients)
        p = Polynomial(ring, terms)
        assert str(p) == reference_str(p)
        assert str(-p) == reference_str(-p)
    assert str(parse_poly("-1/2", XYZ)) == reference_str(parse_poly("-1/2", XYZ)) == "-1/2"
    assert str(parse_poly("-x + 1", XYZ)) == "-x + 1"


def test_the_tabled_printer_matches_the_per_use_printer():
    # seeded polynomials with negative and p/q coefficients, a weighted
    # ring and a ring with a zero weight, each printed twice: once while
    # the ring's table fills, once reading it back
    rng = random.Random(83)
    rings = (PolyRing(["x", "y", "z"]), PolyRing(["x", "y"], [3, 2]), PolyRing(["x", "y", "t"], [1, 1, 0]))
    coefficients = [Fraction(n, d) for n in (-12, -5, -1, 1, 3, 8) for d in (1, 1, 4, 7)]
    for _ in range(300):
        ring = rng.choice(rings)
        terms = {
            tuple(rng.randint(0, 4) for _ in range(ring.arity)): rng.choice(coefficients)
            for _ in range(rng.randint(1, 7))
        }
        p = Polynomial(ring, terms)
        expected = per_use_str(p)
        assert str(p) == expected
        assert str(p) == expected
    assert all(ring._columns for ring in rings)


def test_a_number_longer_than_str_converts_still_fails_to_print():
    # the factor text is made inside the printer's try, so a long
    # exponent is a DomainError, as is a long coefficient, and no table
    # entry is left behind for the monomial that failed
    ring = PolyRing(["x", "y"])
    long_exponent = Polynomial(ring, {(10**4300, 1): 1, (0, 1): 2})
    long_coefficient = Polynomial(ring, {(1, 1): Fraction(-(10**4300), 3)})
    for p in (long_exponent, long_coefficient):
        for printer in (str, per_use_str):
            with pytest.raises(DomainError, match="cannot print a number longer than 4300 digits"):
                printer(p)
    assert (10**4300, 1) not in ring._columns["factor text"]
    assert str(Polynomial(ring, {(2, 1): -3})) == "-3*x^2*y"


def test_equal_rings_ignore_their_monomial_tables():
    filled, empty = PolyRing(["x", "y", "t"], [2, 3, 0]), PolyRing(["x", "y", "t"], [2, 3, 0])
    str(parse_poly("x^2*t - 1/2*y + 3", filled))
    filled.column("squares", lambda m: tuple(e * e for e in m))[(1, 2, 3)]
    assert filled._columns and not empty._columns
    assert filled == empty and hash(filled) == hash(empty)
    assert parse_poly("y - x", filled) == parse_poly("y - x", empty)
    assert len({filled, empty}) == 1


def test_evaluate():
    p = parse_poly("x^2*y - 2*z + 1/3", XYZ)
    assert p.evaluate((2, 3, Fraction(1, 2))) == Fraction(4 * 3) - 1 + Fraction(1, 3)


def test_monomials_of_weight_enumeration():
    assert sorted(CUSP_RING.monomials_of_weight(6)) == [(0, 3), (2, 0)]
    assert CUSP_RING.monomials_of_weight(1) == []
    assert XYZ.monomials_of_weight(0) == [(0, 0, 0)]


def random_exponents(rng, arity):
    """An exponent tuple with entries 0..4, about a third of them zero."""
    return tuple(rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(arity))


def test_monomial_kernels_match_their_definitions():
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randint(1, 6)
        a, b = random_exponents(rng, n), random_exponents(rng, n)
        ring = PolyRing([f"x{i}" for i in range(n)], [rng.randint(0, 5) for _ in range(n)])
        assert mono_mul(a, b) == tuple(a[i] + b[i] for i in range(n))
        assert mono_lcm(a, b) == tuple(max(a[i], b[i]) for i in range(n))
        divides = all(a[i] <= b[i] for i in range(n))
        assert mono_divides(a, b) is divides
        assert mono_divides(a, mono_mul(a, b))
        assert mono_div(mono_mul(a, b), b) == a
        if divides:
            assert mono_mul(mono_div(b, a), a) == b
        total = 0
        for w, e in zip(ring.weights, a):
            total += w * e
        assert ring.weighted_degree(a) == total


def test_constants_variables_and_scalings_keep_fraction_coefficients():
    p = parse_poly("x^2 - 1/3*y*z + 2", XYZ)
    assert XYZ.const(0).terms == {} and XYZ.const(Fraction(0)) == XYZ.zero()
    assert (p * Fraction(0)).terms == {} and p * Fraction(0) == XYZ.zero()
    assert XYZ.const(3).terms == {(0, 0, 0): 3} and XYZ.var("y").terms == {(0, 1, 0): 1}
    assert (p * Fraction(-3, 7)).terms == {m: Fraction(-3, 7) * c for m, c in p.terms.items()}
    assert list((p * Fraction(-2)).terms) == list(p.terms)
    for q in (XYZ.const(3), XYZ.const(Fraction(-2, 5)), XYZ.one(), XYZ.var("y"), p * Fraction(2), p * Fraction(1, 2)):
        assert all(type(c) is Fraction for c in q.terms.values())


@pytest.mark.parametrize("seed", range(20))
def test_quasihomogeneity_is_one_weighted_component(seed):
    rng = random.Random(seed)
    for ring in (XYZ, CUSP_RING):
        for p in (random_polynomial(rng, ring), random_quasihomogeneous(rng, ring, rng.choice((0, 2, 3, 6)))):
            assert p.is_quasihomogeneous() == (len(weighted_components(p)) <= 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PolyRing(["x", "2y"]), r"^variable names must be identifiers: \('x', '2y'\)$"),
        (lambda: XYZ.index("w"), r"^unknown variable 'w' in PolyRing\(x,y,z; weights 1,1,1\)$"),
        (lambda: XYZ.monomial((1, 2)), "^exponent tuple has wrong length$"),
        (lambda: PolyRing(["x", "t"], [1, 0]).monomials_of_weight(2), "^ring has zero-weight variables; an explicit cap"),
        (lambda: XYZ.var("x") ** -1, "^negative exponent$"),
        (lambda: XYZ.var("x").evaluate([1, 2]), "^wrong number of values$"),
    ],
    ids=["name", "index", "monomial", "zero-weight-piece", "power", "evaluate"],
)
def test_ring_and_polynomial_refusals(call, message):
    with pytest.raises(InputError, match=message):
        call()
