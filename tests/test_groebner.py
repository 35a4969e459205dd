"""Groebner bases and the ideal invariants derived from them."""

import collections
import itertools
import math
import random
from fractions import Fraction
from operator import neg
from pathlib import Path

import pytest

from leafalg import geom, groebner
from leafalg.cli import load_input
from leafalg.errors import DomainError, InputError
from leafalg.geom import Variety, _singularity_ring_gens, jacobian_chain
from leafalg.groebner import (
    INFINITE,
    LEX,
    WGREVLEX,
    _nf_terms,
    buchberger,
    colength_local,
    krull_dimension,
    minors,
    monomial_basis,
    normal_form,
    poincare_series,
)
from leafalg.poly import Polynomial, PolyRing, parse_poly

from oracles import (
    graded_member,
    graded_quotient_dims,
    leibniz_determinant,
    local_colength_brute,
    long_division_by_one_minus_u_power,
    numerator_text,
    random_polynomial,
    random_quasihomogeneous,
    weighted_components,
)

CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus"

XYZ = PolyRing(["x", "y", "z"])
XY = PolyRing(["x", "y"])
CUSP_RING = PolyRing(["x", "y"], [3, 2])


def polys(ring, *texts):
    return [parse_poly(t, ring) for t in texts]


def test_buchberger_already_reduced():
    gb = buchberger(polys(XY, "x", "y"))
    assert [str(g) for g in gb.elements] == ["y", "x"]


def test_buchberger_leading_ideals_distinguish_membership():
    # the two ideals from the plane-curve example differ exactly by y^4
    with_q = buchberger(polys(XY, "3*x^2+2*x*y", "x^2+4*y^3", "x^3+x^2*y+y^4"))
    without_q = buchberger(polys(XY, "3*x^2+2*x*y", "x^2+4*y^3"))
    y4 = parse_poly("y^4", XY)
    assert normal_form(y4, with_q).is_zero()
    assert not normal_form(y4, without_q).is_zero()
    assert set(with_q.leading_monomials()) != set(without_q.leading_monomials())


def test_buchberger_six_dimensional_quotient():
    gb = buchberger(polys(XYZ, "x^2+y^2+z^2", "x*y", "x*z", "y*z"))
    series = poincare_series(gb)
    assert series.total_dimension() == 6
    # frozen from the brute-force graded oracle
    assert graded_quotient_dims(polys(XYZ, "x^2+y^2+z^2", "x*y", "x*z", "y*z"), 4) == {
        0: 1,
        1: 3,
        2: 2,
        3: 0,
        4: 0,
    }


def test_buchberger_zero_and_unit_ideal():
    assert buchberger([XY.zero()], ring=XY).elements == []
    unit = buchberger(polys(XY, "x", "x + 1"))
    assert [str(g) for g in unit.elements] == ["1"]
    assert unit.is_unit_ideal()


def test_buchberger_permutation_invariance():
    rng = random.Random(23)
    for _ in range(8):
        gens = [random_quasihomogeneous(rng, XYZ, rng.randint(2, 4)) for _ in range(3)]
        reference = buchberger(gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled).elements == reference.elements


def test_normal_form_zero_and_membership():
    # weights (3, 2) make the curve equation homogeneous with leading x^2
    gb = buchberger(polys(CUSP_RING, "x^2 - y^3"))
    assert normal_form(CUSP_RING.zero(), gb).is_zero()
    assert normal_form(parse_poly("x^2", CUSP_RING), gb) == parse_poly("y^3", CUSP_RING)


def test_membership_agrees_with_graded_brute_force():
    rng = random.Random(29)
    for _ in range(20):
        gens = [
            random_quasihomogeneous(rng, XYZ, rng.randint(2, 3))
            for _ in range(rng.randint(1, 3))
        ]
        gb = buchberger(gens)
        # elements built inside the ideal must pass both routes
        member = XYZ.zero()
        for g in gens:
            member = member + random_quasihomogeneous(rng, XYZ, 4 - g.weighted_degree()) * g
        comps = weighted_components(member)
        for piece in comps.values():
            assert normal_form(piece, gb).is_zero() == graded_member(piece, gens)
        # random homogeneous candidates must agree too
        candidate = random_quasihomogeneous(rng, XYZ, rng.randint(2, 4))
        assert normal_form(candidate, gb).is_zero() == graded_member(candidate, gens)


def test_colength_point():
    assert colength_local(polys(XYZ, "x", "y", "z"), XYZ) == 1


def test_colength_cube():
    assert colength_local(polys(XYZ, "x^2", "y^2", "z^2"), XYZ) == 8
    assert local_colength_brute(polys(XYZ, "x^2", "y^2", "z^2")) == 8


def test_colength_quadric_ideal():
    gens = polys(XYZ, "x^2+y^2+z^2", "x*y", "x*z", "y*z")
    assert colength_local(gens, XYZ) == 6
    assert local_colength_brute(gens) == 6


def test_colength_nonisolated_is_infinite():
    assert colength_local(polys(XY, "x^2", "x*y"), XY) == INFINITE


def test_colength_inhomogeneous_local_ring():
    # x - x^2 cuts out {0, 1}; the local quotient at the origin is a point
    assert colength_local(polys(XY, "x - x^2", "y"), XY) == 1


def _local_germ(rng, ring, low, high, terms):
    """Random polynomial with terms of total degree low..high that is not
    weighted-homogeneous."""
    out = ring.zero()
    while out.is_zero() or out.is_quasihomogeneous():
        out = ring.zero()
        for _ in range(terms):
            expo = [0] * ring.arity
            for _ in range(rng.randint(low, high)):
                expo[rng.randrange(ring.arity)] += 1
            out = out + ring.monomial(tuple(expo), rng.choice([-3, -2, -1, 1, 2, 3]))
    return out


def _isolated_germ(rng, ring):
    """One generator x_i^a_i + (random terms of degree 2..3) per variable,
    a generic system with an isolated zero at the origin; a_i <= 3 in the
    plane and 2 in space keep the brute oracle quick."""
    top = 3 if ring.arity == 2 else 2
    out = []
    for i in range(ring.arity):
        expo = tuple(rng.randint(2, top) if j == i else 0 for j in range(ring.arity))
        out.append(ring.monomial(expo) + _local_germ(rng, ring, 2, 3, 2))
    return out


@pytest.mark.parametrize("ring", [XY, XYZ], ids=["plane", "space"])
@pytest.mark.parametrize("seed", range(5))
def test_colength_local_matches_brute_on_germs(ring, seed):
    gens = _isolated_germ(random.Random(400 + seed), ring)
    assert colength_local(gens, ring) == local_colength_brute(gens)


@pytest.mark.parametrize("seed", range(4))
def test_colength_local_matches_brute_on_complete_intersection_chains(seed):
    rng = random.Random(600 + seed)
    f = parse_poly("x^2 + y^3 + z^3", XYZ) + _local_germ(rng, XYZ, 3, 4, 2)
    g = parse_poly("x*y + z^2", XYZ) + _local_germ(rng, XYZ, 3, 4, 2)
    for gens in jacobian_chain(Variety(XYZ, [f, g])):
        assert colength_local(gens, XYZ) == local_colength_brute(gens)


def test_colength_local_inputs_that_stall_other_methods():
    # inputs measured to stall a homogenized Buchberger (the first, over
    # 100x slower) and Mora's normal form without truncation (the second)
    plane = parse_poly("-x^4*y^3 - 2*x^2*y^5 + 5*x^4 + 4*y^3 + 3*x*y", XY)
    j1 = jacobian_chain(Variety(XY, [plane]))[0]
    assert colength_local(j1, XY) == 1 == local_colength_brute(j1)
    f = parse_poly("x*y*z^3 - 2*x*y*z^2 + y^3 + x^2 + 4*z^2", XYZ)
    g = parse_poly("-2*x*y^2*z^3 + 3*y^3 + 3*x^2 + 4*y^2 + 5*z^2", XYZ)
    j2 = jacobian_chain(Variety(XYZ, [f, g]))[1]
    assert colength_local(j2, XYZ) == 7 == local_colength_brute(j2)


def test_local_colength_brute_skips_zero_generators():
    gens = polys(XY, "x^2 + y^3", "x*y")
    assert local_colength_brute([XY.zero()] + gens) == local_colength_brute(gens) == 5
    assert local_colength_brute(gens + [XY.zero()]) == 5


def test_colength_local_zero_weight_ring():
    # zero weights rule out the graded shortcut, even for an ideal whose
    # generators are weighted-homogeneous
    ring = PolyRing(["x", "y", "t"], [1, 1, 0])
    flat = PolyRing(["x", "y", "t"])
    for texts in [("x^2", "y^2", "t^3"), ("x^2 + t^3", "y^2 - x*t", "t^4 + x*y")]:
        gens = polys(ring, *texts)
        assert colength_local(gens, ring) == colength_local(polys(flat, *texts), flat)
        assert colength_local(gens, ring) == local_colength_brute(gens)
    assert colength_local(polys(ring, "x^2", "y"), ring) == INFINITE


def test_colength_local_inhomogeneous_bounds():
    # x = 0 through the origin, not a graded ideal: seen only past the cap
    assert colength_local(polys(XY, "x^2 - x^3", "x*y"), XY) == INFINITE
    # zero-dimensional, but the origin alone needs more than m^64
    with pytest.raises(DomainError, match="m\\^64"):
        colength_local(polys(XY, "x^70 + x^71", "y"), XY)


def test_colength_local_inhomogeneous_generators_of_graded_ideals():
    # the generators pick the route: these take the local one, and past
    # the cap the global Krull dimension decides
    assert colength_local(polys(XY, "x^2 + x*y^3", "x*y^3"), XY) == INFINITE
    assert colength_local(polys(XY, "x^2 + y^3", "y^3"), XY) == 6


def test_colength_local_builds_a_global_basis_only_where_it_reads_one(monkeypatch):
    calls = []
    real = groebner.buchberger

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counted)
    for texts, value, bases in [
        (("x^2 + y^2", "x*y"), 4, 1),  # graded: the Poincare series
        (("x - x^2", "y"), 1, 0),  # local bases settle it
        (("x^2 - x^3", "x*y"), INFINITE, 1),  # past the cap: the Krull dimension
    ]:
        calls.clear()
        assert colength_local(polys(XY, *texts), XY) == value
        assert len(calls) == bases


def local_route(gens, ring):
    """The truncated local route of ``colength_local``, on any generators."""
    gens = [g for g in gens if not g.is_zero()]
    n = 2
    while n <= groebner.COLENGTH_CAP:
        _, leads, below = groebner._complete(gens, ring, groebner._local_key, below=n)
        if below < n:
            return len(groebner._staircase([lm for lm, _ in leads], ring.arity, below))
        n *= 2
    return INFINITE


LOCAL_ROUTE_CORPUS = (
    [f"fermat{n}" for n in range(3, 7)]
    + [f"{c}_curve" for c in ("a2", "a3", "a5", "d4", "d5", "d6", "e6", "e7", "e8")]
    + ["e8_surface", "two_quadrics_c4"]
)


@pytest.mark.parametrize("name", LOCAL_ROUTE_CORPUS)
def test_local_route_equals_graded_colength_on_the_corpus(name):
    # graded generators never reach the local route in colength_local,
    # so it is checked here on every chain ideal and singularity ideal;
    # the two quadrics are not isolated, and there both read INFINITE
    doc = load_input(str(CORPUS / f"{name}.json"))
    X = Variety(doc.ring, doc.ideal)
    for gens in jacobian_chain(X) + [_singularity_ring_gens(X)]:
        series = poincare_series(buchberger(gens, ring=X.ring))
        assert local_route(gens, X.ring) == series.total_dimension()


def test_colength_matches_series_for_graded_origin_ideals():
    rng = random.Random(31)
    for _ in range(6):
        gens = [
            random_quasihomogeneous(rng, XY, rng.randint(2, 4)),
            random_quasihomogeneous(rng, XY, rng.randint(2, 4)),
            parse_poly("x^5", XY),
            parse_poly("y^5", XY),
        ]
        gb = buchberger(gens)
        series = poincare_series(gb)
        assert series.finite
        assert colength_local(gens, XY) == series.total_dimension()


def test_krull_dimension_examples():
    assert krull_dimension(buchberger(polys(XY, "x"))) == 1
    assert krull_dimension(buchberger(polys(XY, "1/2"))) == -1
    assert krull_dimension(buchberger(polys(XYZ, "x*y", "x*z", "y*z"))) == 1
    assert krull_dimension(buchberger([XYZ.zero()], ring=XYZ)) == 3


def random_u_polynomial(rng, low, high):
    """Exponent -> nonzero coefficient at up to six exponents in [low, high]."""
    sizes = (1, 1, 2, 3, 17)
    return {rng.randint(low, high): rng.choice((-1, 1)) * rng.choice(sizes) for _ in range(rng.randint(0, 6))}


def times_one_minus_u_power(q, w):
    """q * (1 - u^w), coefficient by coefficient."""
    out = {e: q.get(e, 0) - q.get(e - w, 0) for e in q.keys() | {e + w for e in q}}
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("seed", range(40))
def test_exact_division_by_one_minus_u_power_matches_long_division(seed):
    # divisible, non-divisible, empty and negative-exponent numerators
    rng = random.Random(seed)
    for _ in range(20):
        for w in range(1, 7):
            q = random_u_polynomial(rng, 0, 9)
            laurent = random_u_polynomial(rng, -4, 9)
            for num in (times_one_minus_u_power(q, w), random_u_polynomial(rng, 0, 12), {}, laurent):
                assert groebner._try_divide(num, w) == long_division_by_one_minus_u_power(num, w)
            assert groebner._try_divide(times_one_minus_u_power(q, w), w) == q
            if min(laurent, default=0) < 0:
                assert groebner._try_divide(times_one_minus_u_power(laurent, w), w) is None


def test_a_quotient_below_exponent_0_is_refused():
    # (u^-1 - u^(w-1)) / (1 - u^w) = u^-1 is not in Z[u]
    for w in range(1, 7):
        assert groebner._try_divide({-1: 1, w - 1: -1}, w) is None
        assert groebner._try_divide({0: 1, w: -1}, w) == {0: 1}


@pytest.mark.parametrize("seed", range(40))
def test_the_u_polynomial_printer_matches_the_series_printer(seed):
    # negative coefficients and negative exponents, as corrected layers have
    rng = random.Random(seed)
    for _ in range(100):
        num = random_u_polynomial(rng, -5, 11)
        assert groebner.u_polynomial_text(num) == numerator_text(num)


def test_poincare_series_cube():
    series = poincare_series(buchberger(polys(XYZ, "x^2", "y^2", "z^2")))
    assert series.finite
    assert series.coefficients() == {0: 1, 1: 3, 2: 3, 3: 1}
    assert series.coefficients() == graded_quotient_dims(polys(XYZ, "x^2", "y^2", "z^2"), 3)


def test_poincare_series_weighted():
    series = poincare_series(buchberger(polys(CUSP_RING, "2*x", "-3*y^2", "x^2-y^3")))
    assert series.finite
    assert series.coefficients() == {0: 1, 2: 1}
    assert str(series) == "1 + u^2"


def test_poincare_series_free_ring():
    ring = PolyRing(["x"])
    series = poincare_series(buchberger([ring.zero()], ring=ring))
    assert not series.finite
    assert series.numerator == {0: 1}
    assert series.denominator == (1,)
    assert series.expand(4) == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}


def test_poincare_series_rejects_inhomogeneous():
    with pytest.raises(DomainError, match="not weighted-homogeneous"):
        poincare_series(buchberger(polys(XY, "x + y^2")))


def test_poincare_series_unit_ideal_is_zero():
    series = poincare_series(buchberger(polys(XY, "1")))
    assert series.finite
    assert series.total_dimension() == 0
    assert series.socle_degree() == -1


def test_minors_of_gradient_pair():
    mat = [polys(XYZ, "2*x", "2*y", "2*z"), polys(XYZ, "2*x", "4*y", "6*z")]
    result = minors(mat, 2)
    assert [str(p) for p in result] == ["4*x*y", "8*x*z", "4*y*z"]


def test_minors_size_one_returns_entries():
    mat = [polys(XYZ, "x", "y")]
    assert minors(mat, 1) == polys(XYZ, "x", "y")


def test_minors_diagonal_determinant():
    zero = XYZ.zero()
    x, y, z = XYZ.gens()
    mat = [[x, zero, zero], [zero, y, zero], [zero, zero, z]]
    assert minors(mat, 3) == [x * y * z]


def test_minors_alternating_in_rows():
    rng = random.Random(37)
    rows = [
        [XYZ.var(v).scale(rng.randint(1, 3)) + XYZ.monomial((1, 1, 0), rng.randint(-2, 2)) for v in XYZ.variables]
        for _ in range(3)
    ]
    swapped = [rows[1], rows[0], rows[2]]
    # the full determinant flips sign
    assert minors(rows, 3)[0] == -minors(swapped, 3)[0]
    # 2x2 minors over the swapped row pair {0,1} flip sign; the others permute
    original = minors(rows, 2)
    flipped = minors(swapped, 2)
    assert original[:3] == [-p for p in flipped[:3]]
    assert original[3:6] == flipped[6:9]
    assert original[6:9] == flipped[3:6]


def test_minors_match_leibniz_determinant():
    # square and non-square matrices with some zero entries; every minor
    # against a sum over permutations, which shares no sub-minors
    rng = random.Random(53)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[random_polynomial(rng, XY, max_degree=2, terms=2) for _ in range(ncols)] for _ in range(nrows)]
        for size in range(1, min(nrows, ncols) + 1):
            expected = [
                leibniz_determinant([[mat[r][c] for c in cols] for r in rows], XY)
                for rows in itertools.combinations(range(nrows), size)
                for cols in itertools.combinations(range(ncols), size)
            ]
            assert minors(mat, size) == expected


def test_minors_match_leibniz_determinant_over_rationals():
    # entries with their own denominators, so rows clear to different D_r
    rng = random.Random(67)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        mat = [
            [
                random_polynomial(rng, XY, max_degree=2, terms=2).scale(
                    Fraction(rng.randint(1, 7), rng.randint(1, 9))
                )
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        for size in range(1, min(nrows, ncols) + 1):
            expected = [
                leibniz_determinant([[mat[r][c] for c in cols] for r in rows], XY)
                for rows in itertools.combinations(range(nrows), size)
                for cols in itertools.combinations(range(ncols), size)
            ]
            assert minors(mat, size) == expected


def test_minors_out_of_range():
    with pytest.raises(InputError):
        minors([polys(XY, "x", "y")], 2)


def test_monomial_basis_weighted():
    gb = buchberger(polys(CUSP_RING, "x^2 - y^3"))
    assert monomial_basis(gb, 6) == [(0, 3)]
    assert monomial_basis(gb, 0) == [(0, 0)]
    assert monomial_basis(buchberger(polys(CUSP_RING, "1")), 0) == []


def test_monomial_basis_degree_two():
    gb = buchberger(polys(XYZ, "x^2", "y^2", "z^2"))
    assert sorted(monomial_basis(gb, 2)) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_monomial_basis_is_kept_per_basis_and_degree(monkeypatch):
    calls = []
    enumerate_weight = PolyRing.monomials_of_weight

    def counted(ring, *args):
        calls.append(args)
        return enumerate_weight(ring, *args)

    monkeypatch.setattr(PolyRing, "monomials_of_weight", counted)
    gx, gy = buchberger(polys(XY, "x^2")), buchberger(polys(XY, "y^2"))
    first = monomial_basis(gx, 2)
    assert first == [(0, 2), (1, 1)] and len(calls) == 1
    assert monomial_basis(gx, 2) is first and len(calls) == 1
    assert monomial_basis(gy, 2) == [(1, 1), (2, 0)] and len(calls) == 2
    assert monomial_basis(gx, 2) == [(0, 2), (1, 1)]


def test_monomial_basis_counts_match_series():
    gens = polys(XYZ, "x^2+y^2+z^2", "x*y", "x*z", "y*z")
    gb = buchberger(gens)
    series = poincare_series(gb)
    total = sum(len(monomial_basis(gb, d)) for d in range(0, series.socle_degree() + 3))
    assert total == series.total_dimension()


def test_series_expansion_matches_basis_counts_when_infinite():
    # (xy) cuts out the two axes: 1, 2, 2, 2, ... standard monomials
    gb = buchberger(polys(XY, "x*y"))
    series = poincare_series(gb)
    assert not series.finite
    expanded = series.expand(6)
    for d in range(0, 7):
        assert expanded[d] == len(monomial_basis(gb, d))
    assert expanded[6] == 2


def test_lex_order_supported():
    gb = buchberger(polys(XY, "x^2 - y^3"), order=LEX)
    # under lex with x > y the leading monomial is x^2 as well
    assert normal_form(parse_poly("x^2", XY), gb) == parse_poly("y^3", XY)
    gb2 = buchberger(polys(XY, "x - y^3"), order=LEX)
    assert normal_form(parse_poly("x", XY), gb2) == parse_poly("y^3", XY)


def test_wgrevlex_prefers_weighted_degree():
    gb = buchberger(polys(CUSP_RING, "x^2 - y^4"))
    # x^2 has weight 6, y^4 weight 8: leading monomial is y^4
    assert gb.leading_monomials() == [(0, 4)]


def test_basis_invariants_spolys_and_reducedness():
    # every S-polynomial of basis elements reduces to zero; the basis is
    # monic and no term of any element is divisible by another's lead
    from leafalg.poly import mono_div, mono_divides, mono_lcm

    rng = random.Random(97)
    for _ in range(6):
        gens = [
            random_quasihomogeneous(rng, XYZ, rng.randint(2, 4))
            for _ in range(rng.randint(2, 3))
        ]
        gb = buchberger(gens)
        key = gb.order(gb.ring)
        leads = gb.leading_monomials()
        for a in range(len(gb.elements)):
            ga = gb.elements[a]
            assert ga.terms[leads[a]] == 1  # monic
            for other, lm in zip(gb.elements, leads):
                if other is ga:
                    continue
                assert not any(mono_divides(lm, m) for m in ga.terms)
            for b in range(a + 1, len(gb.elements)):
                gbb = gb.elements[b]
                lcm = mono_lcm(leads[a], leads[b])
                spoly = (
                    gb.ring.monomial(mono_div(lcm, leads[a])) * ga
                    - gb.ring.monomial(mono_div(lcm, leads[b])) * gbb
                )
                assert normal_form(spoly, gb).is_zero()


def test_normal_form_constant_on_cosets():
    # NF(p + i) == NF(p) for ideal members i: the remainder is a
    # well-defined function of the residue class
    rng = random.Random(101)
    gens = [random_quasihomogeneous(rng, XYZ, 3) for _ in range(2)]
    gb = buchberger(gens)
    for _ in range(10):
        p = random_quasihomogeneous(rng, XYZ, 4)
        member = gens[0] * random_quasihomogeneous(rng, XYZ, 4 - gens[0].weighted_degree())
        assert normal_form(p + member, gb) == normal_form(p, gb)


def test_zero_weight_ring_order_is_well_founded():
    # with a zero-weight variable the total degree must break the tie,
    # otherwise division by t^2 - t would never terminate
    ring = PolyRing(["x", "t"], [1, 0])
    gb = buchberger([parse_poly("t - t^2", ring)])
    assert gb.leading_monomials() == [(0, 2)]
    assert normal_form(parse_poly("t^2", ring), gb) == parse_poly("t", ring)


def corpus_ideal(name):
    return load_input(str(CORPUS / f"{name}.json")).ideal


def random_poly(rng, ring, top=7, terms=8):
    """A few terms of total degree <= top with small rational coefficients."""
    monos = [m for m in itertools.product(range(top + 1), repeat=ring.arity) if sum(m) <= top]
    return Polynomial(
        ring, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for m in rng.sample(monos, terms)}
    )


ZERO_WEIGHT = PolyRing(["x", "y", "t"], [1, 1, 0])


TABLE_CASES = {
    "fermat quartic": lambda: buchberger(polys(XYZ, "x^4 + y^4 + z^4")),
    "weighted cusp": lambda: buchberger(polys(CUSP_RING, "x^2 - y^3")),
    "katsura3 lex": lambda: buchberger(corpus_ideal("katsura3"), LEX),
    "katsura3 wgrevlex": lambda: buchberger(corpus_ideal("katsura3")),
    "non-homogeneous": lambda: buchberger(polys(XYZ, "x^2 - y + 1", "y*z - x^3", "z^2 - 2*x")),
    "zero weight": lambda: buchberger(polys(ZERO_WEIGHT, "x^2 + t^3", "y^2 - x*t", "t^4 + x*y")),
    # the rational systems that do not generate the unit ideal
    **{f"rational system {i}": (lambda i=i: buchberger(rational_systems()[i])) for i in (1, 2, 3, 6)},
    # integer copies that lead with 14, and with 2, 36000, 30 and 9
    "rational quartic": lambda: buchberger(polys(XYZ, "2/3*x^4 + y^4 - 5/7*z^4 + x^2*y^2")),
    "rational non-homogeneous": lambda: buchberger(
        polys(XYZ, "3/2*x^2 - y + 1/3", "y*z - 5/7*x^3", "2*z^2 - x")
    ),
}


def exact(nf):
    """The ``(row, den)`` of ``_nf_terms`` as ``{monomial: Fraction}``."""
    row, den = nf
    return {m: Fraction(c) / den for m, c in row.items()}


@pytest.mark.parametrize("seed, name", enumerate(TABLE_CASES))
def test_tabled_normal_form_matches_normal_form(seed, name):
    gb = TABLE_CASES[name]()
    rng = random.Random(seed)
    for _ in range(25):
        p = random_poly(rng, gb.ring)
        assert exact(_nf_terms(gb, p.terms)) == normal_form(p, gb).terms
    # members reduce to nothing, through rows already in the table
    for g in gb.elements:
        assert _nf_terms(gb, (g * random_poly(rng, gb.ring, top=3, terms=3)).terms)[0] == {}


@pytest.mark.parametrize("name", TABLE_CASES)
def test_normal_form_is_linear_over_rationals(name):
    gb = TABLE_CASES[name]()
    rng = random.Random(59)
    for _ in range(10):
        p = random_poly(rng, gb.ring)
        c = Fraction(rng.choice([-5, -1, 2, 7]), rng.choice([1, 2, 3, 7]))
        assert normal_form(p.scale(c), gb) == normal_form(p, gb).scale(c)


@pytest.mark.parametrize("name", TABLE_CASES)
def test_integer_elements_are_primitive_with_positive_leads(name):
    # the rational systems lead with negative coefficients before the sign
    # is fixed, and katsura3's inter-reduced elements carry content 5 to 293964300
    gb = TABLE_CASES[name]()
    elements, leads = gb._integer
    assert len(elements) == len(leads) == len(gb.elements) > 0
    for g, t, (lm, lc) in zip(gb.elements, elements, leads):
        assert all(type(c) is int for c in t.values()) and math.gcd(*t.values()) == 1
        assert max(t, key=gb._key) == lm and t[lm] == lc > 0
        # the elements are the monic copies
        assert g.terms == {m: Fraction(c, lc) for m, c in t.items()}
    assert gb.leading_monomials() == [lm for lm, _ in leads]


@pytest.mark.parametrize("name", ["rational quartic", "rational non-homogeneous"])
def test_table_rows_are_primitive_integer_rows_over_denominators(name):
    gb = TABLE_CASES[name]()
    rng = random.Random(61)
    for _ in range(10):
        p = random_poly(rng, gb.ring)
        assert exact(_nf_terms(gb, p.terms)) == normal_form(p, gb).terms
    assert any(lc != 1 for _, lc in gb._integer[1])
    rows = list(gb._table.values())
    assert any(den != 1 for _, den in rows)
    for row, den in rows:
        assert den > 0 and all(type(c) is int for c in row.values())
        assert math.gcd(den, *row.values()) == 1


def test_tabled_normal_form_of_a_long_chain_needs_no_recursion():
    # x^3000 -> x^2999*y -> ... -> y^3000, one table row per link
    gb = buchberger(polys(XY, "x - y"))
    assert exact(_nf_terms(gb, {(3000, 0): Fraction(2)})) == {(0, 3000): 2}


def counted_reductions(monkeypatch) -> list:
    """A list that gets one entry per ``_reduce_full`` call from now on."""
    calls = []
    reduce_full = groebner._reduce_full

    def counted(*args, **kwargs):
        calls.append(1)
        return reduce_full(*args, **kwargs)

    monkeypatch.setattr(groebner, "_reduce_full", counted)
    return calls


@pytest.mark.parametrize(
    "name, reductions, size",
    [("cyclic4", 19, 7), ("katsura3", 19, 7), ("katsura4", 44, 13)],
)
def test_buchberger_pair_order_is_pinned(monkeypatch, name, reductions, size):
    # counts measured when pairs were picked by a full rescan of the
    # queue: the same reductions prove the same S-pairs in the same order
    calls = counted_reductions(monkeypatch)
    gb = buchberger(corpus_ideal(name))
    assert (len(calls), len(gb.elements)) == (reductions, size)


def test_a_miss_is_checked_again_against_appended_leads():
    # x*y is no multiple of x^2, so the table records a miss there; once
    # 2y - 1 is appended, as the completion appends, x*y must reduce
    key = groebner._heap_key(XY, WGREVLEX(XY))
    basis, leads, steps = [{(2, 0): 1}], [((2, 0), 1)], {}
    p = {(1, 1): 3, (0, 0): 1}
    assert groebner._reduce_full(p, basis, leads, key, steps) == (p, 1)
    assert steps[(1, 1)] == 1
    basis.append({(0, 1): 2, (0, 0): -1})
    leads.append(((0, 1), 2))
    # 2 * (3xy + 1) = 3x * (2y - 1) + 3x + 2
    assert groebner._reduce_full(p, basis, leads, key, steps) == ({(1, 0): 3, (0, 0): 2}, 2)
    assert groebner._reduce_full(p, basis, leads, key, {}) == ({(1, 0): 3, (0, 0): 2}, 2)


def test_a_cached_tail_is_truncated_at_a_lower_bound():
    # under the local order x leads x - y^2 + y^3, so x*y steps to
    # y^3 - y^4; the tail is kept whole and truncated at each use
    basis, leads, steps = [{(1, 0): 1, (0, 2): -1, (0, 3): 1}], [((1, 0), 1)], {}
    p = {(1, 1): 1}

    def reduce(below):
        return groebner._reduce_full(p, basis, leads, groebner._heap_key(XY, groebner._local_key), steps, below)

    assert reduce(5) == ({(0, 3): 1, (0, 4): -1}, 1)
    step = steps[(1, 1)]
    assert reduce(4) == ({(0, 3): 1}, 1)
    assert reduce(3) == ({}, 1)
    assert steps[(1, 1)] is step


def test_the_step_table_bounds_the_divisibility_tests(monkeypatch):
    # 45 173 lead tests on cyclic-5 before the table (18 400 with it)
    calls = []
    divides = groebner.mono_divides

    def counted(a, b):
        calls.append(1)
        return divides(a, b)

    monkeypatch.setattr(groebner, "mono_divides", counted)
    assert len(buchberger(corpus_ideal("cyclic5")).elements) == 20
    assert len(calls) <= 25_000


def with_dependents(rng, gens):
    """The generators followed by three rational linear combinations of
    one to three of them and a duplicate of one of them."""
    ring = gens[0].ring
    extra = []
    for _ in range(3):
        chosen = rng.sample(gens, rng.randint(1, min(3, len(gens))))
        scales = [Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 5))) for _ in chosen]
        combo = sum((g * c for g, c in zip(chosen, scales)), ring.zero())
        if not combo.is_zero():
            extra.append(combo)
    return gens + extra + [rng.choice(gens)]


def seed_filter_cases():
    cases = [(name, corpus_ideal(name)) for name in ("cyclic4", "katsura3", "katsura4")]
    doc = load_input(str(CORPUS / "fermat4.json"))
    X = Variety(doc.ring, doc.ideal)
    cases += [(f"fermat4_J{i}", gens) for i, gens in enumerate(jacobian_chain(X), start=1)]
    cases.append(("fermat4_singularity", _singularity_ring_gens(X)))
    return [pytest.param(name, gens, id=name) for name, gens in cases]


@pytest.mark.parametrize("name, gens", seed_filter_cases())
def test_generators_in_the_span_of_earlier_ones_are_skipped(monkeypatch, name, gens):
    # a combination of generators lies in their ideal, so the basis is
    # the same.  Full reduction by the earlier seeds is linear and kills
    # their span, so of two generators that differ by such a combination
    # the one seeded reduces to the same element up to sign: no extra work
    calls = counted_reductions(monkeypatch)
    gb = buchberger(gens)
    reductions = len(calls)
    rng = random.Random(sum(map(ord, name)))
    for _ in range(3):
        calls.clear()
        assert buchberger(with_dependents(rng, gens)) == gb
        assert len(calls) == reductions


def test_rank_strata_reductions_are_pinned(monkeypatch):
    # so3_squares's 3 x 3 minors are 455 polynomials of which 409 are
    # nonzero; their span is much smaller, so most are never reduced
    # (790 reductions in all before the seed filter)
    calls = counted_reductions(monkeypatch)
    per_stratum = []
    build = geom.buchberger

    def counted_build(*args, **kwargs):
        before = len(calls)
        gb = build(*args, **kwargs)
        per_stratum.append((len(calls) - before, len(gb.elements)))
        return gb

    monkeypatch.setattr(geom, "buchberger", counted_build)
    doc = load_input(str(CORPUS / "so3_squares.json"))
    strata = geom.rank_strata(Variety(doc.ring, doc.ideal, doc.structure))
    assert [(s.rank, s.dimension) for s in strata] == [(0, 0), (1, 0), (2, 0), (3, 3)]
    assert per_stratum == [(18, 3), (74, 6), (161, 15), (0, 0)]


def monic_terms(terms):
    """A polynomial as a set of (monomial, coefficient), scaled by one fixed
    rule (coefficient of the lexicographically largest monomial is 1) so
    that elements equal up to a constant compare equal."""
    scale = terms[max(terms)]
    return frozenset((m, c / scale) for m, c in terms.items())


def random_system(rng, coefficients=(-3, -2, -1, 1, 2, 3)):
    """Two or three trinomials (constant plus two terms of degree 1..3,
    drawn from ``coefficients``) in two or three variables of weight 1."""
    ring = PolyRing(["x", "y", "z"][: rng.randint(2, 3)])
    monos = [m for d in range(1, 4) for m in ring.monomials_of_weight(d)]
    gens = []
    for _ in range(rng.randint(2, 3)):
        g = ring.const(rng.randint(-2, 2))
        for m in rng.sample(monos, 2):
            g = g + ring.monomial(m, rng.choice(coefficients))
        gens.append(g)
    return gens


def rational_systems():
    """Random systems whose coefficients are not integers."""
    rng = random.Random(43)
    fractions = [Fraction(-5, 7), Fraction(7, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(-9, 5)]
    return [random_system(rng, fractions) for _ in range(8)]


def differential_cases():
    rng = random.Random(41)
    systems = [corpus_ideal("cyclic4"), corpus_ideal("katsura3")]
    systems += [random_system(rng) for _ in range(12)]
    systems += rational_systems()
    # generators in the span of earlier ones, which the completion skips
    systems += [with_dependents(rng, gens) for gens in systems[:8]]
    cases = [(gens, order) for gens in systems for order in (WGREVLEX, LEX)]
    # the largest corpus systems in grevlex only: lex on katsura4 runs for minutes
    return cases + [(corpus_ideal(name), WGREVLEX) for name in ("cyclic5", "katsura4")]


def test_buchberger_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for gens, order in differential_cases():
        ring = gens[0].ring
        symbols = sympy.symbols(ring.variables)
        exprs = [
            sympy.Poly.from_dict(
                {m: sympy.Rational(c.numerator, c.denominator) for m, c in g.terms.items()}, *symbols
            ).as_expr()
            for g in gens
        ]
        theirs = sympy.groebner(exprs, *symbols, order="grevlex" if order == WGREVLEX else "lex")
        expected = {
            monic_terms({m: Fraction(int(c.p), int(c.q)) for m, c in sympy.Poly(g, *symbols).terms()})
            for g in theirs.exprs
        }
        ours = {monic_terms(g.terms) for g in buchberger(gens, order, ring=ring).elements}
        assert ours == expected, (gens, order)


def test_memoized_keys_equal_their_formulas():
    # seeded random monomials, a zero-weight ring among the rings: the
    # order keys read from the ring's table are their formulas written
    # out, each is made once, and the heap key is the negated order key
    rng = random.Random(71)
    for weights in ((1, 1, 1), (3, 2, 5, 1), (1, 0, 2), (0, 0, 1, 4)):
        ring = PolyRing([f"x{i}" for i in range(len(weights))], weights)
        keys = [WGREVLEX(ring), groebner._local_order(ring), LEX(ring)]
        heaps = [groebner._heap_key(ring, key) for key in keys]
        for _ in range(300):
            m = tuple(rng.choice((0, 0, 1, 2, 3, 7)) for _ in weights)
            degree = sum(w * e for w, e in zip(weights, m))
            tiebreak = tuple(-e for e in reversed(m))
            grevlex = (degree, sum(m), *tiebreak) if 0 in weights else (degree, *tiebreak)
            assert [key(m) for key in keys] == [grevlex, (-sum(m), *tiebreak), m]
            assert WGREVLEX(ring)(m) is keys[0](m) and groebner._local_order(ring)(m) is keys[1](m)
            for key, heap in zip(keys, heaps):
                assert heap(m) == tuple(-k for k in key(m))
                assert groebner._heap_key(ring, key)(m) is heap(m)


def memo_builds(monkeypatch):
    """A Counter of (column name, monomial) -> formula calls, for every
    column of a monomial table made from now on."""
    builds = collections.Counter()
    column = PolyRing.column

    def counted(ring, name, formula):
        def tallied(m):
            builds[name, m] += 1
            return formula(m)

        return column(ring, name, tallied)

    monkeypatch.setattr(PolyRing, "column", counted)
    return builds


def test_each_order_key_is_built_once_per_monomial(monkeypatch):
    # a cyclic-5 completion keys each distinct monomial once under
    # grevlex and once for the reducer's heap, however often it recurs;
    # a fresh ring, so that no earlier test has filled its table
    ideal = corpus_ideal("cyclic5")
    ring = PolyRing(ideal[0].ring.variables, ideal[0].ring.weights)
    gens = [Polynomial(ring, g.terms) for g in ideal]
    builds = memo_builds(monkeypatch)
    gb = buchberger(gens)
    assert len(gb.elements) == 20
    assert {name for name, _ in builds} == {WGREVLEX, (neg, gb._key)}
    assert set(builds.values()) == {1}
    assert len(builds) == sum(map(len, ring._columns.values())) > 0
    # the local order of a non-homogeneous colength: its key and heap key
    builds.clear()
    local = PolyRing(["x", "y"])
    assert colength_local(polys(local, "x^2 - y^3 + x*y^3", "x*y - y^4"), local) == local_colength_brute(
        polys(local, "x^2 - y^3 + x*y^3", "x*y - y^4")
    )
    assert {name for name, _ in builds} == {groebner._local_key, (neg, groebner._local_order(local))}
    assert set(builds.values()) == {1}


def test_order_keys_match_their_definitions():
    # the grevlex and local keys as flat tuples, written out one step
    # per exponent
    rng = random.Random(67)
    for weights in ((2, 1, 3, 1), (1, 0, 2, 1)):
        ring = PolyRing(["a", "b", "c", "d"], weights)
        key = WGREVLEX(ring)
        for _ in range(200):
            m = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in weights)
            degree = sum(w * e for w, e in zip(weights, m))
            tiebreak = tuple(-e for e in reversed(m))
            if 0 in weights:
                assert key(m) == (degree, sum(m), *tiebreak)
            else:
                assert key(m) == (degree, *tiebreak)
            assert groebner._local_key(m) == (-sum(m), *tiebreak)


INFINITE_SERIES = poincare_series(buchberger(polys(XY, "x")))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: normal_form(XY.var("x"), buchberger(polys(XYZ, "x"))), InputError, "^ring mismatch between"),
        (lambda: buchberger([]), InputError, "^cannot infer the ring from an empty generator list$"),
        (lambda: buchberger([XY.var("x"), XYZ.var("x")]), InputError, "^generators live in different rings$"),
        (lambda: INFINITE_SERIES.coefficient(0), DomainError, "^per-degree coefficients of an infinite series: expand"),
        (lambda: INFINITE_SERIES.coefficients(), DomainError, "^infinite series has no finite coefficient table$"),
        (lambda: INFINITE_SERIES.socle_degree(), DomainError, "^infinite series has no socle degree$"),
        (lambda: minors([], 1), InputError, "^empty matrix$"),
        (lambda: minors([[]], 1), InputError, "^empty matrix$"),
        (lambda: minors([polys(XY, "x", "y"), polys(XY, "x")], 1), InputError, "^ragged matrix$"),
    ],
    ids=["normal-form-ring", "no-generators", "mixed-rings", "coefficient", "coefficients", "socle", "no-rows",
         "no-columns", "ragged"],
)
def test_library_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_colength_local_of_a_unit_is_zero():
    # 1 + x is a unit in the local ring: the local route sees the constant lead
    assert colength_local(polys(XY, "1 + x"), XY) == 0 == local_colength_brute(polys(XY, "1 + x"))
