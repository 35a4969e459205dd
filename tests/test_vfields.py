"""Vector fields, the Jacobian pairing, Hamiltonian constructions,
truncated solvers."""

import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from leafalg import groebner, linalg, vfields
from leafalg.cli import load_input
from leafalg.errors import DomainError, InputError
from leafalg.geom import JacobianPolyvector, Variety, jacobian_bracket_matrix
from leafalg.groebner import buchberger, poincare_series
from leafalg.linalg import _integer_components
from leafalg.poly import Polynomial, PolyRing, parse_poly
from leafalg.vfields import (
    IncompressibilityReport,
    JacobiStructure,
    VectorField,
    VectorFieldFamily,
    derivation_generators,
    derivations_up_to_degree,
    exceptional_ideal,
    field_from_form,
    form_slots,
    hamiltonian_family_top,
    incompressibility_truncated,
    integer_pairing,
    jacobi_bracket,
    jacobi_hamiltonian,
    jacobian_pairing,
    lie_closure,
    module_generators,
    standard_contact,
    tangency_check,
    top_polyvector_field,
)

from oracles import (
    all_pairs_lie_closure,
    all_slot_syzygies,
    apply_by_partials,
    fraction_tangency,
    leibniz_determinant,
    permutation_sign,
    random_polynomial,
    random_quasihomogeneous,
)

XYZ = PolyRing(["x", "y", "z"])
XY = PolyRing(["x", "y"])
XYZW = PolyRing(["x", "y", "z", "w"])
XYZWV = PolyRing(["x", "y", "z", "w", "v"])
CUSP_RING = PolyRing(["x", "y"], [3, 2])
CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus"
VECTOR_FIELD_DOCS = ("so3_squares", "cusp_fields", "line_fields")


def polys(ring, *texts):
    return [parse_poly(t, ring) for t in texts]


def field(ring, *texts):
    return VectorField(ring, polys(ring, *texts))


def cusp_tangent():
    # the volume-preserving generator tangent to the cuspidal curve
    return field(CUSP_RING, "3*y^2", "2*x")


def test_apply_kills_curve_equation():
    f = parse_poly("x^2 - y^3", CUSP_RING)
    assert cusp_tangent().apply(f).is_zero()


def test_apply_coordinate():
    assert VectorField.coordinate(XY, "x").apply(parse_poly("x", XY)) == XY.one()


def test_apply_euler_identity():
    euler = field(CUSP_RING, "3*x", "2*y")
    f = parse_poly("x^2 - y^3", CUSP_RING)
    assert euler.apply(f) == f * Fraction(6)


def test_apply_matches_partial_derivatives():
    rng = random.Random(17)
    for ring in (XYZ, CUSP_RING, PolyRing(["x", "y", "z"], [1, 2, 3])):
        for _ in range(20):
            xi = VectorField(ring, [random_polynomial(rng, ring) for _ in ring.variables])
            g = random_polynomial(rng, ring, max_degree=4, terms=5)
            assert xi.apply(g) == apply_by_partials(xi, g)
            m = tuple(rng.randint(0, 4) for _ in ring.variables)
            assert xi.apply(ring.monomial(m)) == apply_by_partials(xi, ring.monomial(m))


def test_lie_bracket_examples():
    d_x = VectorField.coordinate(XY, "x")
    x_dx = field(XY, "x", "0")
    assert d_x.lie_bracket(x_dx) == d_x
    xi = field(XY, "x^2", "x*y")
    assert xi.lie_bracket(xi).is_zero()
    x_dy = field(XY, "0", "x")
    y_dx = field(XY, "y", "0")
    assert x_dy.lie_bracket(y_dx) == field(XY, "x", "-y")


def test_divergence_examples():
    assert cusp_tangent().divergence().is_zero()
    assert field(CUSP_RING, "3*x", "2*y").divergence() == CUSP_RING.const(5)
    assert field(XY, "x", "0").divergence() == XY.one()


def test_field_weight():
    assert cusp_tangent().weight() == 1
    assert field(CUSP_RING, "3*x", "2*y").weight() == 0
    assert VectorField.coordinate(XY, "x").weight() == -1
    assert field(XY, "x + x^2", "0").weight() is None


def test_tangency_examples():
    gb = buchberger(polys(CUSP_RING, "x^2 - y^3"))
    assert tangency_check(cusp_tangent(), gb)
    assert not tangency_check(VectorField.coordinate(CUSP_RING, "x"), gb)
    assert tangency_check(VectorField(CUSP_RING, [CUSP_RING.zero()] * CUSP_RING.arity), gb)


def rational_field(rng, ring):
    """A field with a few terms of small rational coefficients per slot."""
    scales = [Fraction(n, d) for n in (-5, -1, 1, 3) for d in (1, 2, 3)]
    return VectorField(
        ring, [random_polynomial(rng, ring, max_degree=2) * rng.choice(scales) for _ in ring.variables]
    )


def test_tangency_check_matches_the_fraction_definition():
    # seeded rational fields, tangent and not, against the definition
    rng = random.Random(101)
    doc = load_input(str(CORPUS / "two_quadrics_c4.json"))
    quadrics = buchberger(doc.ideal, ring=doc.ring)
    curve = buchberger(polys(CUSP_RING, "2/5*x^2 - 7/3*y^3"))  # not monic
    surface = buchberger(polys(XYZ, "2/3*x^4 + y^4 - 5/7*z^4 + x^2*y^2"))
    cases = [
        (curve, [field(CUSP_RING, "3/2*x", "y"), field(CUSP_RING, "-35/4*y^2", "-x")]),
        (surface, hamiltonian_family_top(Variety(XYZ, surface.elements), 3)),
        (quadrics, [xi for fs in derivations_up_to_degree(quadrics, 1).values() for xi in fs]),
        (buchberger([XYZ.one()]), []),  # the unit ideal: every field is tangent
        (buchberger([], ring=XYZ), []),  # the zero ideal: every field is tangent
    ]
    scales = (Fraction(3, 2), Fraction(-1, 3))
    for gb, tangent in cases:
        ring = gb.ring
        seeded = [rational_field(rng, ring) for _ in range(8)]
        pairs = zip(tangent, tangent[1:])
        seeded += [xi.scale(rng.choice(scales)) + eta.scale(rng.choice(scales)) for xi, eta in pairs]
        seeded += [xi + rational_field(rng, ring) for xi in tangent[:4]]
        for xi in tangent + seeded:
            assert tangency_check(xi, gb) == fraction_tangency(xi, gb), (xi, gb)
        assert all(tangency_check(xi, gb) for xi in tangent)
        if gb.elements and not gb.is_unit_ideal():
            assert not all(tangency_check(xi, gb) for xi in seeded)
        else:
            assert all(tangency_check(xi, gb) for xi in seeded)
    with pytest.raises(InputError, match="ring mismatch"):
        tangency_check(cusp_tangent(), quadrics)


def counted(monkeypatch, owner, name) -> list:
    """A list that gets one entry per call of ``owner.name`` from now on."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def corpus_basis(name):
    doc = load_input(str(CORPUS / f"{name}.json"))
    return buchberger(doc.ideal, ring=doc.ring)


def test_tangency_checks_build_no_fraction_images(monkeypatch):
    # 232 normal forms and 232 field applications before the integer check
    gb = corpus_basis("fermat3")
    fields = [xi for fs in derivations_up_to_degree(gb, 6).values() for xi in fs]
    assert len(fields) == 232
    reduced = [counted(monkeypatch, module, "normal_form") for module in (vfields, groebner)]
    applied = counted(monkeypatch, VectorField, "apply")
    exceptional_ideal(fields, gb)
    assert (sum(map(len, reduced)), len(applied)) == (0, 0)


def test_the_graded_solve_enumerates_each_weight_once(monkeypatch):
    # 33 enumerations before slots of equal weight shared one
    gb = corpus_basis("fermat4")
    calls = counted(monkeypatch, PolyRing, "monomials_of_weight")
    derivations_up_to_degree(gb, 9)
    assert len(calls) <= 11


def solved(gb, vectors, weights, span, top, cap):
    """The graded solve's relations by weight, one dict per vector each."""
    table = {w: [] for w in span}
    for w, entries, den in vfields._graded_syzygies(gb, vectors, weights, span, top, cap):
        table[w].append(vfields._vector_terms(entries, den, len(vectors)))
    return table


def assert_same_relations(gb, vectors, weights, span, top, cap=None):
    # relations, their order, each dict's key order and values, all Fractions
    table = solved(gb, vectors, weights, span, top, cap)
    reference = {w: all_slot_syzygies(gb, vectors, weights, w, top, cap) for w in span}
    assert {w: [[list(d.items()) for d in rel] for rel in rels] for w, rels in table.items()} == {
        w: [[list(d.items()) for d in rel] for rel in rels] for w, rels in reference.items()
    }
    assert all(type(c) is Fraction for rels in table.values() for rel in rels for d in rel for c in d.values())


def partial_vectors(gb):
    """The derivation solve's vectors: each variable's partials of the
    basis, scaled to integers, of weight minus the variable's."""
    ring = gb.ring
    partials = [_integer_components([g.partial_derivative(v).terms for g in gb.elements]) for v in ring.variables]
    return partials, [-w for w in ring.weights]


@pytest.mark.parametrize("seed", range(20))
def test_graded_solve_matches_the_all_slots_reference(seed):
    # forced slots come by substitution, the rest from normal forms; the
    # reduced relations are unique, so both routes give the same ones
    rng = random.Random(500 + seed)
    ring_weights = [1, rng.randint(1, 3), rng.randint(1, 3)]
    rng.shuffle(ring_weights)
    ring = PolyRing(["x", "y", "z"], ring_weights)
    gb = buchberger([random_quasihomogeneous(rng, ring, rng.randint(2, 5)) for _ in range(rng.randint(1, 2))])
    vectors, weights = partial_vectors(gb)
    span = range(-max(ring.weights), 6)
    assert_same_relations(gb, vectors, weights, span, None)
    # a truncation cuts off some shifted slots, so fewer slots are forced
    assert_same_relations(gb, vectors, weights, span, 2)
    # fields as vectors, as the incompressibility check takes them
    fields = [xi for fs in derivations_up_to_degree(gb, 1).values() for xi in fs]
    scaled = [_integer_components([c.terms for c in xi.coefficients]) for xi in fields]
    weights = [xi.weight() for xi in fields]
    assert_same_relations(gb, scaled, weights, range(min(weights), 3 + max(weights)), 2)


@pytest.mark.parametrize("seed", range(4))
def test_graded_solve_matches_the_reference_under_a_zero_weight_cap(seed):
    # t has weight 0: its exponents are capped, and no shift by t is taken
    rng = random.Random(600 + seed)
    ring = PolyRing(["x", "y", "t"], [1, 2, 0])
    degree = rng.randint(3, 4)
    monomials = ring.monomials_of_weight(degree, 1)
    terms = {m: Fraction(rng.randint(-3, 3)) for m in monomials}
    terms[rng.choice(monomials)] = Fraction(1)
    gb = buchberger([Polynomial(ring, terms)])
    vectors, weights = partial_vectors(gb)
    for top in (None, 3):
        assert_same_relations(gb, vectors, weights, range(-2, 5), top, 2)


@pytest.mark.parametrize(
    "name, degree, imaged, slots, generators, fields",
    [("two_quadrics_c4", 6, 257, 1320, 9, 1072), ("fermat4", 9, 319, 858, 6, 545)],
)
def test_derivation_slots_imaged_are_pinned(monkeypatch, name, degree, imaged, slots, generators, fields):
    # every slot was imaged before forced slots came by substitution
    gb = corpus_basis(name)
    sizes = []
    relations = linalg.relations
    monkeypatch.setattr(linalg, "relations", lambda images: sizes.append(len(images)) or relations(images))
    table = derivations_up_to_degree(gb, degree)
    ring = gb.ring
    total = sum(len(ring.monomials_of_weight(w + v)) for w in range(-max(ring.weights), degree + 1) for v in ring.weights)
    assert (sum(sizes), total) == (imaged, slots)
    counts = [sum(map(len, t.values())) for t in (derivation_generators(gb, degree), table)]
    assert counts == [generators, fields]


@pytest.mark.parametrize("name, degree", [("two_quadrics_c4", 6), ("fermat4", 9)])
def test_derivation_generators_build_no_forced_relation(monkeypatch, name, degree):
    # with no truncation a forced slot carries only its index; the full
    # table still substitutes each forced slot's relation
    gb = corpus_basis(name)
    substituted = counted(monkeypatch, vfields, "_substitute")
    derivation_generators(gb, degree)
    assert substituted == []
    derivations_up_to_degree(gb, degree)
    assert substituted


def graded_documents():
    """The corpus documents with a weighted-homogeneous ideal and positive
    weights."""
    names = []
    for path in sorted(CORPUS.glob("*.json")):
        try:
            doc = load_input(str(path))
        except InputError:
            continue
        if Variety(doc.ring, doc.ideal).is_quasihomogeneous() and not doc.ring.has_zero_weights:
            names.append(path.stem)
    return names


@pytest.mark.parametrize("name", graded_documents())
def test_derivation_generators_give_the_exceptional_ideal(name):
    # every other field is x_i times a lower one plus fields of its own
    # weight, so its coefficients lie in the generators' ideal
    gb = corpus_basis(name)
    table, generators = derivations_up_to_degree(gb, 5), derivation_generators(gb, 5)
    assert all(xi in table[w] for w, fs in generators.items() for xi in fs)
    every = exceptional_ideal([xi for _, fs in sorted(table.items()) for xi in fs], gb)
    assert exceptional_ideal([xi for _, fs in sorted(generators.items()) for xi in fs], gb).elements == every.elements


def random_gens(rng, ring, k):
    return [random_polynomial(rng, ring, max_degree=2, zero_ok=False) for _ in range(k)]


def test_jacobian_pairing_top_form():
    # with no equations the only entry pairs the volume form itself
    assert jacobian_pairing([], XYZ) == {(0, 1, 2): XYZ.one()}


def test_jacobian_pairing_plane_signs():
    # the line {x = 0} carries d_y and the line {y = 0} carries -d_x
    x, y = polys(XY, "x", "y")
    assert jacobian_pairing([x], XY) == {(0,): XY.zero(), (1,): -XY.one()}
    assert jacobian_pairing([y], XY) == {(0,): XY.one(), (1,): XY.zero()}
    assert top_polyvector_field([x], XY) == VectorField.coordinate(XY, "y")
    assert top_polyvector_field([y], XY) == -VectorField.coordinate(XY, "x")


def test_jacobian_pairing_signs_match_permutation_parity():
    # cutting out the coordinate subspace {x_c = 0 : c in C} leaves one
    # nonzero entry, at A = C^c, equal to the sign of (A, C)
    for k in range(4):
        for cols in itertools.combinations(range(3), k):
            rest = tuple(i for i in range(3) if i not in cols)
            table = jacobian_pairing([XYZ.var(XYZ.variables[c]) for c in cols], XYZ)
            assert set(table) == set(itertools.combinations(range(3), 3 - k))
            nonzero = {a: p for a, p in table.items() if not p.is_zero()}
            assert nonzero == {rest: XYZ.const(permutation_sign(rest + cols))}


def test_jacobian_pairing_matches_brute_determinant():
    rng = random.Random(59)
    for n in range(1, 6):
        ring = PolyRing([f"x{i}" for i in range(n)])
        for k in range(min(3, n) + 1):
            for _ in range(3):
                gens = random_gens(rng, ring, k)
                jac = [[f.partial_derivative(v) for v in ring.variables] for f in gens]
                expected = {}
                for rest in itertools.combinations(range(n), n - k):
                    cols = tuple(i for i in range(n) if i not in rest)
                    det = leibniz_determinant([[row[c] for c in cols] for row in jac], ring)
                    expected[rest] = det if permutation_sign(rest + cols) > 0 else -det
                assert jacobian_pairing(gens, ring) == expected


def test_jacobian_pairing_wedge_relation():
    # df_r ^ dx_B ^ df_1 ^ ... ^ df_k = 0 for each generator f_r and each
    # sorted B of n - k - 1 indices; expanded in dx_i this reads
    # sum_i d_i f_r * sgn(i, B) * P_sort(i, B) = 0
    rng = random.Random(61)
    for n, k in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 3)):
        ring = PolyRing([f"x{i}" for i in range(n)])
        gens = random_gens(rng, ring, k)
        table = jacobian_pairing(gens, ring)
        for f in gens:
            partials = [f.partial_derivative(v) for v in ring.variables]
            for rest in itertools.combinations(range(n), n - k - 1):
                total = ring.zero()
                for i in range(n):
                    if i in rest:
                        continue
                    term = partials[i] * table[tuple(sorted((i,) + rest))]
                    total = total + term if permutation_sign((i,) + rest) > 0 else total - term
                assert total.is_zero()


def test_field_from_form_matches_explicit_sum():
    # the explicit Fraction sum, for random rational forms and for the
    # Hamiltonian family through weight 4, on integer and rational
    # pairings and on a weighted surface
    rng = random.Random(73)
    cases = (
        (XY, []),
        (XYZ, ["x^3 + y^3 + z^3"]),
        (XYZ, ["2/3*x^4 + y^4 - 5/7*z^4 + x^2*y^2"]),
        (PolyRing(["x", "y", "z"], [6, 4, 3]), ["1/2*x^2 + 1/3*y^3 - 3/4*z^4"]),
        (XYZW, []),
        (XYZW, ["x^2 + y^2 + z^2 + w^2"]),
        (XYZWV, ["x^3 + y^3 + z^3 + w^3 + v^3", "x*y*z + w*v^2"]),
    )
    for ring, eqs in cases:
        table = jacobian_pairing(polys(ring, *eqs), ring)
        integers, den = integer_pairing(table)
        n = ring.arity

        def explicit(g, J):
            expected = []
            for i in range(n):
                total = ring.zero()
                for l, name in enumerate(ring.variables):
                    seq = (l,) + J + (i,)
                    if len(set(seq)) < len(seq):
                        continue
                    term = g.partial_derivative(name) * table[tuple(sorted(seq))]
                    total = total + term if permutation_sign(seq) > 0 else total - term
                expected.append(total)
            return VectorField(ring, expected)

        forms = list(itertools.combinations(range(n), n - len(eqs) - 2))
        for J in forms:
            for _ in range(3):
                g = random_polynomial(rng, ring, zero_ok=False) * Fraction(rng.choice((-5, 2)), 3)
                assert field_from_form(g, form_slots(integers, J, n), den) == explicit(g, J)
        family = (
            explicit(ring.monomial(g), J)
            for J in forms
            for a in range(4 - sum(ring.weights[j] for j in J) + 1)
            for g in ring.monomials_of_weight(a)
        )
        expected = list(dict.fromkeys(xi for xi in family if not xi.is_zero()))
        assert hamiltonian_family_top(Variety(ring, polys(ring, *eqs)), 4) == expected


def test_field_from_function_matches_bracket_route():
    # on a surface the field of the 0-form g is xi_g of the Jacobian bracket
    rng = random.Random(79)
    for ring, eqs in ((XYZ, ["x^3 + y^3 + z^3"]), (XYZW, ["x^2 + y^2 + z^2 + w^2", "x*y + z*w"])):
        X = Variety(ring, polys(ring, *eqs), JacobianPolyvector())
        table, den = integer_pairing(jacobian_pairing(X.ideal_gens, ring))
        pi = JacobiStructure(ring, jacobian_bracket_matrix(X))
        for _ in range(5):
            g = random_polynomial(rng, ring, zero_ok=False)
            assert field_from_form(g, form_slots(table, (), ring.arity), den) == jacobi_hamiltonian(g, pi)


def test_hamiltonian_from_bracket_fermat():
    X = Variety(XYZ, polys(XYZ, "x^3 + y^3 + z^3"), JacobianPolyvector())
    pi = JacobiStructure(XYZ, jacobian_bracket_matrix(X))
    xi = jacobi_hamiltonian(parse_poly("x", XYZ), pi)
    assert xi == field(XYZ, "0", "3*z^2", "-3*y^2")
    assert jacobi_hamiltonian(XYZ.const(5), pi).is_zero()


def test_hamiltonian_from_bracket_symplectic_plane():
    one = XY.one()
    pi = JacobiStructure(XY, [[XY.zero(), one], [-one, XY.zero()]])
    assert jacobi_hamiltonian(parse_poly("x", XY), pi) == VectorField.coordinate(XY, "y")


def test_hamiltonian_from_bracket_rejects_a_matrix_that_is_not_skew():
    one = XY.one()
    with pytest.raises(InputError, match="skew"):
        JacobiStructure(XY, [[XY.zero(), one], [one, XY.zero()]])
    with pytest.raises(InputError, match="diagonal"):
        JacobiStructure(XY, [[one, one], [-one, XY.zero()]])


def test_hamiltonian_from_bracket_rejects_a_matrix_over_another_ring():
    # the matrix's a must not be read as x: the structure itself refuses it
    AB = PolyRing(["a", "b"], [2, 3])
    a = AB.var("a")
    with pytest.raises(InputError, match="^ring mismatch$"):
        JacobiStructure(XY, [[AB.zero(), a], [-a, AB.zero()]])


def test_hamiltonian_family_matches_bracket_route():
    X = Variety(XYZ, polys(XYZ, "x^3 + y^3 + z^3"), JacobianPolyvector())
    pi = JacobiStructure(XYZ, jacobian_bracket_matrix(X))
    family = hamiltonian_family_top(X, 1)
    xi_z = jacobi_hamiltonian(parse_poly("z", XYZ), pi)
    assert xi_z == field(XYZ, "3*y^2", "-3*x^2", "0")
    assert xi_z in family


def test_hamiltonian_family_plane_reduces_to_symplectic():
    plane = Variety(XY, [], JacobianPolyvector())
    family = hamiltonian_family_top(plane, 1)
    assert VectorField.coordinate(XY, "y") in family  # xi_x
    assert -VectorField.coordinate(XY, "x") in family  # xi_y


def test_hamiltonian_family_needs_positive_weights():
    # no cap bounds the zero-weight exponents of the forms
    ring = PolyRing(["x", "y", "t"], [1, 1, 0])
    X = Variety(ring, polys(ring, "x^2 + t*y^2"), JacobianPolyvector())
    with pytest.raises(DomainError, match="strictly positive weights"):
        hamiltonian_family_top(X, 2)


def test_hamiltonian_family_requires_structure_and_dimension():
    fields = VectorFieldFamily((VectorField.coordinate(XYZ, "x"),))
    with pytest.raises(DomainError, match="structure"):
        hamiltonian_family_top(Variety(XYZ, polys(XYZ, "x^3+y^3+z^3"), fields), 2)
    point = Variety(XY, polys(XY, "x", "y"), JacobianPolyvector())
    with pytest.raises(DomainError, match="dimension"):
        hamiltonian_family_top(point, 2)
    # a curve is the m = 1 case: its one field is the top polyvector field
    gens = polys(CUSP_RING, "x^2 - y^3")
    curve = Variety(CUSP_RING, gens, JacobianPolyvector())
    assert hamiltonian_family_top(curve, 2) == [top_polyvector_field(gens, CUSP_RING)]


def test_structures_store_tuples_so_equal_structures_compare_equal():
    x = parse_poly("x", XY)
    pair = JacobiStructure(XY, ((XY.zero(), x), (-x, XY.zero())))
    assert pair == JacobiStructure(XY, [[XY.zero(), x], [-x, XY.zero()]])
    assert pair.matrix == ((XY.zero(), x), (-x, XY.zero()))
    dx = VectorField.coordinate(XY, "x")
    assert VectorFieldFamily([dx]) == VectorFieldFamily((dx,))
    assert VectorFieldFamily([dx]).generators == (dx,)


@pytest.mark.parametrize("build", [lambda m: JacobiStructure(XY, m)], ids=["JacobiStructure"])
def test_a_bracket_matrix_that_is_not_square_is_rejected(build):
    x = parse_poly("x", XY)
    with pytest.raises(InputError, match="square"):
        build(((XY.zero(), x), (-x, XY.zero(), XY.zero())))


def test_hamiltonian_family_tangent_and_divergence_free():
    rng = random.Random(61)
    count = 0
    while count < 5:
        f = random_quasihomogeneous(rng, XYZ, rng.choice([3, 4]))
        X = Variety(XYZ, [f], JacobianPolyvector())
        gb = X.groebner()
        for xi in hamiltonian_family_top(X, 2):
            assert tangency_check(xi, gb)
            assert xi.divergence().is_zero()
            # for a hypersurface the repeated df factor kills xi(f) outright
            assert xi.apply(f).is_zero()
        count += 1


def test_hamiltonian_field_annihilates_hamiltonian():
    # apply(xi_f, f) = 0 already on the ambient space, by skewness
    rng = random.Random(67)
    X = Variety(XYZ, polys(XYZ, "x^3 + y^3 + z^3"), JacobianPolyvector())
    pi = JacobiStructure(XYZ, jacobian_bracket_matrix(X))
    for _ in range(10):
        f = random_polynomial(rng, XYZ, zero_ok=False)
        assert jacobi_hamiltonian(f, pi).apply(f).is_zero()


def test_printing_fields_builds_no_constant_polynomials(monkeypatch):
    # unit coefficients print as d_x and -d_x, read off the terms directly
    X = Variety(XYZ, polys(XYZ, "x^4 + y^4 + z^4"), JacobianPolyvector())
    derivations = derivations_up_to_degree(X.groebner(), 9)
    fields = hamiltonian_family_top(X, 9) + [xi for fs in derivations.values() for xi in fs]
    dx = VectorField.coordinate(XYZ, "x")
    units = [dx, -dx, dx.scale(2)]
    calls = []
    const = PolyRing.const
    monkeypatch.setattr(PolyRing, "const", lambda *args: calls.append(args) or const(*args))
    assert [str(xi) for xi in units] == ["d_x", "-d_x", "2*d_x"]
    assert all(str(xi) for xi in fields)
    assert calls == []


def test_top_polyvector_field_cuspidal():
    eta = top_polyvector_field(polys(CUSP_RING, "x^2 - y^3"), CUSP_RING)
    assert eta == cusp_tangent() or eta == -cusp_tangent()


COORDINATE_CASES = {
    # m = 3: C(4, 2) = 6 fields, one per K = J + {i}
    "quartic in C^4": (["x", "y", "z", "w"], (1, 1, 1, 1), ["x^4 + y^4 + z^4 + w^4"]),
    # m = 2, codimension 2
    "two_quadrics_c4": (["x", "y", "z", "w"], (1, 1, 1, 1), ["x^2 + y^2 + z^2", "x^2 + 2*y^2 + 3*z^2"]),
    "weighted surface": (["x", "y", "z"], (6, 4, 3), ["x^2 + 2/3*y^3 + 5/4*z^4 - 1/3*x*z^2"]),
    # m = 1, with k odd and even
    "cusp": (["x", "y"], (3, 2), ["x^2 - y^3"]),
    "space curve": (["x", "y", "z"], (2, 2, 1), ["x^2 - y^2 + z^4", "x*y - 3*z^4"]),
}


@pytest.mark.parametrize("name", COORDINATE_CASES)
def test_coordinate_fields_are_the_forms_of_the_coordinates(name):
    # one tangent field per K of m - 1 variables; at m = 2 the rows of the
    # Jacobian bracket, at m = 1 the curve's field up to sign, and for
    # m >= 2 each is up to sign the field of x_i dx_J for every i in K
    names, weights, texts = COORDINATE_CASES[name]
    ring = PolyRing(names, weights)
    gens = polys(ring, *texts)
    X = Variety(ring, gens, JacobianPolyvector())
    n, m = ring.arity, ring.arity - len(gens)
    fields = vfields.coordinate_fields(gens, ring)
    assert len(fields) == math.comb(n, m - 1)
    assert all(tangency_check(xi, X.groebner()) for xi in fields)
    if m == 1:
        assert fields[0] in (top_polyvector_field(gens, ring), -top_polyvector_field(gens, ring))
        return
    if m == 2:
        assert [list(xi.coefficients) for xi in fields] == jacobian_bracket_matrix(X)
    table, den = integer_pairing(jacobian_pairing(gens, ring))
    for K, xi in zip(itertools.combinations(range(n), m - 1), fields):
        for i in K:
            J = tuple(j for j in K if j != i)
            form = field_from_form(ring.var(names[i]), form_slots(table, J, n), den)
            assert form in (xi, -xi), (K, i)


def test_field_from_zero_form_is_zero():
    table, den = integer_pairing(jacobian_pairing(polys(XYZ, "x^3 + y^3 + z^3"), XYZ))
    assert field_from_form(XYZ.zero(), form_slots(table, (), 3), den).is_zero()


def test_jacobi_structure_validation():
    ring = PolyRing(["t", "x", "y"], [2, 1, 1])
    zero, u = ring.zero(), VectorField.coordinate(ring, "t")
    bad = [[zero] * 3 for _ in range(3)]
    bad[0][1] = ring.one()  # not skew
    with pytest.raises(InputError, match="^bracket matrix must be skew-symmetric$"):
        JacobiStructure(ring, tuple(tuple(r) for r in bad), u)
    with pytest.raises(InputError, match="^bracket matrix must be square of the ring arity$"):
        JacobiStructure(ring, ((zero, zero), (zero, zero)), u)
    with pytest.raises(InputError, match="^u lives in a different ring$"):
        JacobiStructure(ring, ((zero,) * 3,) * 3, VectorField.coordinate(XYZ, "x"))


def test_structures_are_equal_iff_of_one_kind_with_equal_fields():
    zero, x = XY.zero(), XY.var("x")
    d_x, d_y = VectorField.coordinate(XY, "x"), VectorField.coordinate(XY, "y")
    contact = standard_contact(1)
    equal = [
        (JacobianPolyvector(), JacobianPolyvector()),
        (JacobiStructure(XY, ((zero, x), (-x, zero))), JacobiStructure(XY, ((zero, x), (-x, zero)))),
        (VectorFieldFamily((d_x, d_y)), VectorFieldFamily((VectorField.coordinate(XY, "x"), d_y))),
        (contact, standard_contact(1)),
        (contact, JacobiStructure(contact.ring, contact.matrix, contact.u)),
    ]
    for a, b in equal:
        assert a == b and not a != b
    distinct = [
        JacobianPolyvector(),
        JacobiStructure(XY, ((zero, x), (-x, zero))),
        JacobiStructure(XY, ((zero, -x), (x, zero))),
        VectorFieldFamily((d_x, d_y)),
        VectorFieldFamily((d_y, d_x)),
        VectorFieldFamily((d_x,)),
        contact,
        JacobiStructure(contact.ring, contact.matrix, -contact.u),
        standard_contact(2),
    ]
    for a, b in itertools.combinations(distinct, 2):
        assert a != b and not a == b
    assert JacobianPolyvector() != () and VectorFieldFamily(()) != ()
    with pytest.raises(InputError, match="^structure generators must be vector fields$"):
        VectorFieldFamily(((zero, x), (-x, zero)))


def test_incompressibility_report_defaults_and_keywords():
    report = IncompressibilityReport(True, 3)
    assert (report.consistent, report.max_degree, report.verdict) == (True, 3, "consistent-to-3")
    assert report.witness_coefficients is None and report.witness_residue is None
    witness, residue = [XY.one(), XY.zero()], XY.var("x")
    report = IncompressibilityReport(
        max_degree=2, consistent=False, witness_residue=residue, witness_coefficients=witness
    )
    assert (report.consistent, report.max_degree, report.verdict) == (False, 2, "violated")
    assert report.witness_coefficients is witness and report.witness_residue is residue


def test_standard_contact_hamiltonians():
    J = standard_contact(1)
    ring = J.ring
    assert jacobi_hamiltonian(ring.one(), J) == VectorField.coordinate(ring, "t")
    assert jacobi_hamiltonian(ring.var("y"), J) == VectorField.coordinate(ring, "x")
    # xi_x = -d_y + x d_t, as in the contact model
    assert jacobi_hamiltonian(ring.var("x"), J) == VectorField(
        ring, polys(ring, "x", "0", "-1")
    )
    # the formula forces the f*u correction in xi_t; its value is pinned here
    assert jacobi_hamiltonian(ring.var("t"), J) == VectorField(
        ring, polys(ring, "t", "0", "y")
    )


def test_jacobi_lie_algebra_property():
    rng = random.Random(71)
    for pairs in (1, 2):
        J = standard_contact(pairs)
        ring = J.ring
        monomials = [m for w in range(0, 3) for m in ring.monomials_of_weight(w)]
        for _ in range(12):
            f = ring.monomial(rng.choice(monomials))
            g = ring.monomial(rng.choice(monomials))
            lhs = jacobi_hamiltonian(f, J).lie_bracket(jacobi_hamiltonian(g, J))
            rhs = jacobi_hamiltonian(jacobi_bracket(f, g, J), J)
            assert lhs == rhs


def test_derivations_cuspidal():
    gb = buchberger(polys(CUSP_RING, "x^2 - y^3"))
    table = derivations_up_to_degree(gb, 1)
    assert set(table) == {0, 1}
    (w0,), (w1,) = table[0], table[1]
    euler = field(CUSP_RING, "3*x", "2*y")
    # one-dimensional spaces spanned by the Euler field and the
    # volume-preserving tangent field
    assert w0.scale(Fraction(2)) == euler or w0.scale(Fraction(-2)) == euler
    assert w1.scale(Fraction(2)) == cusp_tangent() or w1.scale(Fraction(-2)) == cusp_tangent()


def test_derivations_smooth_line():
    gb = buchberger(polys(XY, "y"))
    table = derivations_up_to_degree(gb, 0)
    flat = [xi for fs in table.values() for xi in fs]
    assert any(xi == VectorField.coordinate(XY, "x") for xi in flat)


def test_derivations_basis_comes_in_slot_order():
    # the basis is read off the relations among the slots x^a d_i, taken
    # by variable and then ascending in the basis order; the printed
    # fields depend on that order
    gb = buchberger(polys(XYZ, "x^3 + y^3 + z^3"))
    table = derivations_up_to_degree(gb, 1)
    assert [str(xi) for xi in table[1]] == [
        "-y^2*d_x + x^2*d_y",
        "x*z*d_x + y*z*d_y + z^2*d_z",
        "x*y*d_x + y^2*d_y + y*z*d_z",
        "x^2*d_x + x*y*d_y + x*z*d_z",
        "-z^2*d_y + y^2*d_z",
        "-z^2*d_x + x^2*d_z",
    ]


def test_derivations_cone_family_no_constant_parts():
    ring = PolyRing(["x", "y", "z", "t"], [1, 1, 1, 0])
    gb = buchberger([parse_poly("x^3 + y^3 + z^3 + t*x*y*z", ring)])
    table = derivations_up_to_degree(gb, 0, zero_weight_cap=2)
    # no tangent field has a nonzero constant coefficient on d_x, d_y, d_z
    assert -1 not in table
    for fs in table.values():
        for xi in fs:
            for c in xi.coefficients[:3]:
                assert (0,) * ring.arity not in c.terms


def test_derivations_requires_homogeneous():
    gb = buchberger(polys(XY, "x^3 + x^2*y + y^4"))
    with pytest.raises(DomainError, match="weighted-homogeneous"):
        derivations_up_to_degree(gb, 2)


def test_exceptional_ideal_cuspidal():
    gb = buchberger(polys(CUSP_RING, "x^2 - y^3"))
    fields = [field(CUSP_RING, "3*x", "2*y"), cusp_tangent()]
    exc = exceptional_ideal(fields, gb)
    assert sorted(str(g) for g in exc.elements) == ["x", "y"]
    assert poincare_series(exc).total_dimension() == 1


def test_exceptional_ideal_empty_family():
    gb = buchberger(polys(CUSP_RING, "x^2 - y^3"))
    assert exceptional_ideal([], gb).elements == gb.elements


def test_exceptional_ideal_unit():
    gb = buchberger([XY.zero()], ring=XY)
    exc = exceptional_ideal([VectorField.coordinate(XY, "x")], gb)
    assert exc.is_unit_ideal()


def test_the_unit_ideal_has_no_derivations():
    # O_X = 0: every candidate x^a d_i is the zero field there
    gb = buchberger(polys(XYZ, "1"), ring=XYZ)
    assert derivations_up_to_degree(gb, 3) == {}


def test_exceptional_ideal_rejects_nontangent():
    gb = buchberger(polys(CUSP_RING, "x^2 - y^3"))
    with pytest.raises(DomainError, match="not tangent"):
        exceptional_ideal([VectorField.coordinate(CUSP_RING, "x")], gb)


def test_incompressibility_violation_on_line():
    line = PolyRing(["z"])
    gb = buchberger([line.zero()], ring=line)
    d_z = VectorField.coordinate(line, "z")
    z_dz = VectorField(line, [parse_poly("z", line)])
    report = incompressibility_truncated([d_z, z_dz], gb, 2)
    assert not report.consistent
    assert report.verdict == "violated"
    f1, f2 = report.witness_coefficients
    # the witness is a scalar multiple of (z, -1)
    assert not f1.is_zero() and list(f2.terms) == [(0,)]
    scale = f2.terms[(0,)]
    assert f1 == parse_poly("z", line) * Fraction(-scale)


def test_incompressibility_bounds_every_coefficient_degree():
    # f_1 d_z + f_2 z^2 d_z = 0 forces f_1 = -z^2 f_2, and every such
    # relation is violated: d_z(f_1) + z^2 d_z(f_2) = -2 z f_2.  So no
    # relation has deg f_1 <= 1, and the first one, (-z^2, 1), needs 2.
    line = PolyRing(["z"])
    gb = buchberger([line.zero()], ring=line)
    fields = [VectorField.coordinate(line, "z"), VectorField(line, [parse_poly("z^2", line)])]
    assert incompressibility_truncated(fields, gb, 1).verdict == "consistent-to-1"
    report = incompressibility_truncated(fields, gb, 2)
    assert report.verdict == "violated"
    f1, f2 = report.witness_coefficients
    assert f1 == parse_poly("z^2", line) * -f2.terms[(0,)]
    assert report.witness_residue == parse_poly("z", line) * (-2 * f2.terms[(0,)])


def test_incompressibility_symplectic_plane():
    gb = buchberger([XY.zero()], ring=XY)
    plane = Variety(XY, [], JacobianPolyvector())
    fields = hamiltonian_family_top(plane, 3)
    report = incompressibility_truncated(fields, gb, 3)
    assert report.consistent
    assert report.verdict == "consistent-to-3"


def test_incompressibility_single_field():
    gb = buchberger([XY.zero()], ring=XY)
    report = incompressibility_truncated([VectorField.coordinate(XY, "x")], gb, 4)
    assert report.consistent


def test_incompressibility_vect_of_cusp_violated():
    # the full tangent algebra contains both the Euler field and its
    # multiple y * Euler, so the flow cannot preserve any volume
    gb = buchberger(polys(CUSP_RING, "x^2 - y^3"))
    table = derivations_up_to_degree(gb, 3)
    fields = [xi for fs in table.values() for xi in fs]
    report = incompressibility_truncated(fields, gb, 3)
    assert not report.consistent


def test_incompressibility_p_family_of_cusp_consistent():
    gb = buchberger(polys(CUSP_RING, "x^2 - y^3"))
    report = incompressibility_truncated([cusp_tangent()], gb, 6)
    assert report.consistent


def test_lie_closure_grows_and_stops():
    d_x = VectorField.coordinate(XY, "x")
    x2_dy = field(XY, "0", "x^2")
    closed = lie_closure([d_x, x2_dy], depth=2)
    # brackets produce x d_y at depth 1 and a constant d_y at depth 2
    assert len(closed) == 4

    def is_dy_multiple(xi):
        a, b = xi.coefficients
        return a.is_zero() and not b.is_zero() and all(sum(m) == 0 for m in b.terms)

    assert any(is_dy_multiple(xi) for xi in closed)
    assert not any(is_dy_multiple(xi) for xi in lie_closure([d_x, x2_dy], depth=1))


def test_lie_closure_brackets_each_pair_once(monkeypatch):
    # a round after the first brackets only the pairs with a field the
    # round before added: 3 + 12 brackets on so3_squares, not 3 + 15
    doc = load_input(str(CORPUS / "so3_squares.json"))
    calls = []
    bracket = VectorField.lie_bracket

    def counted(self, other):
        calls.append(1)
        return bracket(self, other)

    monkeypatch.setattr(VectorField, "lie_bracket", counted)
    assert len(lie_closure(list(doc.structure.generators), depth=2)) == 15
    assert len(calls) == 15


@pytest.mark.parametrize("depth", range(4))
def test_lie_closure_equals_the_closure_over_all_pairs(depth):
    families = [list(load_input(str(CORPUS / f"{name}.json")).structure.generators) for name in VECTOR_FIELD_DOCS]
    families += [[VectorField.coordinate(XY, "x"), field(XY, "0", "x^2")], [field(XY, "x*y", "y^2"), field(XY, "y", "x")]]
    for fields in families:
        assert lie_closure(fields, depth) == all_pairs_lie_closure(fields, depth)


def test_module_generators_cut_the_corpus_closures():
    for name, counts in (("so3_squares", (15, 12)), ("cusp_fields", (2, 2)), ("line_fields", (2, 1))):
        closed = lie_closure(list(load_input(str(CORPUS / f"{name}.json")).structure.generators), depth=2)
        kept = module_generators(closed)
        assert (len(closed), len(kept)) == counts


def test_module_generators_drop_the_combinations_of_kept_fields():
    # by weight: d_x (-1); y d_y, x d_x = x * d_x, y d_x + x d_y, then
    # x d_y, the last less y * d_x (0); y^2 d_x + x^2 d_y = y^2 * d_x +
    # x * (y d_x + x d_y) - x y * d_x (1)
    d_x, y_dy, hyperbolic = VectorField.coordinate(XY, "x"), field(XY, "0", "y"), field(XY, "y", "x")
    family = [field(XY, "y^2", "x^2"), y_dy, field(XY, "x", "0"), d_x, hyperbolic, field(XY, "0", "x")]
    assert module_generators(family) == [d_x, y_dy, hyperbolic]
    assert module_generators([]) == []


def test_a_field_scales_by_a_number_or_a_polynomial():
    xi = field(XYZ, "x^2 - 1/3*y", "0", "2*z + x*y")
    for number in (Fraction(-3, 4), 2, 0):
        for a, b in zip(xi.scale(number).coefficients, xi.coefficients):
            assert list(a.terms.items()) == [(m, Fraction(number) * c) for m, c in b.terms.items() if number]
            assert all(type(c) is Fraction for c in a.terms.values())
    product = field(XYZ, "x^2*y - 2*x^2 - 1/3*y^2 + 2/3*y", "0", "2*y*z - 4*z + x*y^2 - 2*x*y")
    assert xi.scale(parse_poly("y - 2", XYZ)) == product


ZERO_WEIGHT = PolyRing(["x", "y", "t"], [1, 1, 0])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: VectorField(XY, polys(XY, "x")), InputError, "^coefficient list length must equal the ring arity$"),
        (lambda: VectorField(XY, [XY.var("x"), XYZ.var("y")]), InputError, "^coefficient lives in a different ring$"),
        (lambda: VectorField.coordinate(XY, "x").apply(XYZ.var("x")), InputError, "^ring mismatch$"),
        (
            lambda: VectorField.coordinate(XY, "x").lie_bracket(VectorField.coordinate(XYZ, "x")),
            InputError,
            "^ring mismatch$",
        ),
        (lambda: jacobi_hamiltonian(XY.var("x"), standard_contact()), InputError, "^ring mismatch$"),
        (lambda: standard_contact(0), InputError, r"^need at least one \(x, y\) pair$"),
        (lambda: top_polyvector_field(polys(XYZ, "x"), XYZ), DomainError, "^top polyvector field of a curve needs"),
        (
            lambda: vfields.coordinate_fields(polys(XY, "x", "y"), XY),
            DomainError,
            "^coordinate fields need dimension n - k >= 1$",
        ),
        (
            # the CLI refuses this before the solver with its own wording
            lambda: derivations_up_to_degree(buchberger(polys(ZERO_WEIGHT, "x^2")), 2),
            InputError,
            "^ring has zero-weight variables: pass zero_weight_cap$",
        ),
        (
            lambda: incompressibility_truncated(
                [VectorField.coordinate(CUSP_RING, "x")], buchberger(polys(CUSP_RING, "x^2 - y^3")), 2
            ),
            DomainError,
            "^field .* is not tangent to the variety$",
        ),
        (
            # every field is tangent to the plane; this one has two weights
            lambda: incompressibility_truncated([field(XY, "x + x^2", "0")], buchberger([XY.zero()], ring=XY), 2),
            DomainError,
            "^incompressibility solver needs weight-homogeneous fields$",
        ),
    ],
    ids=[
        "arity",
        "coefficient-ring",
        "apply-ring",
        "bracket-ring",
        "jacobi-ring",
        "no-pairs",
        "top-codimension",
        "coordinate-dimension",
        "zero-weight",
        "not-tangent",
        "inhomogeneous",
    ],
)
def test_library_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
