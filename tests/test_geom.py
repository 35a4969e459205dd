"""Varieties: Jacobian chains, singularity invariants, brackets, strata."""

import contextlib
import gc
import io
import random
from pathlib import Path

import pytest

from leafalg import cli, geom, groebner
from leafalg.cli import load_input
from leafalg.errors import DomainError, InputError
from leafalg.geom import (
    JacobiStructure,
    JacobianPolyvector,
    LeavesReport,
    RankStratum,
    Variety,
    VectorFieldFamily,
    degenerate_locus,
    hp0_series,
    jacobian_bracket_matrix,
    jacobian_chain,
    leaves_check,
    milnor_breakdown,
    milnor_number,
    rank_strata,
    tjurina,
)
from leafalg.groebner import INFINITE, normal_form
from leafalg.poly import PolyRing, parse_poly
from leafalg.vfields import VectorField, jacobi_bracket, jacobi_hamiltonian, jacobian_matrix, tangency_check

from oracles import closure_rank_strata, local_colength_brute, random_quasihomogeneous
from test_coinv import graded_corpus, random_graded_varieties

CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus"

XYZ = PolyRing(["x", "y", "z"])
XY = PolyRing(["x", "y"])
CUSP_RING = PolyRing(["x", "y"], [3, 2])


def polys(ring, *texts):
    return [parse_poly(t, ring) for t in texts]


def fermat():
    return Variety(XYZ, polys(XYZ, "x^3 + y^3 + z^3"), JacobianPolyvector())


def cuspidal():
    return Variety(CUSP_RING, polys(CUSP_RING, "x^2 - y^3"), JacobianPolyvector())


def two_quadrics():
    return Variety(XYZ, polys(XYZ, "x^2+y^2+z^2", "x^2+2*y^2+3*z^2"))


def test_a_variety_without_a_structure_carries_the_jacobian_polyvector():
    assert Variety(XYZ, polys(XYZ, "x^3 + y^3 + z^3")).structure == JacobianPolyvector()
    assert Variety(XY, []).structure == JacobianPolyvector()


def test_a_variety_refuses_a_structure_from_another_ring():
    # a pair over (x, y) on a variety over (x, y, z) would read y*z as y
    x = parse_poly("x", XY)
    with pytest.raises(InputError, match="^Jacobi structure lives in a different ring$"):
        Variety(XYZ, [], JacobiStructure(XY, ((XY.zero(), x), (-x, XY.zero()))))
    fields = (VectorField(XYZ, polys(XYZ, "x", "y", "z")), VectorField(XY, polys(XY, "-y", "x")))
    with pytest.raises(InputError, match="^structure generator lives in a different ring$"):
        Variety(XYZ, [], VectorFieldFamily(fields))


def test_a_variety_refuses_a_structure_of_no_kind():
    # unrefused, hamiltonian and rank_strata would read it as the Jacobian polyvector
    message = "^structure must be a JacobianPolyvector, JacobiStructure or VectorFieldFamily$"
    with pytest.raises(InputError, match=message):
        Variety(XYZ, polys(XYZ, "x^3 + y^3 + z^3"), structure="junk")


def test_jacobian_chain_two_quadrics():
    chain = jacobian_chain(two_quadrics())
    assert [str(p) for p in chain[0]] == ["2*x", "2*y", "2*z"]
    assert [str(p) for p in chain[1]] == [
        "x^2 + y^2 + z^2",
        "4*x*y",
        "8*x*z",
        "4*y*z",
    ]


def test_jacobian_chain_gradient():
    chain = jacobian_chain(fermat())
    assert [str(p) for p in chain[0]] == ["3*x^2", "3*y^2", "3*z^2"]


def test_jacobian_chain_cuspidal():
    chain = jacobian_chain(cuspidal())
    assert [str(p) for p in chain[0]] == ["2*x", "-3*y^2"]


def test_milnor_fermat():
    assert milnor_number(fermat()) == 8


def test_milnor_two_quadrics():
    assert milnor_breakdown(two_quadrics()) == [1, 6]
    assert milnor_number(two_quadrics()) == 5


def test_milnor_cuspidal():
    assert milnor_number(cuspidal()) == 2
    assert local_colength_brute(polys(CUSP_RING, "2*x", "-3*y^2")) == 2


def test_milnor_nonisolated_is_infinite():
    X = Variety(XY, polys(XY, "x^2*y"))
    assert milnor_number(X) == INFINITE
    with pytest.raises(DomainError, match="non-isolated"):
        tjurina(X)


@pytest.mark.parametrize(
    "a, b, p, q, mu", [(6, 6, 2, 2, 13), (5, 5, 2, 2, 11), (7, 5, 2, 2, 13)]
)
def test_milnor_matches_kouchnirenko(a, b, p, q, mu):
    # x^a + y^b + x^p*y^q is convenient and Newton-nondegenerate, so
    # mu = 2V - a - b + 1 with V = (a*q + b*p)/2 the area under its
    # Newton polygon through (a, 0), (p, q), (0, b)
    assert a * q + b * p - a - b + 1 == mu
    f = parse_poly(f"x^{a} + y^{b} + x^{p}*y^{q}", XY)
    assert milnor_number(Variety(XY, [f])) == mu


@pytest.mark.parametrize("seed", range(3))
def test_milnor_matches_milnor_orlik_on_perturbed_quintic(seed):
    # the sextic term lies above the weight of the Fermat quintic, which
    # fixes mu at Milnor-Orlik's (d/w - 1)^3 = 4^3
    rng = random.Random(700 + seed)
    c1, c2, c3, e = (rng.choice([-7, -3, -2, -1, 1, 2, 3, 7]) for _ in range(4))
    f = parse_poly(f"{c1}*x^5 + {c2}*y^5 + {c3}*z^5 + {e}*x^2*y^2*z^2", XYZ)
    assert milnor_number(Variety(XYZ, [f])) == 64


def test_tjurina_reuses_the_singularity_basis(monkeypatch):
    calls = []
    real = groebner.buchberger

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counted)
    monkeypatch.setattr(geom, "buchberger", counted)
    X = Variety(XYZ, polys(XYZ, "x^4 + y^4 + z^4"))
    assert tjurina(X).tjurina == 27
    # one global basis for J_1's colength, which f lies in: it is also the
    # singularity ring's
    assert len(calls) == 1
    assert hp0_series(X).total_dimension() == 27
    assert len(calls) == 1


def counted_bases(monkeypatch):
    """Count the Buchberger calls made through ``groebner``, ``geom`` and
    ``cli``, and the Hilbert numerators taken at the top of the
    recursion, each a new series."""
    counts = {"buchberger": 0, "numerator": 0}
    build, numerator = groebner.buchberger, groebner._hilbert_numerator
    depth = [0]

    def counted_build(*args, **kwargs):
        counts["buchberger"] += 1
        return build(*args, **kwargs)

    def counted_numerator(*args):
        counts["numerator"] += depth[0] == 0
        depth[0] += 1
        try:
            return numerator(*args)
        finally:
            depth[0] -= 1

    for module in (groebner, geom, cli):
        monkeypatch.setattr(module, "buchberger", counted_build)
    monkeypatch.setattr(groebner, "_hilbert_numerator", counted_numerator)
    return counts


def graded_hypersurfaces():
    """The corpus documents with one weighted-homogeneous generator and
    positive weights."""
    names = []
    for path in sorted(CORPUS.glob("*.json")):
        try:
            doc = load_input(str(path))
        except InputError:
            continue
        X = Variety(doc.ring, doc.ideal)
        if len(doc.ideal) == 1 and X.is_quasihomogeneous() and not X.ring.has_zero_weights:
            names.append(path.stem)
    return names


@pytest.mark.parametrize("command, expected", [("milnor", 1), ("tjurina", 1), ("gap", 1), ("hp0", 1)])
@pytest.mark.parametrize("name", graded_hypersurfaces())
def test_each_singularity_command_builds_one_basis_and_one_series(monkeypatch, name, command, expected):
    # f lies in J_f (Euler), so J_1's basis is the singularity ring's and
    # its series is taken once: tjurina and gap made 2 of each before
    counts = counted_bases(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "-i", str(CORPUS / f"{name}.json")]) == 0
    assert counts == {"buchberger": expected, "numerator": expected}


def test_a_lex_tjurina_builds_its_singularity_basis_itself(monkeypatch):
    # J_1's basis is graded reverse lexicographic: nothing to reuse under lex
    counts = counted_bases(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["tjurina", "-i", str(CORPUS / "fermat4.json"), "--order", "lex"]) == 0
    assert counts == {"buchberger": 2, "numerator": 2}


def test_a_complete_intersection_builds_its_singularity_basis_itself(monkeypatch):
    # f_2 is not in J_2, so (J_2, f_2) needs a basis of its own
    X = two_quadrics()
    j2, f2 = jacobian_chain(X)[-1], X.ideal_gens[-1]
    assert not normal_form(f2, groebner.buchberger(j2, ring=XYZ)).is_zero()
    counts = counted_bases(monkeypatch)
    rep = tjurina(X)
    assert (rep.milnor, rep.tjurina) == (5, 5)
    assert counts == {"buchberger": 3, "numerator": 3}
    assert X.singularity_groebner().elements == groebner.buchberger(j2 + [f2], ring=XYZ).elements


def fresh_graded_varieties():
    """New varieties, nothing derived yet, on the ideals of the graded
    corpus and of the seeded random ones that have generators."""
    out = []
    for param in graded_corpus() + random_graded_varieties():
        X = param.values[0]
        if X.ideal_gens:
            out.append(pytest.param(X.ring, X.ideal_gens, id=param.id))
    return out


@pytest.mark.parametrize("ring, gens", fresh_graded_varieties())
def test_the_reused_singularity_basis_is_the_one_built_anew(monkeypatch, ring, gens):
    # after the Milnor number the singularity ring takes J_k's basis, with
    # no Buchberger call, exactly when f_k lies in J_k; either way its basis
    # is that of a fresh (J_k, f_k)
    X = Variety(ring, gens)
    milnor_breakdown(X)
    jk = jacobian_chain(X)[-1]
    fresh = groebner.buchberger(jk + [gens[-1]], X.order, ring=ring)
    member = normal_form(gens[-1], groebner.buchberger(jk, ring=ring)).is_zero()
    counts = counted_bases(monkeypatch)
    assert X.singularity_groebner().elements == fresh.elements
    assert counts["buchberger"] == (0 if member else 1)
    if len(gens) == 1:
        assert member


@pytest.mark.parametrize("name", ["fermat4", "nqh_curve_9", "e8_surface"])
def test_tjurina_builds_the_jacobian_chain_once(monkeypatch, name):
    calls = []
    build = geom.jacobian_chain

    def counted(X):
        calls.append(X)
        return build(X)

    monkeypatch.setattr(geom, "jacobian_chain", counted)
    doc = load_input(str(CORPUS / f"{name}.json"))
    tjurina(Variety(doc.ring, doc.ideal))
    assert len(calls) == 1


def test_tjurina_fermat():
    rep = tjurina(fermat())
    assert rep.milnor == 8 and rep.tjurina == 8 and rep.gap == 0
    assert rep.singularity_ring_series.coefficients() == {0: 1, 1: 3, 2: 3, 3: 1}


def test_tjurina_cuspidal():
    rep = tjurina(cuspidal())
    assert rep.milnor == 2 and rep.tjurina == 2 and rep.gap == 0
    assert str(rep.singularity_ring_series) == "1 + u^2"


def test_tjurina_plane_curve_with_higher_order_term():
    # Q = x^3 + x^2*y + y^4 is right-equivalent to the quasihomogeneous
    # singularity x^2*y + y^4 (the cubic term lies in the local Jacobian
    # ideal: (4 + 36y) y^4 = -(x/2 + 3y^2) Q_x + (3x/2 + y + 9y^2) Q_y),
    # so both numbers are 5 and the gap vanishes.  Frozen from the
    # truncated linear-algebra oracle.
    X = Variety(XY, polys(XY, "x^3 + x^2*y + y^4"))
    assert local_colength_brute(polys(XY, "3*x^2 + 2*x*y", "x^2 + 4*y^3")) == 5
    assert local_colength_brute(
        polys(XY, "x^3 + x^2*y + y^4", "3*x^2 + 2*x*y", "x^2 + 4*y^3")
    ) == 5
    rep = tjurina(X)
    assert rep.milnor == 5 and rep.tjurina == 5 and rep.gap == 0
    assert rep.singularity_ring_series is None  # not quasihomogeneous


def test_gap_nonnegative_and_zero_for_quasihomogeneous():
    rng = random.Random(41)
    count = 0
    while count < 6:
        f = random_quasihomogeneous(rng, XYZ, 3)
        X = Variety(XYZ, [f])
        mu = milnor_number(X)
        if mu == INFINITE or mu == 0:
            continue
        rep = tjurina(X)
        assert rep.gap == 0
        count += 1


def test_hp0_cuspidal():
    series = hp0_series(cuspidal())
    assert series.coefficients() == {0: 1, 2: 1}
    assert series.total_dimension() == 2


def test_hp0_fermat():
    series = hp0_series(fermat())
    assert series.coefficients() == {0: 1, 1: 3, 2: 3, 3: 1}
    assert series.total_dimension() == 8


def test_hp0_smooth_hypersurface_is_zero():
    X = Variety(XY, polys(XY, "x"))
    series = hp0_series(X)
    assert series.finite and series.total_dimension() == 0


def test_hp0_total_equals_tjurina():
    for X in (fermat(), cuspidal()):
        assert hp0_series(X).total_dimension() == tjurina(X).tjurina


def test_hp0_rejects_inhomogeneous():
    with pytest.raises(DomainError, match="weighted-homogeneous"):
        hp0_series(Variety(XY, polys(XY, "x^3 + x^2*y + y^4")))


def test_jacobian_bracket_fermat():
    pi = jacobian_bracket_matrix(fermat())
    assert str(pi[0][1]) == "3*z^2"
    assert str(pi[1][2]) == "3*x^2"
    assert str(pi[2][0]) == "3*y^2"


def test_jacobian_bracket_plane():
    plane = Variety(XY, [], JacobianPolyvector())
    pi = jacobian_bracket_matrix(plane)
    assert pi[0][1] == XY.one()
    assert pi[1][0] == -XY.one()


def test_jacobian_bracket_wrong_codimension():
    X = Variety(PolyRing(["x", "y", "z", "w"]), [parse_poly("x*y*z - w^3", PolyRing(["x", "y", "z", "w"]))])
    with pytest.raises(DomainError, match="codimension"):
        jacobian_bracket_matrix(X)


def test_bracket_skew_and_tangent():
    rng = random.Random(43)
    for _ in range(5):
        f = random_quasihomogeneous(rng, XYZ, rng.choice([3, 4]))
        X = Variety(XYZ, [f], JacobianPolyvector())
        pi = jacobian_bracket_matrix(X)
        gb = X.groebner()
        for i in range(3):
            assert pi[i][i].is_zero()
            for j in range(3):
                assert pi[i][j] == -pi[j][i]
            # the Hamiltonian field of each coordinate is tangent
            xi = jacobi_hamiltonian(XYZ.var(XYZ.variables[i]), JacobiStructure(XYZ, pi))
            assert tangency_check(xi, gb)


def test_jacobi_identity_for_surface_brackets():
    rng = random.Random(47)
    x, y, z = (XYZ.var(v) for v in XYZ.variables)
    count = 0
    while count < 20:
        f = random_quasihomogeneous(rng, XYZ, rng.choice([3, 4]))
        if f.is_zero():
            continue
        X = Variety(XYZ, [f], JacobianPolyvector())
        pi = JacobiStructure(XYZ, jacobian_bracket_matrix(X))
        gb = X.groebner()

        def br(a, b):
            return jacobi_bracket(a, b, pi)

        cyclic = br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y)
        assert normal_form(cyclic, gb).is_zero()
        count += 1


def test_rank_strata_plane_bracket():
    x = parse_poly("x", XY)
    structure = JacobiStructure(XY, ((XY.zero(), x), (-x, XY.zero())))
    plane = Variety(XY, [], structure)
    strata = rank_strata(plane)
    assert strata[0].rank == 0
    assert [str(g) for g in strata[0].ideal.elements] == ["x"]
    assert strata[0].dimension == 1
    assert strata[-1].dimension == 2


def test_rank_strata_stay_in_the_variety_ring():
    # a bracket over (a, b) on a plane over (x, y) gave the strata (a) and (a^2) over (a, b)
    AB = PolyRing(["a", "b"], [2, 3])
    a = AB.var("a")
    with pytest.raises(InputError, match="^ring mismatch$"):
        rank_strata(Variety(XY, [], JacobiStructure(XY, ((AB.zero(), a), (-a, AB.zero())))))


def test_rank_strata_and_leaves_refuse_a_field_not_tangent_to_the_variety():
    # d_x does not preserve the cusp; before, leaves passed with strata [(0, -1), (1, 1)]
    dx = VectorField.coordinate(CUSP_RING, "x")
    cusp = Variety(CUSP_RING, polys(CUSP_RING, "x^2 - y^3"), VectorFieldFamily((dx,)))
    for check in (rank_strata, leaves_check):
        with pytest.raises(DomainError, match="^field d_x is not tangent to the variety$"):
            check(cusp)
    # on the whole plane every field is tangent
    plane = Variety(CUSP_RING, [], VectorFieldFamily((dx,)))
    assert [(s.rank, s.dimension) for s in rank_strata(plane)] == [(0, -1), (1, 2)]


def test_rank_strata_fermat():
    strata = rank_strata(fermat())
    dims = {s.rank: s.dimension for s in strata}
    assert dims[0] == 0
    assert dims[2] == 2


def test_rank_strata_zero_bracket():
    zero = XY.zero()
    plane = Variety(XY, [], JacobiStructure(XY, ((zero, zero), (zero, zero))))
    strata = rank_strata(plane)
    assert strata[0].rank == 0
    assert not strata[0].ideal.elements
    assert strata[0].dimension == 2


def test_rank_strata_nested_ideals():
    strata = rank_strata(fermat())
    for lower, higher in zip(strata, strata[1:]):
        # ideal of the smaller locus contains the ideal of the bigger one
        for g in higher.ideal.elements:
            assert normal_form(g, lower.ideal).is_zero()


def test_rank_strata_vector_fields():
    euler = VectorField(XY, polys(XY, "x", "y"))
    rotate = VectorField(XY, polys(XY, "-y", "x"))
    plane = Variety(XY, [], VectorFieldFamily((euler, rotate)))
    strata = rank_strata(plane)
    by_rank = {s.rank: s for s in strata}
    assert by_rank[0].dimension == 0  # both fields vanish only at the origin
    assert by_rank[2].dimension == 2


VECTOR_FIELD_DOCS = ("so3_squares", "cusp_fields", "line_fields")


def stratum_triples(strata):
    return [(s.rank, s.ideal, s.dimension) for s in strata]


@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("name", VECTOR_FIELD_DOCS)
def test_rank_strata_of_module_generators_equal_those_of_the_whole_closure(name, depth):
    doc = load_input(str(CORPUS / f"{name}.json"))
    X = Variety(doc.ring, doc.ideal, doc.structure)
    assert stratum_triples(rank_strata(X, depth)) == closure_rank_strata(X, depth)


def test_the_corpus_closures_are_cut_to_their_module_generators():
    for name, shape in (("so3_squares", (12, 15)), ("cusp_fields", (2, 2)), ("line_fields", (1, 2))):
        doc = load_input(str(CORPUS / f"{name}.json"))
        matrix, size = geom._structure_matrix(Variety(doc.ring, doc.ideal, doc.structure))
        assert (len(matrix), size) == shape


def random_field(rng, ring, weight):
    """A nonzero weight-homogeneous field, each coefficient zero with
    probability 0.3 or where no monomial has its weight."""
    while True:
        xi = VectorField(
            ring,
            [
                random_quasihomogeneous(rng, ring, weight + m)
                if ring.monomials_of_weight(weight + m) and rng.random() < 0.7
                else ring.zero()
                for m in ring.weights
            ],
        )
        if not xi.is_zero():
            return xi


def random_family(rng, ring):
    """1 to arity + 1 weight-homogeneous fields; each after the first is
    a variable times an earlier one with probability 0.4."""
    fields = [random_field(rng, ring, rng.randint(-max(ring.weights), max(ring.weights)))]
    for _ in range(rng.randint(0, ring.arity)):
        if rng.random() < 0.4:
            fields.append(rng.choice(fields).scale(ring.var(rng.choice(ring.variables))))
        else:
            fields.append(random_field(rng, ring, rng.randint(-max(ring.weights), max(ring.weights))))
    return fields


@pytest.mark.parametrize("ring", [XYZ, CUSP_RING], ids=["C3", "weights_3_2"])
def test_rank_strata_of_module_generators_equal_those_of_the_whole_closure_on_random_families(ring):
    shapes = []
    for seed in range(25):
        rng = random.Random(seed)
        X = Variety(ring, [], VectorFieldFamily(random_family(rng, ring)))
        depth = rng.randint(0, 2)
        assert stratum_triples(rank_strata(X, depth)) == closure_rank_strata(X, depth)
        matrix, size = geom._structure_matrix(X, depth)
        shapes.append((len(matrix), size))
    assert any(rows < size for rows, size in shapes)  # some closure is cut
    # and some is cut below the arity, where the top strata are X itself
    assert any(rows < ring.arity <= size for rows, size in shapes)


def test_a_vector_field_family_holds_vector_fields_only():
    # a string raised AttributeError from Variety's ring check
    with pytest.raises(InputError, match="^structure generators must be vector fields$"):
        Variety(XY, [], VectorFieldFamily(["junk"]))
    # the empty family is the zero Lie algebra, of rank 0 everywhere
    plane = Variety(XY, [], VectorFieldFamily(()))
    assert stratum_triples(rank_strata(plane)) == [(0, plane.groebner(), 2)]


def test_only_graded_families_are_cut_to_module_generators():
    # x * xi generates nothing new, but with a field of mixed weight or a
    # ring with a zero weight every closure field stays a row
    XT = PolyRing(["x", "t"], [1, 0])
    mixed, d_x = VectorField(XY, polys(XY, "1", "x")), VectorField.coordinate(XT, "x")
    for xi in (mixed, d_x):
        X = Variety(xi.ring, [], VectorFieldFamily((xi, xi.scale(xi.ring.var("x")))))
        matrix, size = geom._structure_matrix(X)
        assert (len(matrix), size) == (2, 2)
        assert stratum_triples(rank_strata(X)) == closure_rank_strata(X, 2)


def test_leaves_check_plane_bracket_fails():
    x = parse_poly("x", XY)
    plane = Variety(XY, [], JacobiStructure(XY, ((XY.zero(), x), (-x, XY.zero()))))
    report = leaves_check(plane)
    assert not report.passed
    assert report.witness.rank == 0
    assert [str(g) for g in report.witness.ideal.elements] == ["x"]
    assert report.witness.dimension == 1


def test_leaves_report_defaults_and_keywords():
    strata = rank_strata(Variety(XY, [], JacobiStructure(XY, ((XY.zero(), XY.one()), (-XY.one(), XY.zero())))))
    report = LeavesReport(True, strata)
    assert (report.passed, report.strata, report.witness) == (True, strata, None)
    stratum = RankStratum(dimension=2, ideal=strata[0].ideal, rank=0)
    assert (stratum.rank, stratum.ideal, stratum.dimension) == (0, strata[0].ideal, 2)
    report = LeavesReport(witness=stratum, strata=strata, passed=False)
    assert (report.passed, report.strata, report.witness) == (False, strata, stratum)


def test_leaves_check_fermat_passes():
    assert leaves_check(fermat()).passed


def test_leaves_check_contact_space_passes():
    # the standard contact structure is transitive: the Hamiltonian
    # family spans the tangent space everywhere, so every stratum below
    # the top rank is empty
    from leafalg.vfields import standard_contact

    J = standard_contact(1)
    X = Variety(J.ring, [], J)
    report = leaves_check(X)
    assert report.passed
    for stratum in report.strata:
        if stratum.rank < 3:
            assert stratum.ideal.is_unit_ideal()


def test_leaves_check_symplectic_plane_passes():
    one = XY.one()
    plane = Variety(XY, [], JacobiStructure(XY, ((XY.zero(), one), (-one, XY.zero()))))
    assert leaves_check(plane).passed


def test_degenerate_locus_fermat():
    rep = degenerate_locus(fermat())
    assert rep.dimension == 0 and rep.finite


@pytest.mark.parametrize(
    "X",
    [
        fermat(),
        Variety(XYZ, polys(XYZ, "x^2*y + z^3"), JacobianPolyvector()),
        Variety(
            PolyRing(["x", "y", "z", "w"]),
            polys(PolyRing(["x", "y", "z", "w"]), "x^2 + y^2 + z^2", "x^2 + 2*y^2 + 3*z^2"),
            JacobianPolyvector(),
        ),
    ],
    ids=["fermat cubic", "non-isolated surface", "two quadrics"],
)
def test_degenerate_locus_reads_the_singularity_basis(monkeypatch, X):
    # f_1..f_k plus the k x k minors generate (J_k, f_k): the same reduced basis
    k = len(X.ideal_gens)
    gens = list(X.ideal_gens) + groebner.minors(jacobian_matrix(X.ideal_gens, X.ring), k)
    assert groebner.buchberger(gens, X.order, ring=X.ring) == X.singularity_groebner()
    calls = []
    monkeypatch.setattr(geom, "buchberger", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(groebner, "buchberger", lambda *args, **kwargs: calls.append(args))
    assert degenerate_locus(X).ideal is X.singularity_groebner()
    assert calls == []


def test_degenerate_locus_nonisolated():
    X = Variety(XY, polys(XY, "x^2*y"), JacobianPolyvector())
    rep = degenerate_locus(X)
    assert rep.dimension == 1 and not rep.finite


def test_degenerate_locus_smooth():
    X = Variety(XY, polys(XY, "x"), JacobianPolyvector())
    rep = degenerate_locus(X)
    assert rep.finite
    assert rep.ideal.is_unit_ideal()


@pytest.mark.parametrize(
    "gens, message",
    [
        (polys(XY, "x", "y", "x*y"), "^more generators than ambient variables$"),
        ([parse_poly("x", XYZ)], "^ideal generator lives in a different ring$"),
    ],
    ids=["too-many", "other-ring"],
)
def test_a_variety_refuses_bad_generators(gens, message):
    with pytest.raises(InputError, match=message):
        Variety(XY, gens)


def test_a_kept_coinvariant_error_leaves_no_reference_cycle():
    # the variety keeps the message: the error's traceback would hold the
    # variety, so its bases would wait for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        X = Variety(XY, polys(XY, "x^2"))
        messages = []
        for _ in range(2):
            try:
                X.hp0()
            except DomainError as error:
                messages.append(str(error))
        del X
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert messages == ["non-isolated singularity: the singularity ring is not finite-dimensional"] * 2
