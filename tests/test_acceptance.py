"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them all).

Every expected value is exact; the randomized property suites use fixed
seeds.  Criterion 7 asserts the published contact Hamiltonian values
verbatim; see the failure message there for why the xi_t value cannot
be produced by the defining formula.
"""

import json
import random
from fractions import Fraction

from leafalg.cli import build_parser, load_input, run
from leafalg.coinv import coinvariants_truncated, verify_hp0
from leafalg.geom import (
    JacobiStructure,
    JacobianPolyvector,
    Variety,
    degenerate_locus,
    hp0_series,
    jacobian_bracket_matrix,
    leaves_check,
    milnor_number,
    tjurina,
)
from leafalg.groebner import buchberger, normal_form, poincare_series
from leafalg.poly import PolyRing, parse_poly
from leafalg.sympower import sym_power_series
from leafalg.vfields import (
    VectorField,
    derivations_up_to_degree,
    exceptional_ideal,
    hamiltonian_family_top,
    jacobi_bracket,
    jacobi_hamiltonian,
    standard_contact,
    tangency_check,
)

from oracles import graded_member, random_quasihomogeneous, weighted_components

XYZ = PolyRing(["x", "y", "z"])
XY = PolyRing(["x", "y"])
CUSP_RING = PolyRing(["x", "y"], [3, 2])


def polys(ring, *texts):
    return [parse_poly(t, ring) for t in texts]


def report(number, ok, description):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    return ok


def cli(tmp_path, document, *argv):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    flags = build_parser().parse_args([argv[0], "-i", str(path), *argv[1:]])
    return run(flags.command, load_input(str(path)), flags)


FERMAT_DOC = {
    "ring": {"vars": ["x", "y", "z"], "weights": [1, 1, 1]},
    "ideal": ["x^3 + y^3 + z^3"],
    "structure": {"kind": "jacobian"},
}


def fermat():
    return Variety(XYZ, polys(XYZ, "x^3 + y^3 + z^3"), JacobianPolyvector())


def cuspidal():
    return Variety(CUSP_RING, polys(CUSP_RING, "x^2 - y^3"), JacobianPolyvector())


def test_criterion_1_fermat_bracket(tmp_path):
    pi = jacobian_bracket_matrix(fermat())
    ok = (
        str(pi[0][1]) == "3*z^2"
        and str(pi[1][2]) == "3*x^2"
        and str(pi[2][0]) == "3*y^2"
    )
    payload = cli(tmp_path, FERMAT_DOC, "bracket", "-f", "x", "-g", "y")
    ok = ok and payload["text"] == ["3*z^2"]
    assert report(1, ok, "Jacobian bracket of the Fermat cubic: {x,y}=3z^2, {y,z}=3x^2, {z,x}=3y^2")


def test_criterion_2_ideal_membership():
    q, qx, qy = polys(XY, "x^3 + x^2*y + y^4", "3*x^2 + 2*x*y", "x^2 + 4*y^3")
    y4 = parse_poly("y^4", XY)
    inside = normal_form(y4, buchberger([q, qx, qy])).is_zero()
    outside = not normal_form(y4, buchberger([qx, qy])).is_zero()
    assert report(2, inside and outside, "y^4 in (Q, Qx, Qy) and y^4 not in (Qx, Qy)")


def test_criterion_3_cuspidal_curve():
    X = cuspidal()
    series = hp0_series(X)
    ok = series.coefficients() == {0: 1, 2: 1} and series.total_dimension() == 2
    # the coinvariant oracle reproduces the closed form per weight
    oracle = coinvariants_truncated(X, "hamiltonian-top", 5)
    ok = ok and {w: d for w, d in oracle.dimensions.items() if d} == {0: 1, 2: 1}
    # the full tangent algebra leaves only the constants
    vect_table = coinvariants_truncated(X, "derivations", 5)
    ok = ok and vect_table.total() == 1
    gb = X.groebner()
    fields = [xi for fs in derivations_up_to_degree(gb, 2).values() for xi in fs]
    exc = exceptional_ideal(fields, gb)
    ok = ok and poincare_series(exc).total_dimension() == 1
    assert report(3, ok, "cuspidal curve: hp0 = 1 + u^2 (total 2), oracle matches, Vect coinvariants 1-dimensional")


def test_criterion_4_fermat_surface():
    X = fermat()
    rep = tjurina(X)
    series = hp0_series(X)
    ok = rep.milnor == 8 and rep.tjurina == 8
    ok = ok and series.coefficients() == {0: 1, 1: 3, 2: 3, 3: 1}
    verification = verify_hp0(X, margin=2)
    ok = ok and verification.match and verification.table.truncation == 5
    assert report(4, ok, "Fermat cubic: mu = tau = 8, hp0 = (1+u)^3, oracle matches through socle + margin")


def test_criterion_5_two_quadrics():
    X = Variety(XYZ, polys(XYZ, "x^2 + y^2 + z^2", "x^2 + 2*y^2 + 3*z^2"))
    assert report(5, milnor_number(X) == 5, "two-quadric complete intersection: mu = 6 - 1 = 5")


def test_criterion_6_leaves_criterion():
    x = parse_poly("x", XY)
    plane = Variety(XY, [], JacobiStructure(XY, ((XY.zero(), x), (-x, XY.zero()))))
    failing = leaves_check(plane)
    ok = (
        not failing.passed
        and failing.witness.rank == 0
        and [str(g) for g in failing.witness.ideal.elements] == ["x"]
        and failing.witness.dimension == 1
    )
    ok = ok and leaves_check(fermat()).passed
    assert report(6, ok, "leaves test: x dx^dy plane fails with witness (0, (x), 1); Fermat bracket passes")


def test_criterion_7_contact_hamiltonians():
    J = standard_contact(1)
    ring = J.ring
    xi_1 = jacobi_hamiltonian(ring.one(), J)
    xi_y = jacobi_hamiltonian(ring.var("y"), J)
    xi_t = jacobi_hamiltonian(ring.var("t"), J)
    ok_1 = xi_1 == VectorField.coordinate(ring, "t")
    ok_y = xi_y == VectorField.coordinate(ring, "x")
    expected_t = VectorField(ring, polys(ring, "0", "-x", "0"))
    ok_t = xi_t == expected_t
    ok = ok_1 and ok_y and ok_t
    report(7, ok, "contact 3-space: xi_t = -x d_x, xi_1 = d_t, xi_y = d_x")
    assert ok, (
        "xi_t mismatch: the defining formula xi_f = pi(df) + f*u forces a "
        f"t d_t term (got {xi_t}); no skew bivector with zero diagonal can "
        "produce -x d_x together with xi_1 = d_t, since xi_t = pi(dt) + t u "
        "and pi(dt) cannot contain d_t.  The published value omits the f*u "
        "correction.  See the decisions ledger."
    )


def test_criterion_8_sym_power_series():
    series = sym_power_series({0: 1}, 0, 3)
    ok = series.s_layer(3) == {0: 3}
    rng = random.Random(79)
    for _ in range(10):
        p = {j: rng.randint(1, 3) for j in rng.sample(range(0, 8), rng.randint(1, 4))}
        d = rng.randint(0, 5)
        layer = sym_power_series(p, d, 1).s_layer(1)
        ok = ok and layer == {j - d: c for j, c in p.items()}
    assert report(8, ok, "symmetric powers: s^3 coefficient is 3 for p=1, d=0; s^1 layer is u^-d p(u)")


def test_criterion_9_degenerate_locus():
    finite = degenerate_locus(fermat())
    X = Variety(XY, polys(XY, "x^2*y"), JacobianPolyvector())
    infinite = degenerate_locus(X)
    ok = finite.finite and infinite.dimension == 1 and not infinite.finite
    assert report(9, ok, "degenerate locus: Fermat cubic finite; x^2 y has a one-dimensional locus")


def test_criterion_10_property_suites():
    rng = random.Random(83)
    ok = True

    # Jacobi identity for Jacobian brackets of 20 random cubic/quartic surfaces
    x, y, z = (XYZ.var(v) for v in XYZ.variables)
    done = 0
    while done < 20:
        f = random_quasihomogeneous(rng, XYZ, rng.choice([3, 4]))
        X = Variety(XYZ, [f], JacobianPolyvector())
        pi = JacobiStructure(XYZ, jacobian_bracket_matrix(X))
        gb = X.groebner()

        def br(a, b):
            return jacobi_bracket(a, b, pi)

        cyclic = br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y)
        ok = ok and normal_form(cyclic, gb).is_zero()

        # tangency and ambient zero divergence for every generated field
        for xi in hamiltonian_family_top(X, 2):
            ok = ok and tangency_check(xi, gb) and xi.divergence().is_zero()
        done += 1

    # Euler identity on 50 random quasihomogeneous polynomials
    for _ in range(50):
        ring, weight = rng.choice([(XYZ, 3), (XYZ, 4), (CUSP_RING, 6), (CUSP_RING, 12)])
        p = random_quasihomogeneous(rng, ring, weight)
        euler = ring.zero()
        for name, m in zip(ring.variables, ring.weights):
            euler = euler + ring.var(name) * Fraction(m) * p.partial_derivative(name)
        ok = ok and euler == p * Fraction(weight)

    # Groebner membership agrees with the brute-force graded solve
    for _ in range(20):
        gens = [
            random_quasihomogeneous(rng, XYZ, rng.randint(2, 3))
            for _ in range(rng.randint(1, 3))
        ]
        gb = buchberger(gens)
        candidate = random_quasihomogeneous(rng, XYZ, rng.randint(2, 4))
        ok = ok and normal_form(candidate, gb).is_zero() == graded_member(candidate, gens)
        combo = XYZ.zero()
        for g in gens:
            combo = combo + random_quasihomogeneous(rng, XYZ, 5 - g.weighted_degree()) * g
        for piece in weighted_components(combo).values():
            ok = ok and normal_form(piece, gb).is_zero() and graded_member(piece, gens)

    # coinvariant multiplicativity on a product
    big = PolyRing(["x", "y", "a", "b"], [3, 2, 3, 2])

    def embed(p, offset):
        out = big.zero()
        for mono, c in p.terms.items():
            expo = [0] * 4
            expo[offset], expo[offset + 1] = mono
            out = out + big.monomial(tuple(expo), c)
        return out

    curve = parse_poly("x^2 - y^3", CUSP_RING)
    eta = polys(CUSP_RING, "3*y^2", "2*x")
    product = Variety(big, [embed(curve, 0), embed(curve, 2)])
    fields = [
        VectorField(big, [embed(eta[0], 0), embed(eta[1], 0), big.zero(), big.zero()]),
        VectorField(big, [big.zero(), big.zero(), embed(eta[0], 2), embed(eta[1], 2)]),
    ]
    table = coinvariants_truncated(product, fields, 6)
    factor = coinvariants_truncated(cuspidal(), [VectorField(CUSP_RING, eta)], 6)
    for w in range(0, 7):
        convolution = sum(
            factor.dimensions.get(i, 0) * factor.dimensions.get(w - i, 0) for i in range(w + 1)
        )
        ok = ok and table.dimensions[w] == convolution

    assert report(
        10,
        ok,
        "property suites: Jacobi identity, tangency and zero divergence, Euler identity, "
        "membership vs brute force, product multiplicativity",
    )


def test_criterion_11_exceptional_family():
    ring = PolyRing(["x", "y", "z", "t"], [1, 1, 1, 0])
    gb = buchberger([parse_poly("x^3 + y^3 + z^3 + t*x*y*z", ring)])
    table = derivations_up_to_degree(gb, 2, zero_weight_cap=3)
    fields = [xi for fs in table.values() for xi in fs]
    ok = bool(fields)
    for t0 in (0, 1, -3):
        point = (0, 0, 0, t0)
        for xi in fields:
            ok = ok and all(v == 0 for v in xi.evaluate(point))
    assert report(
        11,
        ok,
        "cone family x^3+y^3+z^3+t x y z: every tangent field up to weight 2 "
        "vanishes at (0,0,0,t0) for t0 in {0, 1, -3}",
    )
