"""Vector fields, forms, Hamiltonian constructions, truncated solvers."""

import itertools
import random
from fractions import Fraction

import pytest

from leafalg.errors import DomainError
from leafalg.geom import JacobianPolyvector, Variety
from leafalg.groebner import buchberger, poincare_series
from leafalg.poly import Polynomial, PolyRing, parse_poly
from leafalg.vfields import (
    DifferentialForm,
    JacobiStructure,
    VectorField,
    contract_std,
    derivations_up_to_degree,
    exceptional_ideal,
    hamiltonian_family_top,
    hamiltonian_from_bracket,
    incompressibility_truncated,
    jacobi_bracket,
    jacobi_hamiltonian,
    lie_closure,
    standard_contact,
    tangency_check,
    top_polyvector_field,
)

from oracles import permutation_sign, random_polynomial, random_quasihomogeneous

XYZ = PolyRing(["x", "y", "z"])
XY = PolyRing(["x", "y"])
CUSP_RING = PolyRing(["x", "y"], [3, 2])


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
    assert euler.apply(f) == f.scale(6)


def test_apply_monomial_matches_apply():
    rng = random.Random(17)
    for ring in (XYZ, CUSP_RING):
        for _ in range(20):
            xi = VectorField(ring, [random_polynomial(rng, ring) for _ in ring.variables])
            m = tuple(rng.randint(0, 4) for _ in ring.variables)
            assert Polynomial(ring, xi.apply_monomial(m)) == xi.apply(ring.monomial(m))


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
    assert tangency_check(VectorField.zero(CUSP_RING), gb)


def test_exterior_derivative_examples():
    x_dy = DifferentialForm(XYZ, 1, {(1,): parse_poly("x", XYZ)})
    d = x_dy.exterior_derivative()
    assert d.terms == {(0, 1): XYZ.one()}
    dx = DifferentialForm.coordinate(XYZ, "x")
    assert dx.exterior_derivative().is_zero()
    omega = DifferentialForm(
        XYZ, 2, {(1, 2): parse_poly("x", XYZ), (0, 2): parse_poly("-y", XYZ)}
    )  # x dy^dz + y dz^dx
    result = omega.exterior_derivative()
    assert result.terms == {(0, 1, 2): XYZ.const(2)}


def test_d_squared_zero_random():
    rng = random.Random(53)
    for degree in (0, 1, 2):
        for _ in range(8):
            terms = {}
            for idx in itertools.combinations(range(3), degree):
                terms[idx] = random_polynomial(rng, XYZ)
            omega = DifferentialForm(XYZ, degree, terms)
            assert omega.exterior_derivative().exterior_derivative().is_zero()


def test_contract_std_top_form():
    vol = DifferentialForm(XYZ, 3, {(0, 1, 2): XYZ.one()})
    assert contract_std(vol).scalar() == XYZ.one()


def test_contract_std_plane_signs():
    dx = DifferentialForm.coordinate(XY, "x")
    dy = DifferentialForm.coordinate(XY, "y")
    assert contract_std(dx).as_vector_field() == VectorField.coordinate(XY, "y")
    assert contract_std(dy).as_vector_field() == -VectorField.coordinate(XY, "x")


def test_contract_std_signs_match_permutation_parity():
    for p in (0, 1, 2, 3):
        for idx in itertools.combinations(range(3), p):
            form = DifferentialForm(XYZ, p, {idx: XYZ.one()})
            pv = contract_std(form)
            comp = tuple(i for i in range(3) if i not in idx)
            expected = permutation_sign(idx + comp)
            assert pv.terms == ({comp: XYZ.const(expected)} if expected else {})


def test_contract_std_wedge_relation():
    # pairing omega ^ dx_i against the top polyvector reads off exactly
    # the i-th component of the contraction of omega
    rng = random.Random(59)
    for _ in range(10):
        idx = tuple(sorted(rng.sample(range(3), 2)))
        coeff = random_polynomial(rng, XYZ, zero_ok=False)
        omega = DifferentialForm(XYZ, 2, {idx: coeff})
        pv = contract_std(omega)
        for i in range(3):
            wedge = omega.wedge(DifferentialForm.coordinate(XYZ, XYZ.variables[i]))
            scalar = contract_std(wedge).scalar() if wedge.terms else XYZ.zero()
            component = pv.terms.get((i,), XYZ.zero())
            assert scalar == component


def test_hamiltonian_from_bracket_fermat():
    X = Variety(XYZ, polys(XYZ, "x^3 + y^3 + z^3"), JacobianPolyvector())
    from leafalg.geom import jacobian_bracket_matrix

    pi = jacobian_bracket_matrix(X)
    xi = hamiltonian_from_bracket(parse_poly("x", XYZ), pi)
    assert xi == field(XYZ, "0", "3*z^2", "-3*y^2")
    assert hamiltonian_from_bracket(XYZ.const(5), pi).is_zero()


def test_hamiltonian_from_bracket_symplectic_plane():
    one = XY.one()
    pi = [[XY.zero(), one], [-one, XY.zero()]]
    assert hamiltonian_from_bracket(parse_poly("x", XY), pi) == VectorField.coordinate(XY, "y")


def test_hamiltonian_family_matches_bracket_route():
    X = Variety(XYZ, polys(XYZ, "x^3 + y^3 + z^3"), JacobianPolyvector())
    from leafalg.geom import jacobian_bracket_matrix

    pi = jacobian_bracket_matrix(X)
    family = hamiltonian_family_top(X, 1)
    xi_z = hamiltonian_from_bracket(parse_poly("z", XYZ), pi)
    assert xi_z == field(XYZ, "3*y^2", "-3*x^2", "0")
    assert xi_z in family


def test_hamiltonian_family_plane_reduces_to_symplectic():
    plane = Variety(XY, [], JacobianPolyvector())
    family = hamiltonian_family_top(plane, 1)
    assert VectorField.coordinate(XY, "y") in family  # xi_x
    assert -VectorField.coordinate(XY, "x") in family  # xi_y


def test_hamiltonian_family_requires_structure_and_dimension():
    with pytest.raises(DomainError, match="structure"):
        hamiltonian_family_top(Variety(XYZ, polys(XYZ, "x^3+y^3+z^3")), 2)
    curve = Variety(CUSP_RING, polys(CUSP_RING, "x^2 - y^3"), JacobianPolyvector())
    with pytest.raises(DomainError, match="dimension"):
        hamiltonian_family_top(curve, 2)


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
    from leafalg.geom import jacobian_bracket_matrix

    pi = jacobian_bracket_matrix(X)
    for _ in range(10):
        f = random_polynomial(rng, XYZ, zero_ok=False)
        assert hamiltonian_from_bracket(f, pi).apply(f).is_zero()


def test_top_polyvector_field_cuspidal():
    eta = top_polyvector_field(polys(CUSP_RING, "x^2 - y^3"))
    assert eta == cusp_tangent() or eta == -cusp_tangent()


def test_field_from_zero_form_is_zero():
    from leafalg.vfields import DifferentialForm, field_from_form

    alpha = DifferentialForm.from_poly(XYZ.zero())
    xi = field_from_form(alpha, polys(XYZ, "x^3 + y^3 + z^3"))
    assert xi.is_zero()


def test_jacobi_structure_validation():
    ring = PolyRing(["t", "x", "y"], [2, 1, 1])
    bad = [[ring.zero()] * 3 for _ in range(3)]
    bad[0][1] = ring.one()  # not skew
    with pytest.raises(Exception):
        JacobiStructure(ring, tuple(tuple(r) for r in bad), VectorField.coordinate(ring, "t"))


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


def test_derivations_cone_family_no_constant_parts():
    ring = PolyRing(["x", "y", "z", "t"], [1, 1, 1, 0])
    gb = buchberger([parse_poly("x^3 + y^3 + z^3 + t*x*y*z", ring)])
    table = derivations_up_to_degree(gb, 0, zero_weight_cap=2)
    # no tangent field has a nonzero constant coefficient on d_x, d_y, d_z
    assert -1 not in table
    for fs in table.values():
        for xi in fs:
            for c in xi.coefficients[:3]:
                assert c.constant_term() == 0


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
    assert not f1.is_zero() and f2.is_constant()
    scale = f2.constant_term()
    assert f1 == parse_poly("z", line).scale(-scale)


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
        return xi.coefficients[0].is_zero() and xi.coefficients[1].is_constant() and not xi.is_zero()

    assert any(is_dy_multiple(xi) for xi in closed)
    assert not any(is_dy_multiple(xi) for xi in lie_closure([d_x, x2_dy], depth=1))
