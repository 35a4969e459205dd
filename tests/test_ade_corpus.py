"""Simple plane-curve singularities as a cross-validation corpus.

The classification pins every invariant here independently of the
implementation: the Milnor number of A_n is n, of D_n is n, and of
E6/E7/E8 is 6/7/8; all are quasihomogeneous, so the Tjurina number
agrees and the coinvariant oracle must match the closed-form series.
"""

import pytest

from leafalg.coinv import verify_hp0
from leafalg.geom import JacobianPolyvector, Variety, hp0_series, tjurina
from leafalg.poly import PolyRing, parse_poly

CASES = [
    ("A2", "x^2 + y^3", (3, 2), 2),
    ("A3", "x^2 + y^4", (2, 1), 3),
    ("A5", "x^2 + y^6", (3, 1), 5),
    ("D4", "x^2*y + y^3", (1, 1), 4),
    ("D5", "x^2*y + y^4", (3, 2), 5),
    ("D6", "x^2*y + y^5", (2, 1), 6),
    ("E6", "x^3 + y^4", (4, 3), 6),
    ("E7", "x^3 + x*y^3", (3, 2), 7),
    ("E8", "x^3 + y^5", (5, 3), 8),
]


@pytest.mark.parametrize("name, equation, weights, mu", CASES, ids=[c[0] for c in CASES])
def test_simple_singularity_invariants(name, equation, weights, mu):
    ring = PolyRing(["x", "y"], weights)
    X = Variety(ring, [parse_poly(equation, ring)], JacobianPolyvector())
    rep = tjurina(X)
    assert rep.milnor == mu
    assert rep.tjurina == mu
    assert rep.gap == 0
    series = hp0_series(X)
    assert series.total_dimension() == mu
    # the defining equation is weighted-homogeneous of the top weight
    f = X.ideal_gens[0]
    assert f.is_quasihomogeneous()


@pytest.mark.parametrize(
    "name, equation, weights, mu",
    [c for c in CASES if c[0] in ("A2", "A3", "D4", "D5", "E6")],
    ids=["A2", "A3", "D4", "D5", "E6"],
)
def test_simple_singularity_oracle_matches(name, equation, weights, mu):
    ring = PolyRing(["x", "y"], weights)
    X = Variety(ring, [parse_poly(equation, ring)], JacobianPolyvector())
    report = verify_hp0(X, margin=2)
    assert report.match, report.mismatches
    assert report.table.total() == mu


def test_d5_equals_perturbed_form():
    # x^3 + x^2 y + y^4 carries the same invariants as the D5 normal
    # form: the cubic term is a higher-order perturbation
    R = PolyRing(["x", "y"])
    perturbed = tjurina(Variety(R, [parse_poly("x^3 + x^2*y + y^4", R)]))
    ring = PolyRing(["x", "y"], (3, 2))
    normal = tjurina(Variety(ring, [parse_poly("x^2*y + y^4", ring)]))
    assert (perturbed.milnor, perturbed.tjurina) == (normal.milnor, normal.tjurina) == (5, 5)


SURFACES = [
    ("A1-surface", "x^2 + y^2 + z^2", (1, 1, 1), 1),
    ("A2-surface", "x^2 + y^2 + z^3", (3, 3, 2), 2),
    ("E8-surface", "x^2 + y^3 + z^5", (15, 10, 6), 8),
]


@pytest.mark.parametrize("name, equation, weights, mu", SURFACES, ids=[c[0] for c in SURFACES])
def test_surface_singularities(name, equation, weights, mu):
    from leafalg.geom import jacobian_bracket_matrix, leaves_check
    from leafalg.groebner import normal_form

    ring = PolyRing(["x", "y", "z"], weights)
    X = Variety(ring, [parse_poly(equation, ring)], JacobianPolyvector())
    rep = tjurina(X)
    assert rep.milnor == mu and rep.tjurina == mu
    report = verify_hp0(X, margin=1)
    assert report.match, report.mismatches
    # isolated surface singularities have finitely many symplectic leaves
    assert leaves_check(X).passed
    # the bracket satisfies the Jacobi identity modulo the surface ideal
    pi = jacobian_bracket_matrix(X)
    gb = X.groebner()
    x, y, z = (ring.var(v) for v in ring.variables)
    from leafalg.vfields import hamiltonian_from_bracket

    def br(a, b):
        return hamiltonian_from_bracket(a, pi).apply(b)

    cyclic = br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y)
    assert normal_form(cyclic, gb).is_zero()
