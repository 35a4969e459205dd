"""Coinvariant oracle: truncated per-weight dimensions vs closed forms."""

import random
from pathlib import Path

import pytest

from leafalg import coinv, groebner, sympower, vfields
from leafalg.coinv import coinvariants_truncated, verify_hp0
from leafalg.cli import load_input
from leafalg.errors import DomainError, InputError
from leafalg.geom import JacobianPolyvector, Variety, hp0_series
from leafalg.poly import PolyRing, parse_poly
from leafalg.vfields import VectorField, derivations_up_to_degree
from oracles import brute_coinvariants, derivation_coinvariants, random_quasihomogeneous

CORPUS = Path(__file__).resolve().parents[1] / "bench" / "corpus"

XYZ = PolyRing(["x", "y", "z"])
CUSP_RING = PolyRing(["x", "y"], [3, 2])


def polys(ring, *texts):
    return [parse_poly(t, ring) for t in texts]


def fermat():
    return Variety(XYZ, polys(XYZ, "x^3 + y^3 + z^3"), JacobianPolyvector())


def cuspidal():
    return Variety(CUSP_RING, polys(CUSP_RING, "x^2 - y^3"), JacobianPolyvector())


def cusp_tangent():
    return VectorField(CUSP_RING, polys(CUSP_RING, "3*y^2", "2*x"))


def test_cuspidal_volume_preserving_family():
    table = coinvariants_truncated(cuspidal(), [cusp_tangent()], 8)
    assert table.total() == 2
    assert {w: d for w, d in table.dimensions.items() if d} == {0: 1, 2: 1}


def test_cuspidal_full_derivations():
    table = coinvariants_truncated(cuspidal(), "derivations", 8)
    assert table.total() == 1
    assert table.dimensions[0] == 1


def test_fermat_hamiltonian_family():
    table = coinvariants_truncated(fermat(), "hamiltonian-top", 6)
    assert {w: d for w, d in table.dimensions.items() if d} == {0: 1, 1: 3, 2: 3, 3: 1}


def test_stability_above_socle():
    table = coinvariants_truncated(fermat(), "hamiltonian-top", 9)
    for w in range(4, 10):
        assert table.dimensions[w] == 0


def test_family_monotonicity():
    # enlarging the family can only shrink the per-weight dimensions
    base = coinvariants_truncated(cuspidal(), [cusp_tangent()], 6)
    euler = VectorField(CUSP_RING, polys(CUSP_RING, "3*x", "2*y"))
    larger = coinvariants_truncated(cuspidal(), [cusp_tangent(), euler], 6)
    for w in range(0, 7):
        assert larger.dimensions[w] <= base.dimensions[w]


def test_verify_hp0_cuspidal_and_fermat():
    for X in (cuspidal(), fermat()):
        report = verify_hp0(X, margin=2)
        assert report.match, report.mismatches


def test_verify_hp0_rejects_inhomogeneous():
    R = PolyRing(["x", "y"])
    conic = Variety(R, polys(R, "x^2 + y^2 - 1"), JacobianPolyvector())
    with pytest.raises(DomainError):
        verify_hp0(conic)


def test_rejects_non_graded_family():
    mixed = VectorField(CUSP_RING, polys(CUSP_RING, "3*y^2 + 3*x", "2*x + 2*y"))
    with pytest.raises(DomainError, match="homogeneous"):
        coinvariants_truncated(cuspidal(), [mixed], 4)


def _embed(poly, big, offset):
    """Reinterpret a polynomial in a product ring, shifting variables."""
    out = big.zero()
    for mono, c in poly.terms.items():
        expo = [0] * big.arity
        for i, e in enumerate(mono):
            expo[i + offset] = e
        out = out + big.monomial(tuple(expo), c)
    return out


def test_multiplicativity_on_product():
    # cuspidal x cuspidal with the direct-sum family: the coinvariant
    # table of the product is the convolution of the factor tables
    big = PolyRing(["x", "y", "a", "b"], [3, 2, 3, 2])
    f1 = _embed(parse_poly("x^2 - y^3", CUSP_RING), big, 0)
    f2 = _embed(parse_poly("x^2 - y^3", CUSP_RING), big, 2)
    product = Variety(big, [f1, f2])
    eta1 = VectorField(big, [
        _embed(parse_poly("3*y^2", CUSP_RING), big, 0),
        _embed(parse_poly("2*x", CUSP_RING), big, 0),
        big.zero(),
        big.zero(),
    ])
    eta2 = VectorField(big, [
        big.zero(),
        big.zero(),
        _embed(parse_poly("3*y^2", CUSP_RING), big, 2),
        _embed(parse_poly("2*x", CUSP_RING), big, 2),
    ])
    table = coinvariants_truncated(product, [eta1, eta2], 6)
    factor = coinvariants_truncated(cuspidal(), [cusp_tangent()], 6)
    for w in range(0, 7):
        convolution = sum(
            factor.dimensions.get(i, 0) * factor.dimensions.get(w - i, 0)
            for i in range(0, w + 1)
        )
        assert table.dimensions[w] == convolution


def test_oracle_matches_series_per_weight():
    X = fermat()
    series = hp0_series(X)
    table = coinvariants_truncated(X, "hamiltonian-top", series.socle_degree())
    for w, dim in table.dimensions.items():
        assert dim == series.coefficient(w)


def test_ambient_plane_coinvariants_vanish():
    # the symplectic plane has no coinvariants at all: even the constants
    # are images (a field of weight -1 sends a linear monomial to 1); this
    # exercises the family cap when the equation weights undershoot the
    # sum of variable weights
    plane = Variety(PolyRing(["x", "y"]), [], JacobianPolyvector())
    table = coinvariants_truncated(plane, "hamiltonian-top", 3)
    assert table.total() == 0


def test_verify_hp0_shifted_weights():
    # equation weight 2 vs weight sum 3: fields of low weight come from
    # forms above the truncation, so the cap must shift accordingly
    cone = Variety(XYZ, polys(XYZ, "x^2 + y^2 + z^2"), JacobianPolyvector())
    assert verify_hp0(cone, margin=3).match
    # and the opposite shift: a quartic cone (equation weight 4)
    quartic = Variety(XYZ, polys(XYZ, "x^4 + y^4 + z^4"), JacobianPolyvector())
    report = verify_hp0(quartic, margin=1)
    assert report.match
    assert hp0_series(quartic).total_dimension() == 27


def milnor_orlik(d, weights):
    """prod_i (1 - u^(d - w_i)) / (1 - u^w_i) as a coefficient list, by
    exact division in Z[u]."""
    poly = [1]
    for w in weights:
        shifted = [0] * (d - w) + poly
        poly = [a - b for a, b in zip(poly + [0] * (d - w), shifted)]
    for w in weights:
        # q / (1 - u^w): q_k = a_k + q_(k-w), and the top w must vanish
        quotient = []
        for k, a in enumerate(poly):
            quotient.append(a + (quotient[k - w] if k >= w else 0))
        assert not any(quotient[len(poly) - w :])
        poly = quotient[: len(poly) - w]
    return poly


@pytest.mark.parametrize(
    "text, weights",
    [
        ("x^3 + y^3 + z^3", (1, 1, 1)),
        ("x^4 + y^4 + z^4", (1, 1, 1)),
        ("x^5 + y^5 + z^5", (1, 1, 1)),
        ("x^6 + y^6 + z^6", (1, 1, 1)),
        ("x^2 + y^3 + z^5", (15, 10, 6)),
        ("x^2 + y^3 + z^7", (21, 14, 6)),
        # rational coefficients: the basis's integer copies lead with 14
        # and 15, so normal-form rows carry denominators
        ("2/3*x^4 + y^4 - 5/7*z^4 + x^2*y^2", (1, 1, 1)),
        ("3/2*x^2 + y^3 - 2/5*y*z^3", (9, 6, 4)),
    ],
)
def test_hamiltonian_oracle_matches_milnor_orlik(text, weights):
    ring = PolyRing(["x", "y", "z"], weights)
    f = parse_poly(text, ring)
    expected = milnor_orlik(f.weighted_degree(), weights)
    X = Variety(ring, [f], JacobianPolyvector())
    assert hp0_series(X).coefficients() == {w: c for w, c in enumerate(expected) if c}
    socle = len(expected) - 1
    table = coinvariants_truncated(X, "hamiltonian-top", socle)
    assert [table.dimensions[w] for w in range(socle + 1)] == expected


def test_milnor_orlik_closed_forms():
    assert milnor_orlik(4, (1, 1, 1)) == [1, 3, 6, 7, 6, 3, 1]  # (1 + u + u^2)^3
    e8 = milnor_orlik(30, (15, 10, 6))
    assert [w for w, c in enumerate(e8) if c] == [0, 6, 10, 12, 16, 18, 22, 28]
    assert set(e8) == {0, 1}


def test_oracles_make_no_polynomial_normal_forms(monkeypatch):
    # images come from the basis's monomial table and from fields applied
    # to monomials, not from normal_form of VectorField.apply
    calls = []

    def counting(name, real):
        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return counted

    for module in (groebner, vfields, coinv, sympower):
        if hasattr(module, "normal_form"):
            monkeypatch.setattr(module, "normal_form", counting("normal_form", groebner.normal_form))
    monkeypatch.setattr(VectorField, "apply", counting("apply", VectorField.apply))
    quartic = Variety(XYZ, polys(XYZ, "x^4 + y^4 + z^4"), JacobianPolyvector())
    assert verify_hp0(quartic).match
    fields = derivations_up_to_degree(quartic.groebner(), 2)
    assert sum(map(len, fields.values())) > 0
    assert calls == []


BRUTE_CASES = {
    # non-diagonal, rational and non-monic
    "rational quartic surface": (["x", "y", "z"], (1, 1, 1), ["2/3*x^4 + y^4 - 5/7*z^4 + x^2*y^2"], 7),
    "weighted surface": (["x", "y", "z"], (6, 4, 3), ["x^2 + 2/3*y^3 + 5/4*z^4 - 1/3*x*z^2"], 14),
    # codimension 2, m = 2
    "two_quadrics_c4": (["x", "y", "z", "w"], (1, 1, 1, 1), ["x^2 + y^2 + z^2", "x^2 + 2*y^2 + 3*z^2"], 4),
    # m = 3: forms g dx_j, each pair once for every j
    "cubic threefold": (["x", "y", "z", "w"], (1, 1, 1, 1), ["x^3 + 1/2*y^3 - 3/4*z^3 + w^3 + x*y*w"], 4),
    # m = 3 with unequal dx_j weights: each j offsets its forms' weights
    "weighted threefold": (
        ["x", "y", "z", "w"],
        (3, 3, 2, 2),
        ["x^2 + 2/3*y^2 - z^3 + 5/4*w^3 + x*y + z^2*w"],
        8,
    ),
    # codimension 2, m = 3
    "two_quadrics_c5": (["x", "y", "z", "w", "v"], (1,) * 5, ["x^2 + y^2 + z^2", "w^2 + v^2 + 2*x*y"], 2),
}


@pytest.mark.parametrize("name", BRUTE_CASES)
def test_hamiltonian_oracle_matches_brute_force(name):
    # the oracle takes forms over standard monomials only, and for every J
    # each unordered pair once; the brute force takes every monomial form
    # and every monomial, with no Groebner basis
    names, weights, texts, top = BRUTE_CASES[name]
    ring = PolyRing(names, weights)
    gens = polys(ring, *texts)
    table = coinvariants_truncated(Variety(ring, gens, JacobianPolyvector()), "hamiltonian-top", top)
    assert table.dimensions == brute_coinvariants(gens, top)


def test_quadric_surface_takes_each_bracket_pair_once(monkeypatch):
    # the image of h under the field of g is the bracket {g, h} = -{h, g},
    # so the oracle takes each unordered pair of distinct standard
    # monomials once, as g < h, and never {g, g} = 0
    pairs = []
    real = coinv.graded_family

    def recording(*args):
        graded, label = real(*args)
        for entries in graded.values():
            for k, (image, floor) in enumerate(entries):
                entries[k] = (lambda h, image=image, g=floor: pairs.append((g, h)) or image(h)), floor
        return graded, label

    monkeypatch.setattr(coinv, "graded_family", recording)
    cone = Variety(XYZ, polys(XYZ, "x^2 + y^2 + z^2"), JacobianPolyvector())
    assert coinvariants_truncated(cone, "hamiltonian-top", 8).total() == 1
    seen = set(pairs)
    assert pairs and None not in {g for g, _ in pairs} and len(seen) == len(pairs)
    assert not any(g == h or (h, g) in seen for g, h in pairs)


@pytest.mark.parametrize(
    "names, text, top, parent_images",
    [
        (["x", "y", "z", "w"], "x^3 + y^3 + z^3 + w^3", 9, 68122),
        (["x", "y", "z"], "x^2 + y^2 + z^2", 32, 116808),
    ],
)
def test_each_piece_stops_once_it_is_spanned(monkeypatch, names, text, top, parent_images):
    # past the top weight of HP0 every piece is spanned by a small share
    # of its images; building them all took the counts ``parent_images``
    built = []
    real = coinv._nf_terms
    monkeypatch.setattr(coinv, "_nf_terms", lambda gb, terms: built.append(1) or real(gb, terms))
    ring = PolyRing(names)
    X = Variety(ring, polys(ring, text), JacobianPolyvector())
    table = coinvariants_truncated(X, "hamiltonian-top", top)
    assert table.dimensions == {w: hp0_series(X).coefficient(w) for w in range(top + 1)}
    assert 0 < len(built) <= parent_images // 10


def graded_corpus():
    """Each corpus document with a weighted-homogeneous ideal and positive
    weights, as a variety with the document's name as its id."""
    out = []
    for path in sorted(CORPUS.glob("*.json")):
        try:
            doc = load_input(str(path))
        except InputError:
            continue
        X = Variety(doc.ring, doc.ideal)
        if X.is_quasihomogeneous() and not X.ring.has_zero_weights:
            out.append(pytest.param(X, id=path.stem))
    return out


def random_graded_varieties(count=6):
    """Seeded quasihomogeneous surfaces and curves in weighted 3-space."""
    rng = random.Random(151)
    out = []
    for k in range(count):
        ring = PolyRing(["x", "y", "z"], [rng.randint(1, 3) for _ in range(3)])
        gens = [random_quasihomogeneous(rng, ring, rng.randint(2, 6)) for _ in range(k % 2 + 1)]
        out.append(pytest.param(Variety(ring, gens), id=f"random{k}"))
    return out


PLANE = PolyRing(["x", "y"])
UNIT_IDEAL = Variety(PLANE, polys(PLANE, "1"))


@pytest.mark.parametrize(
    "X", graded_corpus() + random_graded_varieties() + [pytest.param(UNIT_IDEAL, id="unit_ideal")]
)
def test_all_tangent_fields_leave_the_euler_closed_form(X):
    # the Euler field sum_i w_i x_i d_i is tangent and scales x^a by its
    # weight, so nothing of positive weight survives; at weight 0 the
    # constant 1 survives unless 1 is in I or some tangent field of weight
    # -w_i has a constant coefficient, which maps x_i to a nonzero constant
    top = 5
    gb = X.groebner()
    table = coinvariants_truncated(X, "derivations", top)
    fields = [xi for fs in derivations_up_to_degree(gb, top).values() for xi in fs]
    constant = any((0,) * X.ring.arity in c.terms for xi in fields for c in xi.coefficients)
    expected = {w: 0 for w in range(top + 1)}
    expected[0] = 0 if gb.is_unit_ideal() or constant else 1
    assert table.dimensions == expected
    assert derivation_coinvariants(list(X.ideal_gens), fields, top) == expected


@pytest.mark.parametrize(
    "family, message",
    [
        ("hamiltonian", "^unknown family 'hamiltonian'; use 'hamiltonian-top', 'derivations', or a list of fields$"),
        (polys(CUSP_RING, "x"), "^explicit family must be a list of vector fields$"),
    ],
    ids=["unknown-name", "not-fields"],
)
def test_rejects_a_family_it_cannot_read(family, message):
    with pytest.raises(InputError, match=message):
        coinvariants_truncated(cuspidal(), family, 4)
