"""Symmetric-power generating series and the brute second-power oracle."""

import random

import pytest

from leafalg.errors import DomainError, InputError
from leafalg.geom import JacobianPolyvector, Variety
from leafalg.poly import PolyRing, parse_poly
from leafalg.sympower import (
    BigradedSeries,
    brute_sym2_coinvariants,
    hp0_sym_series,
    sym_power_series,
)

from leafalg.vfields import hamiltonian_family_top
from oracles import brute_sym2_coinvariants as sym2_oracle
from oracles import layer_text, partition_count

CUSP_RING = PolyRing(["x", "y"], [3, 2])


def test_partition_numbers():
    series = sym_power_series({0: 1}, 0, 6)
    for r in range(0, 7):
        assert series.s_layer(r) == ({0: partition_count(r)} if partition_count(r) else {})


def test_s1_layer_is_shifted_p():
    rng = random.Random(73)
    for _ in range(10):
        p = {j: rng.randint(0, 3) for j in rng.sample(range(0, 7), 3)}
        p = {j: c for j, c in p.items() if c}
        d = rng.randint(0, 4)
        series = sym_power_series(p, d, 2)
        assert series.s_layer(1) == {j - d: c for j, c in p.items()}


@pytest.mark.parametrize("seed", range(20))
def test_each_layer_prints_as_the_layer_reference(seed):
    # corrected layers reach negative u-exponents; each layer's coefficients are positive
    rng = random.Random(seed)
    p = {j: rng.randint(1, 3) for j in rng.sample(range(0, 7), rng.randint(1, 3))}
    series = sym_power_series(p, rng.randint(0, 4), 3)
    layers = [(r, layer_text(series.s_layer(r))) for r in range(4) if series.s_layer(r)]
    expected = " + ".join(body if r == 0 else f"({body})*s" + (f"^{r}" if r > 1 else "") for r, body in layers)
    assert str(series) == expected
    for _ in range(50):
        layer = {rng.randint(-6, 6): rng.choice((1, 1, 2, 5, 31)) for _ in range(rng.randint(1, 6))}
        series = BigradedSeries(1, {(0, 0): 1, **{(1, u): c for u, c in layer.items()}})
        assert str(series) == f"1 + ({layer_text(layer)})*s"


def test_s2_layer_hand_expansion():
    # Sym^2(tV) + t^2 V for V = 1 + u^2
    for d in (0, 1, 5):
        series = sym_power_series({0: 1, 2: 1}, d, 2)
        assert series.s_layer(2) == {-2 * d: 2, 2 - 2 * d: 2, 4 - 2 * d: 1}


def test_u_specialization_counts_partitions_with_multiplicity():
    # p(1) = 2: setting u = 1 gives the generating function of
    # partitions into parts of 2 colours
    series = sym_power_series({0: 1, 2: 1}, 0, 4)
    two_colour = sym_power_series({0: 2}, 0, 4)
    def at_u_1(s):
        return {r: sum(s.s_layer(r).values()) for r in range(s.truncation + 1)}

    assert at_u_1(series) == at_u_1(two_colour)


def test_multiplicative_in_p():
    p = {0: 1, 2: 1}
    q = {1: 2}
    merged = {0: 1, 1: 2, 2: 1}
    lhs = sym_power_series(merged, 3, 3)
    rhs = sym_power_series(p, 3, 3) * sym_power_series(q, 3, 3)
    assert lhs == rhs


def test_series_invariants():
    series = sym_power_series({0: 1, 2: 1}, 1, 3)
    assert series.coefficients[(0, 0)] == 1
    assert all(c >= 0 for c in series.coefficients.values())
    with pytest.raises(InputError):
        sym_power_series({2: -1}, 0, 2)
    with pytest.raises(InputError):
        BigradedSeries(2, {(0, 0): 1, (0, 1): 1})


def test_brute_sym2_symplectic_plane():
    # constants are reachable through pairs like 1 (x) x, so every
    # weight dies; frozen from the linear-algebra oracle
    plane = Variety(PolyRing(["x", "y"]), [], JacobianPolyvector())
    dims = brute_sym2_coinvariants(plane, 4)
    assert dims == {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}


def test_brute_sym2_smooth_curve():
    # the family is +-d_y, of weight -1, so the images of weight 4 come
    # from sources of weight 5.  Sym^2 C[y] = C[u, v] with u = y1 + y2,
    # v = (y1 - y2)^2, on which d_y acts as 2 d/du: nothing survives
    R = PolyRing(["x", "y"])
    line = Variety(R, [parse_poly("x", R)], JacobianPolyvector())
    dims = brute_sym2_coinvariants(line, 4)
    assert dims == {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}


def test_brute_sym2_cuspidal_conjectural():
    # frozen oracle values; the naive bigraded prediction for the curve
    # (2 + 2u^2 + u^4 per power, shifted) does not match, which is the
    # library's data point for the open extension question
    cusp = Variety(CUSP_RING, [parse_poly("x^2 - y^3", CUSP_RING)], JacobianPolyvector())
    dims = brute_sym2_coinvariants(cusp, 8)
    assert dims == {0: 1, 1: 0, 2: 1, 3: 0, 4: 1, 5: 0, 6: 1, 7: 0, 8: 1}
    corrected = hp0_sym_series(cusp, 2, corrected=True)
    prediction = {e + 12: c for e, c in corrected.s_layer(2).items()}
    assert prediction == {0: 2, 2: 2, 4: 1}
    assert prediction != {w: d for w, d in dims.items() if w in prediction}


SYM2_CASES = {
    "symplectic plane": (["x", "y"], (1, 1), [], 4),
    "line x = 0": (["x", "y"], (1, 1), ["x"], 4),
    "cusp": (["x", "y"], (3, 2), ["x^2 - y^3"], 8),
    "a5_curve": (["x", "y"], (3, 1), ["x^2 + y^6"], 4),
    "fermat3": (["x", "y", "z"], (1, 1, 1), ["x^3 + y^3 + z^3"], 4),
}


@pytest.mark.parametrize("name", SYM2_CASES)
def test_brute_sym2_matches_the_dense_oracle(name):
    # the oracle takes every unordered pair of monomials and every
    # Hamiltonian field of a monomial form, with no Groebner basis; a
    # form of weight a gives a field of weight at least a - sum(weights)
    names, weights, texts, top = SYM2_CASES[name]
    ring = PolyRing(names, weights)
    gens = [parse_poly(t, ring) for t in texts]
    X = Variety(ring, gens)
    fields = hamiltonian_family_top(X, top + sum(weights))
    assert brute_sym2_coinvariants(X, top) == sym2_oracle(gens, fields, top)


def test_brute_sym2_size_guard():
    R4 = PolyRing(["x", "y", "z", "w"])
    big = Variety(R4, [parse_poly("x^2+y^2+z^2+w^2", R4)], JacobianPolyvector())
    with pytest.raises(DomainError, match="size guard"):
        brute_sym2_coinvariants(big, 2)


def test_hp0_sym_series_corrected_and_plain():
    cusp = Variety(CUSP_RING, [parse_poly("x^2 - y^3", CUSP_RING)], JacobianPolyvector())
    plain = hp0_sym_series(cusp, 2, corrected=False)
    corrected = hp0_sym_series(cusp, 2, corrected=True)
    assert plain.s_layer(1) == {0: 1, 2: 1}
    assert corrected.s_layer(1) == {-6: 1, -4: 1}
