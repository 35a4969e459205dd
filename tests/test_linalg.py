"""Integer-row interface to exact linear algebra, on seeded random input,
checked against the dense reference ``rref`` / ``nullspace``."""

import math
import random
from fractions import Fraction

import pytest

from leafalg.linalg import Echelon, _integer_components, _integer_row, relations, rref, span_rank

from oracles import nullspace, stacked_integer_components

SEEDS = range(40)


def dense(rels, n):
    """The sparse relations as dense coefficient lists of length n."""
    return [[rel.get(a, Fraction(0)) for a in range(n)] for rel in rels]


def integer_rows(vectors):
    """The vectors as the zero-free integer rows ``span_rank`` reads."""
    return [_integer_row(v)[0] for v in vectors]


def integer_pairs(vectors):
    """The vectors as the ``(row, den)`` pairs ``relations`` reads."""
    return [_integer_row(v) for v in vectors]


def random_vectors(rng):
    """A few sparse vectors over a small key set, some of them dependent."""
    keys = [(rng.randrange(3), (rng.randrange(3), rng.randrange(3))) for _ in range(7)]
    vectors = []
    for _ in range(rng.randint(1, 7)):
        if vectors and rng.random() < 0.3:
            # a combination of earlier vectors, so relations exist
            v = {}
            for u in rng.sample(vectors, min(2, len(vectors))):
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for k, x in u.items():
                    v[k] = v.get(k, 0) + c * x
        else:
            chosen = rng.sample(keys, rng.randint(0, len(keys)))
            v = {k: Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for k in chosen}
        vectors.append(v)
    return vectors


@pytest.mark.parametrize("seed", SEEDS)
def test_relations_annihilate(seed):
    vectors = random_vectors(random.Random(seed))
    keys = {k for v in vectors for k in v}
    for rel in relations(integer_pairs(vectors)):
        assert all(rel.values()) and list(rel) == sorted(rel)
        c = dense([rel], len(vectors))[0]
        assert len(c) == len(vectors)
        assert any(c)
        for k in keys:
            assert sum(ca * v.get(k, 0) for ca, v in zip(c, vectors)) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_relations_count_is_corank(seed):
    vectors = random_vectors(random.Random(seed))
    assert len(relations(integer_pairs(vectors))) == len(vectors) - span_rank(integer_rows(vectors))


@pytest.mark.parametrize("seed", SEEDS)
def test_span_rank_ignores_order_and_empty_vectors(seed):
    rng = random.Random(seed)
    vectors = random_vectors(rng)
    shuffled = vectors + [{}, {}]
    rng.shuffle(shuffled)
    assert span_rank(integer_rows(shuffled)) == span_rank(integer_rows(vectors))


@pytest.mark.parametrize("seed", SEEDS)
def test_relations_match_dense_nullspace(seed):
    vectors = random_vectors(random.Random(seed))
    support = sorted({k for v in vectors for k in v})
    matrix = [[Fraction(v.get(k, 0)) for v in vectors] for k in support]
    assert dense(relations(integer_pairs(vectors)), len(vectors)) == nullspace(matrix, len(vectors))


@pytest.mark.parametrize("seed", SEEDS)
def test_relations_of_rows_with_denominators_match_dense_nullspace(seed):
    # each exact vector v goes in as (row, den) with row = den * v integral,
    # den a random multiple of the lcm of v's denominators
    rng = random.Random(4000 + seed)
    vectors = random_vectors(rng)
    pairs = []
    for v in vectors:
        den = math.lcm(*(Fraction(c).denominator for c in v.values())) * rng.randint(1, 5)
        pairs.append(({k: int(c * den) for k, c in v.items()}, den))
    support = sorted({k for v in vectors for k in v})
    matrix = [[Fraction(v.get(k, 0)) for v in vectors] for k in support]
    found = relations(pairs)
    assert dense(found, len(vectors)) == nullspace(matrix, len(vectors))
    assert found == relations(integer_pairs(vectors))


def test_small_cases():
    assert span_rank([]) == 0
    assert span_rank(integer_rows([{}, {"a": Fraction(0)}])) == 0
    assert relations(integer_pairs([{}, {"a": Fraction(1)}])) == [{0: 1}]
    assert span_rank([{"a": 1, "b": 2}, {"a": 2, "b": 4}, {"c": 1}]) == 2
    assert relations(integer_pairs([{"a": 1, "b": 2}, {"a": 2, "b": 4}])) == [{0: -2, 1: 1}]


LARGE_SEEDS = range(8)


def big_fraction(rng, share=0.1):
    """Mostly small entries, a share of them with numerator and
    denominator up to 10^12."""
    if rng.random() < share:
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**12), rng.randint(1, 10**12))
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))


def large_sparse_vectors(rng):
    """30-80 vectors over 20-60 (slot, monomial) keys at about 10% density;
    about a quarter are combinations of earlier ones, some are empty."""
    keys = set()
    nkeys = rng.randint(20, 60)
    while len(keys) < nkeys:
        keys.add((rng.randrange(3), (rng.randrange(4), rng.randrange(4), rng.randrange(4))))
    keys = sorted(keys)
    vectors = []
    for _ in range(rng.randint(30, 80)):
        if vectors and rng.random() < 0.25:
            v = {}
            for u in rng.sample(vectors, min(rng.randint(2, 3), len(vectors))):
                c = big_fraction(rng, share=0.02)
                for k, x in u.items():
                    v[k] = v.get(k, 0) + c * x
        elif rng.random() < 0.05:
            v = {}
        else:
            v = {k: big_fraction(rng) for k in keys if rng.random() < 0.1}
        vectors.append(v)
    return vectors


def dense_rows(vectors):
    support = sorted({k for v in vectors for k, c in v.items() if c})
    return [[Fraction(v.get(k, 0)) for k in support] for v in vectors]


@pytest.mark.parametrize("seed", LARGE_SEEDS)
def test_large_relations_match_dense_nullspace(seed):
    vectors = large_sparse_vectors(random.Random(1000 + seed))
    transpose = [list(col) for col in zip(*dense_rows(vectors))]
    found = relations(integer_pairs(vectors))
    assert dense(found, len(vectors)) == nullspace(transpose, len(vectors))
    assert found  # the forced combinations give relations
    assert all(type(c) is Fraction and c for rel in found for c in rel.values())


@pytest.mark.parametrize("seed", LARGE_SEEDS)
def test_large_span_rank_matches_dense_rref(seed):
    vectors = large_sparse_vectors(random.Random(2000 + seed))
    assert span_rank(integer_rows(vectors)) == len(rref(dense_rows(vectors))[1])


@pytest.mark.parametrize("seed", LARGE_SEEDS)
def test_add_is_false_exactly_on_the_current_span(seed):
    rng = random.Random(3000 + seed)
    vectors = large_sparse_vectors(rng)
    # also offer combinations of vectors the echelon has already seen
    for _ in range(10):
        position = rng.randint(2, len(vectors))
        v = {}
        for u in rng.sample(vectors[:position], 2):
            c = big_fraction(rng, share=0.02)
            for k, x in u.items():
                v[k] = v.get(k, 0) + c * x
        vectors.insert(position, v)
    # a vector is outside the span of the earlier ones exactly when its
    # column of the transpose is a pivot column
    transpose = [list(col) for col in zip(*dense_rows(vectors))]
    outside = set(rref(transpose)[1])
    echelon = Echelon()
    assert [echelon.add_row(row) for row in integer_rows(vectors)] == [i in outside for i in range(len(vectors))]


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_components_match_the_stacked_reference(seed):
    # Fraction, int and zero entries and empty components: same dicts, key order and denominator
    rng = random.Random(seed)
    for _ in range(25):
        entries = (0, Fraction(0), 1, -4, Fraction(rng.randint(-9, 9), rng.randint(1, 12)), Fraction(5, 6))
        components = [
            {(rng.randrange(3), rng.randrange(3)): rng.choice(entries) for _ in range(rng.randint(0, 4))}
            for _ in range(rng.randint(0, 4))
        ]
        rows, den = _integer_components(components)
        expected, expected_den = stacked_integer_components(components)
        assert den == expected_den
        assert [list(row.items()) for row in rows] == [list(row.items()) for row in expected]
        assert all(type(c) is int and c for row in rows for c in row.values())
