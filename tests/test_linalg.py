"""Sparse-vector interface to exact linear algebra, on seeded random input."""

import random
from fractions import Fraction

import pytest

from leafalg.linalg import nullspace, relations, span_rank

SEEDS = range(40)


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
    for c in relations(vectors):
        assert len(c) == len(vectors)
        assert any(c)
        for k in keys:
            assert sum(ca * v.get(k, 0) for ca, v in zip(c, vectors)) == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_relations_count_is_corank(seed):
    vectors = random_vectors(random.Random(seed))
    assert len(relations(vectors)) == len(vectors) - span_rank(vectors)


@pytest.mark.parametrize("seed", SEEDS)
def test_span_rank_ignores_order_and_empty_vectors(seed):
    rng = random.Random(seed)
    vectors = random_vectors(rng)
    shuffled = vectors + [{}, {}]
    rng.shuffle(shuffled)
    assert span_rank(shuffled) == span_rank(vectors)


@pytest.mark.parametrize("seed", SEEDS)
def test_relations_match_dense_nullspace(seed):
    vectors = random_vectors(random.Random(seed))
    support = sorted({k for v in vectors for k in v})
    matrix = [[Fraction(v.get(k, 0)) for v in vectors] for k in support]
    assert relations(vectors) == nullspace(matrix, len(vectors))


def test_small_cases():
    assert span_rank([]) == 0
    assert span_rank([{}, {"a": Fraction(0)}]) == 0
    assert relations([{}, {"a": Fraction(1)}]) == [[1, 0]]
    assert span_rank([{"a": 1, "b": 2}, {"a": 2, "b": 4}, {"c": 1}]) == 2
    assert relations([{"a": 1, "b": 2}, {"a": 2, "b": 4}]) == [[-2, 1]]
