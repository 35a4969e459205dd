"""Exact linear algebra over the rationals.

Callers hand in sparse vectors, dicts from any sortable key to a
Fraction (zero entries and empty vectors are allowed), and ask for the
rank of their span (``span_rank``) or for the linear relations among
them (``relations``).  Only this module turns vectors into matrices: the
keys in use become the sorted columns (or rows) of a dense matrix over
one shared zero, so how matrices are laid out and reduced is decided
here alone.

Underneath is Gaussian elimination on dense rows of Fractions.
Pivoting is deterministic (first nonzero column, rows in given order),
so every caller gets reproducible ranks and relation bases.
"""

from __future__ import annotations

from fractions import Fraction


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (rows, pivot column indices)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r] + [row for row in mat[r:] if any(v != 0 for v in row)], pivots


def rank(rows: list[list[Fraction]]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace of the matrix (rows of length ncols)."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def _matrix(vectors) -> list[list[Fraction]]:
    """One dense row per vector, over the sorted keys of their nonzero
    entries, all missing entries sharing a single zero."""
    keys = sorted({k for v in vectors for k, c in v.items() if c})
    zero = Fraction(0)
    return [[v.get(k, zero) for k in keys] for v in vectors]


def span_rank(vectors) -> int:
    """Rank of the span of the sparse vectors."""
    return rank([row for row in _matrix(vectors) if any(row)])


def relations(vectors) -> list[list[Fraction]]:
    """Basis of the coefficient tuples c with sum_a c[a] * vectors[a] = 0.

    The matrix has one column per vector, in the given order, and one
    row per key of the support, sorted; the basis is the one read off
    its reduced row echelon form.
    """
    return nullspace([list(col) for col in zip(*_matrix(vectors))], len(vectors))
