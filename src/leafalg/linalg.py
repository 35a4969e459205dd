"""Exact linear algebra over the rationals, on integer rows.

A row is a sparse dict from a sortable key to a nonzero int.  Callers
scale their rational vectors to such rows themselves (``_integer_row``,
``_integer_components``), grow a span one row at a time
(``Echelon.add_row``), ask for its rank (``span_rank``), or ask for the
linear relations among rows that each come with a positive denominator
(``relations``, each relation a sparse dict from row index to Fraction).

Underneath is one sparse elimination routine, ``Echelon._reduce``.  A
row's pivot is its smallest column.  A new row is reduced against the
pivot rows, fraction-free, until it vanishes or its smallest column is
not yet a pivot; then it becomes the primitive pivot row there.  Columns
are the keys themselves in ``Echelon`` and ``span_rank``; ``relations``
numbers the sorted keys as columns.  Either way pivoting follows the key
order, so every caller gets reproducible ranks and relation bases.

The dense ``rref`` is used by tests only.  It stays here because the
bench tracer (``bench/spans.py``) wraps it by name; once the tracer
wraps the sparse routines instead, it moves to the tests' oracles.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


class Echelon:
    """Echelon form of a growing span of integer rows."""

    def __init__(self):
        self.rows: dict = {}  # pivot column -> primitive integer row

    def add_row(self, row: dict) -> bool:
        """Add an integer row without zero entries, which it may change
        in place; True if it was not already in the span."""
        lead, row = self._reduce(row)
        if lead is None:
            return False
        self.rows[lead] = row
        return True

    def _reduce(self, row: dict) -> tuple:
        """Reduce an integer row against the pivot rows, smallest column
        first.  Returns ``(None, {})`` if it vanishes, else its first
        column that is no pivot and the primitive reduced row."""
        rows = self.rows
        heap = list(row)
        heapify(heap)
        while heap:
            col = heappop(heap)
            a = row.get(col)
            if a is None:  # cancelled since it was pushed
                continue
            pivot = rows.get(col)
            if pivot is None:
                g = gcd(*row.values())
                if g != 1:
                    row = {k: x // g for k, x in row.items()}
                return col, row
            # row <- b * row - a * pivot, with a / b = row[col] / pivot[col]
            b = pivot[col]
            g = gcd(a, b)
            a, b = a // g, b // g
            if b < 0:
                a, b = -a, -b
            if b != 1:
                row = {k: b * x for k, x in row.items()}
            for k, x in pivot.items():
                y = row.get(k)
                if y is None:  # fill-in, always right of col
                    row[k] = -a * x
                    heappush(heap, k)
                else:
                    y -= a * x
                    if y:
                        row[k] = y
                    else:
                        del row[k]
        return None, {}


def _integer_row(vector) -> tuple[dict, int]:
    """The nonzero entries of a rational vector times the lcm D of their
    denominators, and D (a zero entry has denominator 1)."""
    den = lcm(*(c.denominator for c in vector.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in vector.items() if c}, den


def _integer_components(components) -> tuple[list[dict], int]:
    """The ``{key: coefficient}`` components of one vector times the lcm D
    of all their denominators, as int dicts without zero entries (keys in
    their order), and D."""
    den = lcm(*(c.denominator for terms in components for c in terms.values()))
    return [{m: c.numerator * (den // c.denominator) for m, c in terms.items() if c} for terms in components], den


def span_rank(rows, size: int | None = None) -> int:
    """Rank of the span of the integer rows without zero entries, read
    one at a time and handed to ``Echelon.add_row`` as they come (which
    may change them).  With ``size``, the dimension of the space they lie
    in, reading stops once the rank reaches it, so a lazy iterable builds
    no row past that."""
    echelon = Echelon()
    for row in rows:
        if echelon.add_row(row) and len(echelon.rows) == size:
            break
    return len(echelon.rows)


def relations(pairs) -> list[dict[int, Fraction]]:
    """Basis of the coefficient tuples c with sum_a c[a] * v_a = 0, each
    as a sparse ``{index a: Fraction}`` of its nonzero entries in
    ascending index order.  ``pairs[a]`` is ``(row, den)``, an integer
    row (zero entries are skipped) and a positive int, standing for the
    vector v_a = row / den.

    The vectors are reduced in the given order, each carrying the
    record of how it combines the earlier ones (columns past the
    keys).  Vector i enters as its integer row with den_i in its record
    column, so the record holds the combination of the exact vectors.
    Each vector that vanishes gives one relation: coefficient 1 on
    itself, minus its unique expression in the earlier independent
    vectors.  That is the basis read off the reduced row echelon form of
    the matrix with one column per vector.
    """
    cols = {k: i for i, k in enumerate(sorted({k for row, _ in pairs for k in row}))}
    n = len(cols)
    echelon = Echelon()
    basis = []
    for i, (v, den) in enumerate(pairs):
        row = {cols[k]: c for k, c in v.items() if c}
        row[n + i] = den
        lead, row = echelon._reduce(row)
        if lead < n:
            echelon.rows[lead] = row
            continue
        # every column below n cancelled, so only record columns remain
        own = row[n + i]
        basis.append({k - n: Fraction(x, own) for k, x in sorted(row.items())})
    return basis


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
