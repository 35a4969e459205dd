"""Buchberger Groebner bases and the ideal invariants built on them.

Everything here works over exact rationals.  A monomial order is its
key function: ``order(ring)`` keys monomials, a larger key for a larger
monomial.  ``LEX`` keys a monomial by itself.  The default, ``WGREVLEX``,
is weighted grevlex: weighted degree first, ties broken reverse-
lexicographically on the ring's variable order, so its key is the flat
int tuple (weighted degree, -m_n, ..., -m_1).  Rings with zero-weight
variables put the total degree between the two, so that the order stays
a well-order (1 must be the unique minimum).  ``WGREVLEX`` and the local
order of ``colength_local`` read their keys from the ring's monomial
table (``PolyRing.column``), so each key is built once per monomial.

``buchberger`` keeps its S-pairs in a heap keyed once, when each pair is
created, by (weighted degree of the lcm, order key of the lcm, (i, j)).
Keys never change and pairs leave only when popped, so the heap picks
the same pair as a full rescan of the queue would, at every step.
Leading terms are computed once per element, both while the basis grows
and in a finished ``GroebnerBasis``; reduction takes the next term from a
heap of (negated key, monomial) tuples, largest monomial first, each
negated key read from the ring's monomial table under every order.  The
basis is seeded from the generators in sorted order, and a generator in
the linear span of the earlier ones is skipped without a reduction: it
lies in their ideal, so the ideal and its reduced basis are the same.

Arithmetic inside is on integers.  Elements under completion are
primitive ``{monomial: int}`` dicts, and the one reducer, fraction-free,
returns a remainder r with its multiplier mult: mult * p = r modulo the
basis.  A reduced basis keeps its elements in that form, primitive with
positive leading coefficients, and their monic ``Fraction`` copies are
made once from them; ``normal_form`` clears p's denominator D and
returns r / (mult * D).

One completion shares one step table among its reductions: a monomial
maps to its step by the first lead dividing it, built once however often
it recurs (cyclic-5: 1 228 steps, 163 monomials), or to the number of
leads that did not divide it.  Elements are only appended, so entries
stay valid; tails are kept whole and cut at ``below`` when used.
``normal_form`` and the interreduction start from an empty table.

Two normal forms stay, each the faster for its callers: ``normal_form``
runs that reducer once; ``_nf_terms`` sums rows NF(x^a) kept on the basis
for the graded solvers.  Tabling ``normal_form`` took katsura-4 with
(u0+...+u4)^8 from 0.147 to 3.60 s (Python 3.11.7); reducing the graded
solvers' images took the benchmark's ``oracle`` pass from 1.01 to 1.25 s.
Both reduce by the basis's integer elements.  A table row is a
primitive integer row with one positive denominator, and ``_nf_terms``
returns (row, den), so a solver that only needs a span never divides.

The same completion, run in k[x]/m^N under a local degree order (lowest
total degree leads, grevlex breaks ties) with every term of degree >= N
dropped, gives truncated local standard bases; N falls to the highest
corner of the staircase as soon as the leading monomials prove it.

The derived invariants: normal forms and ideal membership, local
colength at the origin (one global basis for weighted-homogeneous
generators, else truncated local standard bases for N = 2, 4, 8, ...),
Krull dimension (independent variable sets of the leading-term ideal),
weighted Hilbert-Poincare series (recursion on the leading-term monomial
ideal), minor ideals, and per-degree standard monomial bases; series
and standard monomials are kept on their basis once made.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction
from operator import mul, neg

from .errors import DomainError, InputError
from .linalg import Echelon, _integer_components
from .poly import (
    Monomial,
    Polynomial,
    PolyRing,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

INFINITE = math.inf


def WGREVLEX(ring: PolyRing):
    """The weighted grevlex key function of ``ring``, memoized in its
    monomial table."""
    weights = ring.weights
    # total degree between weight and the grevlex tiebreak keeps
    # 1 strictly minimal when some variable has weight 0
    formula = (
        (lambda m: (sum(map(mul, weights, m)), sum(m), *map(neg, reversed(m))))
        if ring.has_zero_weights
        else (lambda m: (sum(map(mul, weights, m)), *map(neg, reversed(m))))
    )
    return ring.column(WGREVLEX, formula).__getitem__


def LEX(ring: PolyRing):
    """The lexicographic key function: a monomial is its own key
    (``tuple`` returns a tuple as it is)."""
    return tuple


def _heap_key(ring: PolyRing, key):
    """The reducer's heap key under the order ``key``: the negated key,
    so that the heap pops the largest monomial first, memoized in the
    ring's monomial table under the key function."""
    # a starred display sizes each tuple exactly; tuple(map(...)) over-allocates
    return ring.column((neg, key), lambda m: (*map(neg, key(m)),)).__getitem__


def leading_term(terms: dict, key) -> tuple:
    """(leading monomial, coefficient) of the ``{monomial: coefficient}`` terms."""
    m = max(terms, key=key)
    return m, terms[m]


class GroebnerBasis:
    """A reduced Groebner basis: monic elements, no term of any element
    divisible by another element's leading monomial, sorted by leading
    monomial.  Unique for a given ideal and order.

    Built by ``buchberger`` from its primitive integer ``{monomial: int}``
    elements with positive leading coefficients; those stay on the basis
    as ``_integer`` = (elements, their (leading monomial, coefficient)),
    the form both normal forms reduce by."""

    __slots__ = ("ring", "order", "elements", "_key", "_heap_key", "_integer", "_table", "_standard", "_series")

    def __init__(self, ring: PolyRing, order, integer_elements: list[dict]):
        self.ring = ring
        self.order = order
        self._key = key = order(ring)
        self._heap_key = _heap_key(ring, key)
        ranked = sorted(((leading_term(t, key), t) for t in integer_elements), key=lambda e: key(e[0][0]))
        self._integer = [t for _, t in ranked], [lt for lt, _ in ranked]
        self.elements = [
            Polynomial(ring, {m: Fraction(c, lc) for m, c in t.items()}) for (_, lc), t in ranked
        ]
        # monomial -> its normal form as (primitive integer row, den), for _nf_terms
        self._table: dict = {}
        # weighted degree -> its standard monomials, for monomial_basis
        self._standard: dict = {}
        # the quotient's series, for poincare_series
        self._series: PoincareSeries | None = None

    def leading_monomials(self) -> list[Monomial]:
        return [lm for lm, _ in self._integer[1]]

    def is_unit_ideal(self) -> bool:
        return any(sum(lm) == 0 for lm, _ in self._integer[1])

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self.order == other.order
            and self.elements == other.elements
        )

    def __repr__(self):
        return f"GroebnerBasis[{'; '.join(str(g) for g in self.elements)}]"


def _reduce_full(terms: dict, basis: list[dict], leads, heap_key, steps: dict, below=None) -> tuple[dict, int]:
    """Fraction-free full reduction of p, given as ``{monomial: int}``
    terms, by integer polynomials with (leading monomial, coefficient)
    ``leads``: (r, mult) with mult * p = r modulo them.  The next term
    c * m meets the first lead lc * lm dividing m; with a / b = c / lc in
    lowest terms, the pending terms and mult are scaled by b and
    a * x^(m - lm) * tail is subtracted.  Pending terms come largest first
    from a heap of (``heap_key(m)``, m), ``heap_key`` being the negated
    order key of ``_heap_key``, one per monomial of ``work`` (keys are
    injective, so none tie): a cancelled term stays in ``work``
    with coefficient 0 until its entry is popped, and a popped monomial
    never returns, since every step only adds terms below it.  With
    ``below`` set, every term of total degree >= below is dropped: the
    reduction runs in k[x]/m^below.

    ``steps`` is the step table, kept across calls by the same basis:
    it maps m to (lc, [(x^(m - lm) * t, c) for g's other terms c * t]) of
    the first lead dividing m, or to the number of leads checked in vain.
    The basis may only grow between calls (appended elements), so the
    first divisor among the leads it saw never changes, and a miss is
    checked again only against the leads added since.  Tails are kept
    whole; ``below`` applies when a tail is used.
    """
    remainder = []  # (monomial, coefficient, mult when it was set aside)
    mult = 1
    work = {m: c for m, c in terms.items() if below is None or sum(m) < below}
    heap = [(heap_key(m), m) for m in work]
    heapq.heapify(heap)
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m)
        if not c:
            continue
        step = steps.get(m, 0)
        if type(step) is int:
            for g, (lm, lc) in itertools.islice(zip(basis, leads), step, None):
                if mono_divides(lm, m):
                    shift = mono_div(m, lm)
                    step = steps[m] = lc, [(mono_mul(t, shift), s) for t, s in g.items() if t != lm]
                    break
            else:
                steps[m] = len(leads)
                remainder.append((m, c, mult))
                continue
        lc, tail = step
        d = math.gcd(c, lc)
        a, b = c // d, lc // d
        if b != 1:
            mult *= b
            work = {t: b * s for t, s in work.items()}
        for t, gc in tail:
            if below is not None and sum(t) >= below:
                continue
            s = work.get(t)
            if s is None:
                work[t] = -a * gc
                heapq.heappush(heap, (heap_key(t), t))
            else:
                work[t] = s - a * gc
    return {m: c * (mult // at) for m, c, at in remainder}, mult


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Canonical remainder of p modulo the ideal; zero iff p is a member:
    r / (mult * D) for D * p, D the denominator of p, reduced in integers."""
    if p.ring != gb.ring:
        raise InputError("ring mismatch between polynomial and basis")
    (terms,), den = _integer_components([p.terms])
    r, mult = _reduce_full(terms, *gb._integer, gb._heap_key, {})
    den *= mult
    return Polynomial(p.ring, {m: Fraction(c, den) for m, c in r.items()})


def _nf_terms(gb: GroebnerBasis, terms) -> tuple[dict, int]:
    """Normal form of the polynomial with the given ``{monomial:
    coefficient}`` terms, as ``(row, den)``: NF = row / den, with row a
    sparse ``{standard monomial: coefficient}`` of integers when the
    coefficients are integers, and den a positive integer.

    Normal forms are linear, so this sums tabulated rows NF(x^a), one
    per monomial, memoized on the basis as a primitive integer row with
    one positive denominator.  A standard monomial is its own row.  Any
    other x^a takes the first integer basis element g whose lead lc x^lm
    divides it: NF(x^a) = -(1/lc) sum over g's other terms c x^t of
    c NF(x^(a - lm + t)), and every such monomial is smaller than x^a.
    Missing rows are filled smallest-first from an explicit worklist, so
    long reduction chains need no recursion.
    """
    table = gb._table
    elements, leads = gb._integer
    todo = [m for m in terms if m not in table]
    while todo:
        a = todo.pop()
        if a in table:
            continue
        for g, (lm, lc) in zip(elements, leads):
            if mono_divides(lm, a):
                break
        else:
            table[a] = {a: 1}, 1
            continue
        shift = mono_div(a, lm)
        tail = [(mono_mul(t, shift), c) for t, c in g.items() if t != lm]
        missing = [t for t, _ in tail if t not in table]
        if missing:
            todo += [a, *missing]  # back to a once its smaller terms are in
            continue
        row, den = _combine(tail, table)
        den *= lc  # lc > 0: the integer copy of a monic element
        content = math.gcd(den, *row.values())
        table[a] = {s: -v // content for s, v in row.items()}, den // content
    return _combine(terms.items(), table)


def _combine(pairs, table) -> tuple[dict, int]:
    """Sum of c * table[m] over the (m, c) pairs, as ``(row, den)``
    over the lcm den of the rows' denominators, without zero entries."""
    den = math.lcm(*(table[m][1] for m, _ in pairs))
    out: dict = {}
    for m, c in pairs:
        row, d = table[m]
        if d != den:
            c *= den // d
        for s, v in row.items():
            out[s] = out.get(s, 0) + c * v
    return {s: v for s, v in out.items() if v}, den


def buchberger(
    generators: list[Polynomial],
    order=WGREVLEX,
    ring: PolyRing | None = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``generators``.

    Classic Buchberger with the coprime-leading-term and chain
    criteria, processing pairs in increasing order of
    (weighted degree of the pair lcm, order key of the lcm, (i, j)).
    Each pair is ranked once, when it is created, and pushed on a heap;
    ranks never change and a pair leaves only when popped, so the heap
    yields exactly the pick order of a full rescan of the queued pairs.
    Leading terms are computed once per basis element.  The zero ideal
    yields an empty basis; the unit ideal yields [1].  Output is
    deterministic and independent of generator order.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        if ring is None:
            if generators:
                ring = generators[0].ring
            else:
                raise InputError("cannot infer the ring from an empty generator list")
        return GroebnerBasis(ring, order, [])
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise InputError("generators live in different rings")
    key = order(ring)
    basis, leads, _ = _complete(gens, ring, key)

    # reduce: keep minimal leading monomials, tail-reduce, make monic
    heap_key = _heap_key(ring, key)
    order_idx = sorted(range(len(basis)), key=lambda i: key(leads[i][0]))
    minimal: list[int] = []
    for i in order_idx:
        if not any(mono_divides(leads[j][0], leads[i][0]) for j in minimal):
            minimal.append(i)
    reduced: list[dict] = []
    for i in minimal:
        others = [j for j in minimal if j != i]
        r, _ = _reduce_full(basis[i], [basis[j] for j in others], [leads[j] for j in others], heap_key, {})
        # no other minimal lead divides leads[i], so it stays the leading term;
        # divide by the content, signed so that coefficient comes out positive
        content = math.gcd(*r.values())
        if r[leads[i][0]] < 0:
            content = -content
        reduced.append({m: c // content for m, c in r.items()})
    return GroebnerBasis(ring, order, reduced)


def _complete(gens: list[Polynomial], ring: PolyRing, key, below: int | None = None):
    """Buchberger's completion of the nonzero ``gens`` under the order
    ``key``: (elements, their (leading monomial, coefficient), final
    ``below``).  The elements are primitive integer ``{monomial: int}``
    dicts, neither minimal nor monic.

    With ``below`` set it runs in k[x]/m^below under a local degree
    order: terms of total degree >= below vanish, pairs rank by the total
    degree of their lcm, and reduction ends as the monomials are finite.
    After each new lead, ``below`` drops to the staircase's top degree + 1
    (the highest corner) when that is lower: every monomial of that
    degree is then a lead, so the quotient stays the same.
    """
    degree = ring.weighted_degree if below is None else sum
    heap_key = _heap_key(ring, key)

    # seed with an interreduced, deterministic generating set;
    # leads[i] is the (leading monomial, coefficient) of basis[i]
    basis: list[dict] = []
    leads: list[tuple[Monomial, int]] = []

    def add(r):
        nonlocal below
        content = math.gcd(*r.values())
        r = {m: c // content for m, c in r.items()}
        basis.append(r)
        leads.append(leading_term(r, key))
        if below is not None:
            below = min(below, _staircase_top([lm for lm, _ in leads], ring.arity, below) + 1)

    # a generator in the linear span of the earlier ones lies in their ideal
    span = Echelon()
    steps: dict = {}  # one step table for every reduction of this completion
    for g in sorted(gens, key=lambda p: (key(leading_term(p.terms, key)[0]), sorted(p.terms.items()))):
        (row,), _ = _integer_components([g.terms])
        if not span.add_row(dict(row)):
            continue
        r, _ = _reduce_full(row, basis, leads, heap_key, steps, below)
        if r:
            add(r)

    # queued pairs: ``pairs`` answers the chain criterion's membership
    # tests, ``queue`` holds the same pairs ranked by their lcm
    pairs: set[tuple[int, int]] = set()
    queue: list = []

    def enqueue(i, j):
        lcm = mono_lcm(leads[i][0], leads[j][0])
        pairs.add((i, j))
        heapq.heappush(queue, (degree(lcm), key(lcm), (i, j), lcm))

    for j in range(len(basis)):
        for i in range(j):
            enqueue(i, j)

    while queue:
        deg, _, (i, j), lcm = heapq.heappop(queue)
        if below is not None and deg >= below:
            break  # pairs come by total degree: every later S-polynomial is 0
        pairs.discard((i, j))
        (li, ci), (lj, cj) = leads[i], leads[j]
        if lcm == mono_mul(li, lj):
            continue  # coprime leading monomials: S-polynomial reduces to 0
        # chain criterion: some k divides the lcm and both (i,k), (j,k) done
        if any(
            k not in (i, j)
            and mono_divides(lk, lcm)
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k, (lk, _) in enumerate(leads)
        ):
            continue
        # (cj/d) x^(lcm - li) f_i - (ci/d) x^(lcm - lj) f_j, leads cancelled
        d = math.gcd(ci, cj)
        si, sj = mono_div(lcm, li), mono_div(lcm, lj)
        spoly = {mono_mul(m, si): cj // d * c for m, c in basis[i].items()}
        for m, c in basis[j].items():
            t = mono_mul(m, sj)
            spoly[t] = spoly.get(t, 0) - ci // d * c
        r, _ = _reduce_full(spoly, basis, leads, heap_key, steps, below)
        if not r:
            continue
        new = len(basis)
        add(r)
        for k in range(new):
            enqueue(k, new)
    return basis, leads, below


# -- invariants derived from a basis ----------------------------------

COLENGTH_CAP = 64


def _local_key(m: Monomial):
    """Local degree order: lower total degree is larger, then grevlex."""
    return (-sum(m), *map(neg, reversed(m)))


def _local_order(ring: PolyRing):
    """``_local_key`` memoized in the ring's monomial table."""
    return ring.column(_local_key, _local_key).__getitem__


def _staircase(lead: list[Monomial], arity: int, below: int) -> list[Monomial]:
    """Monomials of total degree < below outside the ideal generated by
    ``lead``.  Each is reached once, from the standard monomial with its
    last nonzero exponent one lower, so a lead dividing it has that
    exponent equal."""
    out = []
    todo = [((0,) * arity, 0)] if below > 0 else []
    while todo:
        m, last = todo.pop()
        if any(lm[last] == m[last] and mono_divides(lm, m) for lm in lead):
            continue
        out.append(m)
        if sum(m) + 1 < below:
            todo.extend((m[:i] + (m[i] + 1,) + m[i + 1 :], i) for i in range(last, arity))
    return out


def _staircase_top(lead: list[Monomial], arity: int, below: int) -> int:
    """Top total degree of ``_staircase`` (-1 when it is empty)."""
    if any(sum(lm) == 0 for lm in lead):
        return -1
    for i in range(arity):
        # without a pure power of x_i below the bound, x_i^(below-1) is standard
        if not any(0 < lm[i] == sum(lm) < below for lm in lead):
            return below - 1
    return max(map(sum, _staircase(lead, arity, below)), default=-1)


def colength_local(generators: list[Polynomial], ring: PolyRing, keep: list | None = None) -> int | float:
    """Vector-space dimension of (power series ring at 0) / ideal.

    The generators decide the route.  Weighted-homogeneous generators in
    a ring with all weights >= 1 cut out a cone, so a finite quotient
    lives at the origin alone: one global basis, and its Poincare series
    at u = 1 (``INFINITE`` for an infinite series), is the answer.

    Any other generators get truncated local standard bases of I + m^N
    for N = 2, 4, 8, ... up to ``COLENGTH_CAP``, and no global basis.
    Below degree N their leading ideal is that of I at the origin, so a
    staircase without monomials of degree N - 1 proves m^(N-1) in I
    locally (Nakayama) and its size is the colength (the highest corner
    of Greuel and Pfister, A Singular Introduction to Commutative
    Algebra, 1.7).  Past the cap: ``INFINITE`` if the global Krull
    dimension is positive, else ``DomainError``.

    Given a ``keep`` list, the call appends the global basis of the
    graded route to it, or None for the local route, so that the caller
    can reuse the basis and its series.
    """
    gens = [g for g in generators if not g.is_zero()]
    graded = not ring.has_zero_weights and all(g.is_quasihomogeneous() for g in gens)
    gb = buchberger(gens, WGREVLEX, ring=ring) if graded else None
    if keep is not None:
        keep.append(gb)
    if gb is not None:
        return poincare_series(gb).total_dimension()
    n = 2
    while n <= COLENGTH_CAP:
        _, leads, below = _complete(gens, ring, _local_order(ring), below=n)
        if below < n:
            return len(_staircase([lm for lm, _ in leads], ring.arity, below))
        n *= 2
    if krull_dimension(buchberger(gens, WGREVLEX, ring=ring)) >= 1:
        return INFINITE
    raise DomainError(
        f"local colength not reached within m^{COLENGTH_CAP} although the ideal "
        "is zero-dimensional"
    )


def krull_dimension(gb: GroebnerBasis) -> int:
    """Krull dimension of the quotient ring, from the leading-term ideal.

    Maximal size of a set S of variables such that no leading monomial
    is supported entirely inside S.  Returns -1 for the unit ideal.  A
    proper ideal has no constant lead, so the empty set always fits: the
    sizes n down to 1 are tried, and 0 answers when none fits.
    """
    if gb.is_unit_ideal():
        return -1
    lead = gb.leading_monomials()
    n = gb.ring.arity
    supports = [frozenset(i for i, e in enumerate(m) if e > 0) for m in lead]
    for size in range(n, 0, -1):
        for subset in itertools.combinations(range(n), size):
            s = frozenset(subset)
            if not any(sup <= s for sup in supports):
                return size
    return 0


class PoincareSeries:
    """Weighted Hilbert-Poincare series in the variable u.

    Stored in cancelled form: an integer polynomial numerator (dict
    exponent -> coefficient) over factors (1 - u^w) for the weights
    listed in ``denominator``.  ``finite`` is true iff the denominator
    is empty; the numerator is then the Poincare polynomial itself and
    has non-negative coefficients.
    """

    __slots__ = ("numerator", "denominator", "finite")

    def __init__(self, numerator: dict[int, int], denominator: tuple[int, ...]):
        numerator = {e: c for e, c in numerator.items() if c != 0}
        num, den = _cancel(numerator, tuple(sorted(denominator)))
        self.numerator = num
        self.denominator = den
        self.finite = not den

    def coefficient(self, degree: int) -> int:
        if not self.finite:
            raise DomainError("per-degree coefficients of an infinite series: expand instead")
        return self.numerator.get(degree, 0)

    def coefficients(self) -> dict[int, int]:
        if not self.finite:
            raise DomainError("infinite series has no finite coefficient table")
        return dict(sorted(self.numerator.items()))

    def total_dimension(self) -> int | float:
        """Evaluation at u = 1: the quotient's vector-space dimension."""
        if not self.finite:
            return INFINITE
        return sum(self.numerator.values())

    def socle_degree(self) -> int:
        """Top degree with a nonzero coefficient; -1 for the zero series."""
        if not self.finite:
            raise DomainError("infinite series has no socle degree")
        return max(self.numerator, default=-1)

    def expand(self, degree: int) -> dict[int, int]:
        """Coefficients of the series through the given degree."""
        out = [self.numerator.get(d, 0) for d in range(degree + 1)]
        for w in self.denominator:
            # multiply by 1/(1 - u^w) = 1 + u^w + u^{2w} + ...
            for d in range(w, degree + 1):
                out[d] += out[d - w]
        return {d: c for d, c in enumerate(out)}

    def __eq__(self, other):
        return (
            isinstance(other, PoincareSeries)
            and self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __str__(self):
        num = u_polynomial_text(self.numerator)
        if self.finite:
            return num
        den = "*".join(f"(1-u^{w})" if w != 1 else "(1-u)" for w in self.denominator)
        return f"({num}) / {den}"

    def __repr__(self):
        return f"PoincareSeries({self})"


def u_polynomial_text(coefficients: dict[int, int]) -> str:
    """Exponent -> nonzero coefficient (exponents may be negative) as
    ``c*u^e`` terms in increasing e, each after its sign: ``-1 + u - 2*u^3``
    ("0" for none)."""
    text = ""
    for e, c in sorted(coefficients.items()):
        mono = "u" if e == 1 else f"u^{e}"
        body = str(abs(c)) if e == 0 else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        text += (" - " if c < 0 else " + ") + body if text else ("-" if c < 0 else "") + body
    return text or "0"


def _add_shifted(a: dict[int, int], b: dict[int, int], w: int, sign: int = 1) -> dict[int, int]:
    """The u-polynomial a + sign * u^w * b, zero terms dropped."""
    out = dict(a)
    for e, c in b.items():
        out[e + w] = out.get(e + w, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _try_divide(num: dict[int, int], w: int) -> dict[int, int] | None:
    """Exact quotient num / (1 - u^w) in Z[u], or None if there is none:
    q_e = num_e + q_(e-w) from the lowest exponent up (as ``expand`` runs
    it), refused at the first nonzero q_e below 0 or above deg(num) - w."""
    q: dict[int, int] = {}
    top = max(num, default=0)
    for e in range(min(num, default=0), top + 1):
        c = q[e] = num.get(e, 0) + q.get(e - w, 0)
        if c and not 0 <= e <= top - w:
            return None
    return {e: c for e, c in q.items() if c}


def _cancel(num: dict[int, int], den: tuple[int, ...]):
    remaining = []
    for w in den:
        quotient = _try_divide(num, w)
        if quotient is None:
            remaining.append(w)
        else:
            num = quotient
    return num, tuple(sorted(remaining))


def _hilbert_numerator(lead: list[Monomial], ring: PolyRing) -> dict[int, int]:
    """Numerator of the Hilbert series of k[x]/(monomial ideal) over the
    standard denominator, by pivot recursion on a mixed variable."""
    gens = _minimalize_monomials(lead)
    if not gens:
        return {0: 1}
    if any(sum(m) == 0 for m in gens):
        return {}
    mixed = [m for m in gens if sum(1 for e in m if e > 0) > 1]
    if not mixed:
        out = {0: 1}
        for m in gens:  # times (1 - u^deg(m))
            out = _add_shifted(out, out, ring.weighted_degree(m), -1)
        return out
    # pivot on the most common variable among mixed generators
    counts = [0] * ring.arity
    for m in mixed:
        for i, e in enumerate(m):
            if e > 0:
                counts[i] += 1
    piv = max(range(ring.arity), key=lambda i: counts[i])
    pvec = tuple(1 if i == piv else 0 for i in range(ring.arity))
    plus = _minimalize_monomials(gens + [pvec])
    colon = _minimalize_monomials([mono_div(m, tuple(min(a, b) for a, b in zip(m, pvec))) for m in gens])
    return _add_shifted(_hilbert_numerator(plus, ring), _hilbert_numerator(colon, ring), ring.weights[piv])


def _minimalize_monomials(monos: list[Monomial]) -> list[Monomial]:
    out: list[Monomial] = []
    for m in sorted(set(monos), key=lambda t: (sum(t), t)):
        if not any(mono_divides(g, m) for g in out):
            out.append(m)
    return out


def poincare_series(gb: GroebnerBasis) -> PoincareSeries:
    """Hilbert-Poincare series of the weighted-graded quotient ring.

    Requires a weighted-homogeneous ideal (each basis element must be
    homogeneous, which holds iff the input generators were).  Made once
    per basis and kept on it; a refusal is raised again, not kept.
    """
    if gb._series is not None:
        return gb._series
    ring = gb.ring
    if ring.has_zero_weights:
        raise DomainError("Poincare series undefined for rings with zero-weight variables")
    for g in gb.elements:
        if not g.is_quasihomogeneous():
            raise DomainError(f"generator {g} is not weighted-homogeneous")
    num = _hilbert_numerator(gb.leading_monomials(), ring)
    series = PoincareSeries(num, tuple(ring.weights))
    if series.finite and any(c < 0 for c in series.numerator.values()):
        raise RuntimeError(f"negative coefficient in a finite Poincare series: {series}")
    gb._series = series
    return series


def minors(matrix: list[list[Polynomial]], size: int) -> list[Polynomial]:
    """All size x size minor determinants, in lexicographic order of
    (row subset, column subset).  Exact cofactor expansion on integer
    terms: row r is scaled to integers by the lcm D_r of its denominators,
    each sub-minor is computed once per call, and a minor on the rows R
    is divided by the product of the D_r once, at the end."""
    if not matrix or not matrix[0]:
        raise InputError("empty matrix")
    nrows, ncols = len(matrix), len(matrix[0])
    if any(len(row) != ncols for row in matrix):
        raise InputError("ragged matrix")
    if size < 1 or size > min(nrows, ncols):
        raise InputError(f"minor size {size} out of range for {nrows}x{ncols} matrix")
    if size == 1:  # the entries themselves, unscaled
        return [p for row in matrix for p in row]
    ring = matrix[0][0].ring
    scaled, dens = zip(*(_integer_components([p.terms for p in row]) for row in matrix))
    memo: dict = {}
    out = []
    for rows in itertools.combinations(range(nrows), size):
        den = math.prod(dens[r] for r in rows)
        for cols in itertools.combinations(range(ncols), size):
            det = _determinant(scaled, rows, cols, memo)
            out.append(Polynomial(ring, {m: Fraction(c, den) for m, c in det.items()}))
    return out


def _determinant(matrix, rows: tuple, cols: tuple, memo: dict) -> dict:
    """Minor on the sorted ``rows`` and ``cols`` of a matrix of integer
    ``{monomial: int}`` entries by Laplace expansion along its first row,
    each sub-minor memoized under its (rows, cols); the minor itself is
    not kept."""
    if len(rows) == 1:
        return matrix[rows[0]][cols[0]]
    first = matrix[rows[0]]
    det = {}
    for j, c in enumerate(cols):
        entry = first[c]
        if not entry:
            continue
        sub = rows[1:], cols[:j] + cols[j + 1 :]
        cofactor = memo.get(sub)
        if cofactor is None:
            cofactor = memo[sub] = _determinant(matrix, *sub, memo)
        sign = 1 if j % 2 == 0 else -1
        for ma, ca in entry.items():
            ca *= sign
            for mb, cb in cofactor.items():
                m = mono_mul(ma, mb)
                det[m] = det.get(m, 0) + ca * cb
    return {m: c for m, c in det.items() if c}


def monomial_basis(gb: GroebnerBasis, degree: int) -> list[Monomial]:
    """Standard monomials of weighted degree ``degree``: those outside
    the leading-term ideal.  Sorted ascending in the basis order.  The
    list is made once per basis and degree and kept on the basis, so
    callers must not mutate it."""
    standard = gb._standard.get(degree)
    if standard is None:
        lead = gb.leading_monomials()
        candidates = gb.ring.monomials_of_weight(degree)
        standard = gb._standard[degree] = sorted(
            (m for m in candidates if not any(mono_divides(lm, m) for lm in lead)),
            key=gb._key,
        )
    return standard
