"""Vector fields over a polynomial ring, the structures a variety can
carry, the Jacobian pairing of a complete intersection, and the
Hamiltonian constructions and truncated solvers built on them.

Sign conventions, fixed once here and used everywhere downstream:

* For X = {f_1 = ... = f_k = 0} in n variables and a sorted set A of
  n - k variable indices, the Jacobian pairing is
  ``P_A = sgn(A, A^c) * det(Jac[:, A^c])``: the coefficient of
  ``dx_1 ^ ... ^ dx_n`` in ``dx_A ^ df_1 ^ ... ^ df_k``, where ``A^c``
  is the complementary sorted set and ``Jac`` the k x n Jacobian matrix.
  With k = 0 the only entry is ``P_(0..n-1) = 1`` (table keys are
  0-based index tuples).
* The Jacobian bracket (n - k = 2) is ``{x_i, x_j} = P_ij`` for i < j.
* The curve's field (n - k = 1) is ``xi(x_i) = (-1)^k P_i``.
* The field of the (m-2)-form ``g dx_J`` is
  ``xi(x_i) = sum_l sgn(l, J, i) * d_l g * P_sort(l, J, i)``.
* A bracket matrix ``pi`` has entries ``pi[i][j] = {x_i, x_j}`` and the
  Hamiltonian field of f is ``xi_f(x_i) = sum_j (d_j f) pi[j][i]``,
  i.e. ``xi_f(g) = {f, g}``.
* For a Jacobi pair (pi, u) the Hamiltonian field is
  ``xi_f = pi(df) + f u`` and the bracket is
  ``{f, g} = pi(df, dg) + f u(g) - g u(f)``.

The field span, the ideals, and all dimensions computed downstream are
unchanged under a global sign flip, which is why a single fixed
convention suffices.

Arithmetic in bulk runs on integers, each field or pairing scaled once:
``tangency_check`` scales the field's coefficient dicts to integers,
applies them (``apply_field``) to the basis's integer elements and
reduces fraction-free; form fields come from the forms and slots of
``monomial_forms`` (shared with the coinvariant oracle), with one
``Fraction`` per output term; the graded syzygy solve takes vectors its
caller scaled once.

The tangent derivations form a module over O (K. Saito's logarithmic
vector fields).  The graded solve keeps each dependent slot's relation
from one weight to the next, substitutes the slots that x_i times such
a relation forces, and takes normal forms of the other slots only; the
dependent slots not forced generate the module.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import linalg
from .errors import DomainError, InputError
from .groebner import GroebnerBasis, _nf_terms, _reduce_full, buchberger, minors, normal_form
from .linalg import _integer_components
from .poly import Monomial, Polynomial, PolyRing, mono_mul


def _sort_sign(seq) -> tuple[tuple, int]:
    """The sorted tuple of the distinct indices in ``seq`` and the sign of
    the permutation that sorts them."""
    sign = 1
    for i, a in enumerate(seq):
        for b in seq[i + 1 :]:
            if a > b:
                sign = -sign
    return tuple(sorted(seq)), sign


class VectorField:
    """A derivation of the polynomial ring: one coefficient per variable."""

    __slots__ = ("ring", "coefficients")

    def __init__(self, ring: PolyRing, coefficients):
        coeffs = tuple(coefficients)
        if len(coeffs) != ring.arity:
            raise InputError("coefficient list length must equal the ring arity")
        for c in coeffs:
            if c.ring != ring:
                raise InputError("coefficient lives in a different ring")
        self.ring = ring
        self.coefficients = coeffs

    @classmethod
    def coordinate(cls, ring: PolyRing, name: str) -> "VectorField":
        """The partial-derivative field d/d<name>."""
        i = ring.index(name)
        return cls(ring, [ring.one() if j == i else ring.zero() for j in range(ring.arity)])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coefficients)

    def apply(self, g: Polynomial) -> Polynomial:
        """xi(g), the sum of c * xi(x^m) over the terms c x^m of g."""
        if g.ring != self.ring:
            raise InputError("ring mismatch")
        return Polynomial(self.ring, apply_field([c.terms for c in self.coefficients], g.terms))

    def lie_bracket(self, other: "VectorField") -> "VectorField":
        if other.ring != self.ring:
            raise InputError("ring mismatch")
        coeffs = [
            self.apply(other.coefficients[i]) - other.apply(self.coefficients[i])
            for i in range(self.ring.arity)
        ]
        return VectorField(self.ring, coeffs)

    def divergence(self) -> Polynomial:
        """Divergence with respect to the standard volume: sum_i d_i(g_i)."""
        total = self.ring.zero()
        for name, c in zip(self.ring.variables, self.coefficients):
            total = total + c.partial_derivative(name)
        return total

    def weight(self) -> int | None:
        """Weighted degree as a graded operator (coefficient degree minus
        the variable weight), or None if mixed or zero."""
        w = None
        degree = self.ring.weighted_degree
        for c, m in zip(self.coefficients, self.ring.weights):
            for t in c.terms:
                d = degree(t) - m
                if w is None:
                    w = d
                elif w != d:
                    return None
        return w

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.ring, [a + b for a, b in zip(self.coefficients, other.coefficients)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(self.ring, [a - b for a, b in zip(self.coefficients, other.coefficients)])

    def __neg__(self) -> "VectorField":
        return VectorField(self.ring, [-a for a in self.coefficients])

    def scale(self, p) -> "VectorField":
        """The product with p, a polynomial or a number."""
        return VectorField(self.ring, [p * a for a in self.coefficients])

    def evaluate(self, point) -> tuple:
        return tuple(c.evaluate(point) for c in self.coefficients)

    def __eq__(self, other):
        return (
            isinstance(other, VectorField)
            and self.ring == other.ring
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash((self.ring, self.coefficients))

    def __str__(self):
        parts = []
        one = (0,) * self.ring.arity
        for name, c in zip(self.ring.variables, self.coefficients):
            if len(c.terms) > 1:
                parts.append(f"({c})*d_{name}")
            elif c.terms:
                unit = c.terms.get(one)
                scale = "" if unit == 1 else "-" if unit == -1 else f"{c}*"
                parts.append(f"{scale}d_{name}")
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"<{self}>"


def apply_field(coefficients: list, terms: dict) -> dict:
    """The terms of xi(p) from those of p, zeros included, for the field
    xi with coefficient dicts ``coefficients``: the sum over the terms
    c x^m of p and the i with m_i > 0 of c m_i x^(m - e_i) xi_i."""
    out: dict = {}
    for m, c in terms.items():
        for i, (e, coefficient) in enumerate(zip(m, coefficients)):
            if e:
                down = m[:i] + (e - 1,) + m[i + 1 :]
                ce = c * e
                for t, v in coefficient.items():
                    k = mono_mul(t, down)
                    out[k] = out.get(k, 0) + ce * v
    return out


def tangency_check(field: VectorField, gb: GroebnerBasis) -> bool:
    """True iff the field maps every ideal generator back into the ideal
    (``_tangent`` on its coefficient dicts scaled to integers)."""
    if field.ring != gb.ring:
        raise InputError("ring mismatch")
    return _tangent(_integer_components([c.terms for c in field.coefficients])[0], gb)


def _tangent(coefficients: list, gb: GroebnerBasis) -> bool:
    """True iff the field with the integer coefficient dicts
    ``coefficients`` is tangent: scaling moves no membership, so iff its
    image (``apply_field``) of every integer basis element reduces to 0
    (one step table per call)."""
    elements, leads = gb._integer
    steps: dict = {}
    return not any(
        _reduce_full(apply_field(coefficients, g), elements, leads, gb._heap_key, steps)[0] for g in elements
    )


def check_skew(matrix) -> None:
    """Reject a bracket matrix unless it is square, has zero diagonal
    and is skew-symmetric."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise InputError("bracket matrix must be square")
    for i in range(n):
        if not matrix[i][i].is_zero():
            raise InputError("bracket matrix must have zero diagonal")
        for j in range(i + 1, n):
            if matrix[i][j] != -matrix[j][i]:
                raise InputError("bracket matrix must be skew-symmetric")


# -- structures: every bracket matrix passes check_skew -----------------


class _Structure:
    """Value equality for the structure kinds: the same kind with equal fields."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )


class JacobianPolyvector(_Structure):
    """Marker: the variety carries the polyvector obtained by contracting
    the standard top polyvector of the ambient space with df_1 ^ ... ^ df_k."""

    __slots__ = ()


class JacobiStructure(_Structure):
    """A Jacobi pair (pi, u): a skew bracket matrix with entries
    pi[i][j] = {x_i, x_j} over ``ring``, stored as a tuple of tuples, and
    a vector field u, or None for a Poisson bracket (u = 0)."""

    __slots__ = ("ring", "matrix", "u")

    def __init__(self, ring: PolyRing, matrix, u: VectorField | None = None):
        matrix = tuple(map(tuple, matrix))
        check_skew(matrix)
        if len(matrix) != ring.arity:
            raise InputError("bracket matrix must be square of the ring arity")
        if any(p.ring != ring for row in matrix for p in row):
            raise InputError("ring mismatch")
        if u is not None and u.ring != ring:
            raise InputError("u lives in a different ring")
        self.ring, self.matrix, self.u = ring, matrix, u


class VectorFieldFamily(_Structure):
    """Explicit generating vector fields (a Lie algebra up to closure)."""

    __slots__ = ("generators",)

    def __init__(self, generators):
        self.generators = tuple(generators)


Structure = JacobianPolyvector | JacobiStructure | VectorFieldFamily


def jacobi_hamiltonian(f: Polynomial, structure: JacobiStructure) -> VectorField:
    """xi_f = pi(df) + f u, componentwise xi_f(x_i) = sum_j d_jf pi[j][i] + f u_i,
    with pi(df) the field of the 0-form f.  For a bare bracket matrix, call
    ``jacobi_hamiltonian(f, JacobiStructure(ring, matrix))``."""
    if f.ring != structure.ring:
        raise InputError("ring mismatch")
    n, matrix, u = structure.ring.arity, structure.matrix, structure.u
    table, den = integer_pairing({(i, j): matrix[i][j] for i in range(n) for j in range(i + 1, n)})
    base = field_from_form(f, form_slots(table, (), n), den)
    return base if u is None else base + u.scale(f)


def jacobi_bracket(f: Polynomial, g: Polynomial, structure: JacobiStructure) -> Polynomial:
    """{f, g} = pi(df, dg) + f u(g) - g u(f), which is xi_f(g) - g u(f)."""
    value, u = jacobi_hamiltonian(f, structure).apply(g), structure.u
    return value if u is None else value - g * u.apply(f)


def standard_contact(pairs: int = 1) -> JacobiStructure:
    """The standard contact structure on affine (2*pairs+1)-space.

    Variables (t, x_1..x_d, y_1..y_d) with weights (2, 1, ..., 1).  The
    bivector is oriented so that f -> xi_f is a Lie-algebra map for this
    library's bracket convention; with that orientation the coordinate
    Hamiltonian fields are

        xi_1 = d_t,  xi_{y_i} = d_{x_i},  xi_{x_i} = -d_{y_i} + x_i d_t,
        xi_t = t d_t + sum_i y_i d_{y_i}.
    """
    if pairs < 1:
        raise InputError("need at least one (x, y) pair")
    if pairs == 1:
        names = ("t", "x", "y")
    else:
        names = ("t",) + tuple(f"x{i}" for i in range(1, pairs + 1)) + tuple(
            f"y{i}" for i in range(1, pairs + 1)
        )
    ring = PolyRing(names, (2,) + (1,) * (2 * pairs))
    n = ring.arity
    zero = ring.zero()
    matrix = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(1, pairs + 1):
        xcol, ycol = i, pairs + i
        y = ring.var(ring.variables[ycol])
        matrix[0][ycol] = y            # {t, y_i} = y_i
        matrix[ycol][0] = -y
        matrix[xcol][ycol] = -ring.one()  # {x_i, y_i} = -1
        matrix[ycol][xcol] = ring.one()
    u = VectorField.coordinate(ring, "t")
    return JacobiStructure(ring, matrix, u)


# -- the Jacobian pairing and its Hamiltonian fields -------------------


def jacobian_matrix(gens, ring: PolyRing):
    """The k x n matrix of partial derivatives d f_r / d x_j."""
    return [
        [f.partial_derivative(name) for name in ring.variables] for f in gens
    ]


def jacobian_pairing(gens, ring: PolyRing) -> dict:
    """The Jacobian pairing table {A: P_A} of the complete intersection
    cut out by ``gens``, over every sorted A of n - k variable indices:
    P_A = sgn(A, A^c) * det(Jac[:, A^c]).  The k x k minors come in the
    lexicographic order of their column sets A^c."""
    n, k = ring.arity, len(gens)
    if not k:
        return {tuple(range(n)): ring.one()}
    dets = minors(jacobian_matrix(gens, ring), k)
    table = {}
    for cols, det in zip(itertools.combinations(range(n), k), dets):
        rest = tuple(i for i in range(n) if i not in cols)
        table[rest] = det if _sort_sign(rest + cols)[1] > 0 else -det
    return table


def integer_pairing(pairing: dict) -> tuple[dict, int]:
    """A pairing table scaled to integers once: ``{A: D * P_A}`` as int
    dicts, and the lcm D of all the entries' denominators."""
    rows, den = _integer_components([p.terms for p in pairing.values()])
    return dict(zip(pairing, rows)), den


def form_slots(table: dict, J: tuple, n: int) -> list[tuple]:
    """The slots ``(l, i, sgn(l, J, i), P_sort(l, J, i), -e_l - e_i)`` of
    the forms g dx_J in n variables, over the integer pairing ``table``:
    one per pair l < i outside J with a nonzero entry."""
    slots = []
    for l, i in itertools.combinations([j for j in range(n) if j not in J], 2):
        key, sign = _sort_sign((l, *J, i))
        if table[key]:
            slots.append((l, i, sign, table[key], tuple(-(j in (l, i)) for j in range(n))))
    return slots


def form_image(g: Monomial, slots: list):
    """x^h -> xi(x^h) for the field xi of the form x^g dx_J, as an int
    dict in the scale of the slots' pairing: the (l, i) and (i, l) terms
    of xi differ by one transposition, so xi(x^h) is the sum over the
    slots of sgn(l, J, i) (g_l h_i - g_i h_l) x^(g+h-e_l-e_i) P_sort(l, J, i)."""
    slots = [(l, i, sign, p, mono_mul(g, drop)) for l, i, sign, p, drop in slots if g[l] or g[i]]

    def image(h):
        out: dict = {}
        for l, i, sign, p, g_down in slots:
            c = sign * (g[l] * h[i] - g[i] * h[l])
            if c:  # then x^(g + h - e_l - e_i) is a monomial
                down = mono_mul(g_down, h)
                for t, v in p.items():
                    k = mono_mul(t, down)
                    out[k] = out.get(k, 0) + c * v
        return out

    return image


def field_from_form(g: Polynomial, slots: list, den: int) -> VectorField:
    """The Hamiltonian field of the (m-2)-form g dx_J, from the slots of J
    over an integer pairing with denominator ``den``: xi(x_i) = sum_l
    sgn(l, J, i) * d_l g * P_sort(l, J, i), summed on integers as the
    images of x_i under the forms of g's terms, g scaled to integers."""
    ring = g.ring
    coordinates = [tuple(int(j == i) for j in range(ring.arity)) for i in range(ring.arity)]
    (terms,), g_den = _integer_components([g.terms])
    totals = [{} for _ in coordinates]
    for a, c in terms.items():
        image = form_image(a, slots)
        for total, x in zip(totals, coordinates):
            for t, v in image(x).items():
                total[t] = total.get(t, 0) + c * v
    den *= g_den
    return VectorField(
        ring, [Polynomial(ring, {t: Fraction(v, den) for t, v in total.items() if v}) for total in totals]
    )


def top_polyvector_field(gens, ring: PolyRing) -> VectorField:
    """The field xi(x_i) = (-1)^k P_i of a curve in ``ring`` cut out by
    k = n - 1 equations (its span is the locally Hamiltonian algebra of
    the curve); the affine line (k = 0) gives d_x."""
    k = len(gens)
    if k != ring.arity - 1:
        raise DomainError("top polyvector field of a curve needs codimension arity-1")
    pairing = jacobian_pairing(gens, ring)
    coeffs = [pairing[(i,)] for i in range(ring.arity)]
    return VectorField(ring, [-c for c in coeffs] if k % 2 else coeffs)


def monomial_forms(X, top: int, monomials) -> tuple[list[tuple], int]:
    """The ``(weight, g, slots)`` of the (m-2)-forms x^g dx_J on X (m =
    dim X >= 2) of weight wt(g) + sum_(j in J) w_j <= ``top``, with x^g in
    ``monomials(wt(g))``, in order of J, then of wt(g), then of
    ``monomials``; and the denominator of the slots' integer pairing."""
    ring, m = X.ring, _form_dimension(X)
    if ring.has_zero_weights:
        raise DomainError("the Hamiltonian family needs strictly positive weights")
    table, den = integer_pairing(jacobian_pairing(list(X.ideal_gens), ring))
    forms = []
    for J in itertools.combinations(range(ring.arity), m - 2):
        slots = form_slots(table, J, ring.arity)
        base = sum(ring.weights[j] for j in J)
        forms += ((a + base, g, slots) for a in range(top - base + 1) for g in monomials(a))
    return forms, den


def hamiltonian_family_top(X, max_degree: int) -> list[VectorField]:
    """Hamiltonian fields of all monomial (m-2)-forms of weighted degree
    at most ``max_degree`` on a complete intersection with the standard
    Jacobian polyvector structure (m = dim X = n - k >= 2), in the order
    of ``monomial_forms``; on a curve (m = 1) the one field is the top
    polyvector field.

    The weighted degree of a form g*dx_J counts the dx factors.  Zero
    fields are dropped; duplicates are kept only once.
    """
    if _form_dimension(X) == 1:
        candidates = [top_polyvector_field(list(X.ideal_gens), X.ring)]
    else:
        forms, den = monomial_forms(X, max_degree, X.ring.monomials_of_weight)
        candidates = [field_from_form(X.ring.monomial(g), slots, den) for _, g, slots in forms]
    return list(dict.fromkeys(xi for xi in candidates if not xi.is_zero()))


def _form_dimension(X) -> int:
    """The dimension m = n - k >= 1 of a complete intersection whose
    Hamiltonian family comes from its (m-2)-forms, or from the top
    polyvector field on a curve; only the Jacobian polyvector structure
    has that family."""
    if not isinstance(X.structure, JacobianPolyvector):
        raise DomainError("hamiltonian_family_top requires the Jacobian polyvector structure")
    m = X.ring.arity - len(X.ideal_gens)
    if m < 1:
        raise DomainError("hamiltonian_family_top requires dimension n - k >= 1")
    return m


# -- linear algebra over graded pieces --------------------------------


def lie_closure(fields: list[VectorField], depth: int = 2) -> list[VectorField]:
    """Close a generating set under Lie brackets to the given depth,
    keeping only fields that are linearly independent over Q."""
    span = linalg.Echelon()
    current = [xi for xi in fields if span.add_row(_stack(xi.coefficients))]
    for _ in range(depth):
        added = False
        for a, b in itertools.combinations(list(current), 2):
            br = a.lie_bracket(b)
            if span.add_row(_stack(br.coefficients)):
                current.append(br)
                added = True
        if not added:
            break
    return current


def _stack(polys) -> dict:
    """One integer row from a tuple of polynomials scaled together
    (``_integer_components``), keyed by (slot, monomial)."""
    rows, _ = _integer_components([p.terms for p in polys])
    return {(j, m): c for j, row in enumerate(rows) for m, c in row.items()}


def _graded_syzygies(gb: GroebnerBasis, vectors, weights, span, top, zero_weight_cap):
    """Relations modulo the ideal among the multiples x^a v_j, for each
    weight w of the increasing ``span`` in turn, among its slots (j, a),
    weight(x^a) = w - weights[j] <= ``top`` (None: no bound), which go
    by j, then by the basis order.  ``vectors[j]`` is v_j as
    ``linalg._integer_components`` scales it.

    A dependent slot s gives one relation, 1 at s and otherwise only on
    earlier pivot slots; the pivots' images are independent, so it is
    unique however it is found.  The relations come in slot order, each
    as ``(w, entries, den, forced)``: its ``((j, a), int)`` entries in
    slot order over ``den``, and whether s was forced.

    * (j, x_i a), w_i > 0, is forced when (j, a) was dependent at
      w - w_i and x_i times its relation lies on slots here (a
      truncation may cut some off).  Monomial orders are multiplicative and
      slots go by j first, so that product ends at (j, x_i a); its other
      dependent slots come earlier, and substituting their relations, on
      integers, gives the reduced one.
    * The other slots' images, normal forms over one lcm, go to
      ``linalg.relations``.  A forced slot is in the span of earlier
      slots, so leaving it out moves no pivot.

    So the dependent slots not forced generate the others: x_i times a
    lower relation, less relations of its own weight.
    """
    ring = gb.ring
    steps = [(w_i, tuple(int(k == i) for k in range(ring.arity))) for i, w_i in enumerate(ring.weights) if w_i > 0]
    reach = max((w_i for w_i, _ in steps), default=0)
    done: dict[int, tuple] = {}  # weight -> its slots, {dependent slot index: (row, den)}
    for w in span:
        degrees = {w - vw for vw in weights if top is None or w - vw <= top}
        pieces = {d: sorted(ring.monomials_of_weight(d, zero_weight_cap), key=gb._key) for d in degrees}
        slots = [(j, mono) for j, vw in enumerate(weights) if w - vw in pieces for mono in pieces[w - vw]]
        index = {s: a for a, s in enumerate(slots)}
        forced = {}
        for w_i, x_i in steps:
            if w - w_i not in done:
                continue
            lower, relations = done[w - w_i]
            up = [index.get((j, mono_mul(mono, x_i))) for j, mono in lower]  # None: not a slot here
            for a, (row, den) in relations.items():
                s = up[a]
                if s is None or s in forced:
                    continue
                shifted = {up[b]: c for b, c in row.items()}
                if None not in shifted:
                    forced[s] = shifted, den
        free = [a for a in range(len(slots)) if a not in forced]
        images = []
        for j, mono in map(slots.__getitem__, free):
            components, den = vectors[j]
            nfs = [
                _nf_terms(gb, {mono_mul(t, mono): v for t, v in terms.items()}) for terms in components
            ]
            common = math.lcm(*(d for _, d in nfs))
            row = {(k, m): c * (common // d) for k, (nf, d) in enumerate(nfs) for m, c in nf.items()}
            images.append((row, common * den))
        found = {}
        for row, den in linalg.relations(images):
            found[free[max(row)]] = {free[a]: c for a, c in row.items()}, den
        for s in sorted(forced):
            found[s] = _substitute(*forced[s], found)
        done[w] = slots, found
        done.pop(w - reach, None)  # no later weight shifts from it
        for s, (row, den) in sorted(found.items()):
            yield w, [(slots[k], c) for k, c in sorted(row.items())], den, s in forced


def _substitute(row: dict, den: int, found: dict) -> tuple[dict, int]:
    """The relation row / den less row[t] / den times r / d for each
    slot t with ``found[t]`` = (r, d), r[t] = d, common factors cancelled."""
    known = [(t, c, *found[t]) for t, c in row.items() if t in found]
    if not known:
        return row, den
    scale = math.lcm(*(d for _, _, _, d in known))
    out = {t: c * scale for t, c in row.items() if t not in found}
    for t, c, r, d in known:
        f = c * (scale // d)
        for k, v in r.items():
            if k != t:
                out[k] = out.get(k, 0) - f * v
    den *= scale
    g = math.gcd(den, *out.values())
    return {k: v // g for k, v in out.items() if v}, den // g


def _vector_terms(entries, den: int, count: int) -> list[dict]:
    """A relation's ``((j, a), int)`` entries over ``den`` as one
    ``{monomial a: Fraction}`` dict per vector j < ``count``."""
    coeffs = [{} for _ in range(count)]
    for (j, a), c in entries:
        coeffs[j][a] = Fraction(c, den)
    return coeffs


# -- truncated solvers -------------------------------------------------


def derivations_up_to_degree(
    gb: GroebnerBasis, max_weight: int, zero_weight_cap: int | None = None
) -> dict[int, list[VectorField]]:
    """Bases of tangent vector fields by weight, up to ``max_weight``.

    The ideal must be weighted-homogeneous so that tangency splits into
    per-weight linear solves with Groebner normal forms as the membership
    oracle: the candidate x^a d_i maps each basis element g to NF(x^a
    dg/dx_i), a shift of the precomputed partials reduced through the
    basis's monomial table.  A forced slot takes no normal forms: its
    relation comes by substitution, the same one, since each dependent
    slot's reduced relation is unique (``_graded_syzygies``).  The
    fields of the slots not forced generate the rest as an O-module
    (``derivation_generators``).  Rings with zero-weight variables need
    ``zero_weight_cap`` to bound those exponents.  The unit ideal, whose
    quotient is 0, has none.
    """
    return _derivations(gb, max_weight, zero_weight_cap, generators=False)


def derivation_generators(
    gb: GroebnerBasis, max_weight: int, zero_weight_cap: int | None = None
) -> dict[int, list[VectorField]]:
    """The fields of ``derivations_up_to_degree`` whose slot is not
    forced, by weight: they generate the others as an O-module."""
    return _derivations(gb, max_weight, zero_weight_cap, generators=True)


def _derivations(gb: GroebnerBasis, max_weight: int, zero_weight_cap, generators: bool) -> dict:
    """The tangent fields by weight, or only their generators."""
    ring = gb.ring
    for g in gb.elements:
        if not g.is_quasihomogeneous():
            raise DomainError(f"ideal generator {g} is not weighted-homogeneous")
    if ring.has_zero_weights and zero_weight_cap is None:
        raise InputError("ring has zero-weight variables: pass zero_weight_cap")
    if gb.is_unit_ideal():
        return {}  # O_X = 0 has no nonzero derivation
    partials = [
        _integer_components([g.partial_derivative(v).terms for g in gb.elements]) for v in ring.variables
    ]
    weights = [-mw for mw in ring.weights]
    span = range(-max(ring.weights) if ring.weights else 0, max_weight + 1)
    out: dict[int, list[VectorField]] = {}
    for w, entries, den, forced in _graded_syzygies(gb, partials, weights, span, None, zero_weight_cap):
        if not (generators and forced):
            terms = _vector_terms(entries, den, ring.arity)
            out.setdefault(w, []).append(VectorField(ring, [Polynomial(ring, t) for t in terms]))
    return out


def exceptional_ideal(fields: list[VectorField], gb: GroebnerBasis) -> GroebnerBasis:
    """The ideal (mod the variety ideal) generated by all coefficient
    functions of the fields: the vanishing locus of the family.  Every
    field is checked for tangency as its coefficients are collected.

    Coordinate images generate the full image ideal because
    xi(fg) = f xi(g) + g xi(f).  Fields that generate the same O-module
    give the same ideal, so the tangent derivations may come as their
    generators (``derivation_generators``).
    """
    gens = list(gb.elements)
    for xi in fields:
        if not tangency_check(xi, gb):
            raise DomainError(f"field {xi} is not tangent to the variety")
        gens.extend(c for c in xi.coefficients if not c.is_zero())
    return buchberger(gens, gb.order, ring=gb.ring)


class IncompressibilityReport:
    __slots__ = ("consistent", "max_degree", "witness_coefficients", "witness_residue")

    def __init__(
        self,
        consistent: bool,
        max_degree: int,
        witness_coefficients: list | None = None,
        witness_residue: Polynomial | None = None,
    ):
        self.consistent, self.max_degree = consistent, max_degree
        self.witness_coefficients, self.witness_residue = witness_coefficients, witness_residue

    @property
    def verdict(self) -> str:
        return f"consistent-to-{self.max_degree}" if self.consistent else "violated"


def incompressibility_truncated(
    fields: list[VectorField],
    gb: GroebnerBasis,
    max_degree: int,
    zero_weight_cap: int | None = None,
) -> IncompressibilityReport:
    """Check the relation condition for incompressible flow, degree by
    degree: every O-linear relation sum_i f_i xi_i = 0 (componentwise
    modulo the ideal) with all deg f_i <= max_degree must satisfy
    sum_i xi_i(f_i) = 0 modulo the ideal.

    Only ever reports "consistent-to-D" or a concrete violation with
    its witness tuple; the untruncated criterion is out of reach here.
    """
    ring = gb.ring
    fields = [f for f in fields if not f.is_zero()]
    if not fields:
        return IncompressibilityReport(True, max_degree)
    scaled, weights = [], []
    for xi in fields:
        if xi.ring != ring:
            raise InputError("ring mismatch")
        components = _integer_components([c.terms for c in xi.coefficients])
        if not _tangent(components[0], gb):
            raise DomainError(f"field {xi} is not tangent to the variety")
        w = xi.weight()
        if w is None:
            raise DomainError("incompressibility solver needs weight-homogeneous fields")
        scaled.append(components)
        weights.append(w)
    span = range(min(weights), max_degree + max(weights) + 1)
    for _, entries, den, _ in _graded_syzygies(gb, scaled, weights, span, max_degree, zero_weight_cap):
        witness = [Polynomial(ring, t) for t in _vector_terms(entries, den, len(fields))]
        residue = sum((xi.apply(f) for xi, f in zip(fields, witness)), ring.zero())
        if not normal_form(residue, gb).is_zero():
            return IncompressibilityReport(
                False, max_degree, witness_coefficients=witness, witness_residue=residue
            )
    return IncompressibilityReport(True, max_degree)
