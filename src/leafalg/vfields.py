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
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import linalg
from .errors import DomainError, InputError
from .groebner import GroebnerBasis, _nf_terms, _reduce_full, buchberger, minors, normal_form
from .linalg import _integer_components, _integer_row
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
    def zero(cls, ring: PolyRing) -> "VectorField":
        return cls(ring, [ring.zero()] * ring.arity)

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
    """True iff the field maps every ideal generator back into the ideal:
    scaling moves no membership, so iff the field's image, scaled to
    integers, of every integer basis element reduces to 0 (one step
    table per call)."""
    if field.ring != gb.ring:
        raise InputError("ring mismatch")
    coefficients, _ = _integer_components([c.terms for c in field.coefficients])
    elements, leads = gb._integer
    steps: dict = {}
    return not any(
        _reduce_full(apply_field(coefficients, g), elements, leads, gb._heap_key, steps)[0] for g in elements
    )


def hamiltonian_from_bracket(f: Polynomial, matrix) -> VectorField:
    """Hamiltonian field of f for a skew bracket matrix: xi_f(x_i) =
    {f, x_i}, the field of the 0-form f with pairing P_ij = matrix[i][j]."""
    check_skew(matrix)
    n = len(matrix)
    table, den = integer_pairing({(i, j): matrix[i][j] for i in range(n) for j in range(i + 1, n)})
    return field_from_form(f, form_slots(table, (), n), den)


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
    pi[i][j] = {x_i, x_j} over ``ring``, and a vector field u, or None
    for a Poisson bracket (u = 0)."""

    __slots__ = ("ring", "matrix", "u")

    def __init__(self, ring: PolyRing, matrix: tuple, u: VectorField | None = None):
        check_skew(matrix)
        if len(matrix) != ring.arity:
            raise InputError("bracket matrix must be square of the ring arity")
        if u is not None and u.ring != ring:
            raise InputError("u lives in a different ring")
        self.ring, self.matrix, self.u = ring, matrix, u


class VectorFieldFamily(_Structure):
    """Explicit generating vector fields (a Lie algebra up to closure)."""

    __slots__ = ("generators",)

    def __init__(self, generators: tuple):
        self.generators = generators


Structure = JacobianPolyvector | JacobiStructure | VectorFieldFamily


def jacobi_hamiltonian(f: Polynomial, structure: JacobiStructure) -> VectorField:
    """xi_f = pi(df) + f u, componentwise xi_f(x_i) = sum_j d_jf pi[j][i] + f u_i."""
    if f.ring != structure.ring:
        raise InputError("ring mismatch")
    base, u = hamiltonian_from_bracket(f, structure.matrix), structure.u
    return base if u is None else base + u.scale(f)


def jacobi_bracket(f: Polynomial, g: Polynomial, structure: JacobiStructure) -> Polynomial:
    """{f, g} = pi(df, dg) + f u(g) - g u(f)."""
    pi_part, u = hamiltonian_from_bracket(f, structure.matrix).apply(g), structure.u
    return pi_part if u is None else pi_part + f * u.apply(g) - g * u.apply(f)


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
    return JacobiStructure(ring, tuple(tuple(row) for row in matrix), u)


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
    terms, g_den = _integer_row(g.terms)
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
    current = [xi for xi in fields if span.add(_stack(xi.coefficients))]
    for _ in range(depth):
        added = False
        for a, b in itertools.combinations(list(current), 2):
            br = a.lie_bracket(b)
            if span.add(_stack(br.coefficients)):
                current.append(br)
                added = True
        if not added:
            break
    return current


def _stack(polys) -> dict:
    """One sparse vector from a tuple of polynomials, keyed by (slot, monomial)."""
    return {(j, m): c for j, p in enumerate(polys) for m, c in p.terms.items()}


def _graded_syzygies(gb: GroebnerBasis, vectors, weights, w: int, top, zero_weight_cap) -> list:
    """Relations modulo the ideal among the multiples x^a v_j of weight w:
    ``vectors[j]`` is v_j scaled to integers by its caller, a pair of
    ``{monomial: int}`` components of weight ``weights[j]`` and their
    denominator (``linalg._integer_components``), and weight(x^a) =
    w - weights[j] <= ``top`` (unbounded for None).  Slots (j, a) go by
    j, then by the basis order; each relation is one ``{monomial a:
    coefficient}`` dict per vector.  Slots of equal weight share one
    sorted enumeration of the monomials.  Each slot's image goes to
    ``linalg.relations`` as an integer row with its denominator."""
    degrees = {w - vw for vw in weights if top is None or w - vw <= top}
    pieces = {d: sorted(gb.ring.monomials_of_weight(d, zero_weight_cap), key=gb._key) for d in degrees}
    slots = [(j, mono) for j, vw in enumerate(weights) if w - vw in pieces for mono in pieces[w - vw]]
    images = []
    for j, mono in slots:
        components, den = vectors[j]
        nfs = [
            _nf_terms(gb, {mono_mul(t, mono): v for t, v in terms.items()}) for terms in components
        ]
        common = math.lcm(*(d for _, d in nfs))
        row = {(k, m): c * (common // d) for k, (nf, d) in enumerate(nfs) for m, c in nf.items()}
        images.append((row, common * den))
    out = []
    for rel in linalg.relations(images):
        coeffs = [{} for _ in vectors]
        for a, c in rel.items():
            j, mono = slots[a]
            coeffs[j][mono] = c
        out.append(coeffs)
    return out


# -- truncated solvers -------------------------------------------------


def derivations_up_to_degree(
    gb: GroebnerBasis, max_weight: int, zero_weight_cap: int | None = None
) -> dict[int, list[VectorField]]:
    """Bases of tangent vector fields by weight, up to ``max_weight``.

    The ideal must be weighted-homogeneous so that tangency splits into
    independent per-weight linear solves with Groebner normal forms as
    the membership oracle: the candidate x^a d_i maps each basis element
    g to NF(x^a dg/dx_i), a shift of the precomputed partials reduced
    through the basis's monomial table.  Rings with zero-weight
    variables need ``zero_weight_cap`` to bound those exponents.  The
    unit ideal, whose quotient is 0, has none.
    """
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
    out: dict[int, list[VectorField]] = {}
    lowest = -max(ring.weights) if ring.weights else 0
    for w in range(lowest, max_weight + 1):
        fields = [
            VectorField(ring, [Polynomial(ring, t) for t in rel])
            for rel in _graded_syzygies(gb, partials, weights, w, None, zero_weight_cap)
        ]
        if fields:
            out[w] = fields
    return out


def exceptional_ideal(fields: list[VectorField], gb: GroebnerBasis) -> GroebnerBasis:
    """The ideal (mod the variety ideal) generated by all coefficient
    functions of the fields: the vanishing locus of the family.

    Coordinate images generate the full image ideal because
    xi(fg) = f xi(g) + g xi(f).
    """
    for xi in fields:
        if not tangency_check(xi, gb):
            raise DomainError(f"field {xi} is not tangent to the variety")
    gens = list(gb.elements)
    for xi in fields:
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
    weights = []
    for xi in fields:
        if not tangency_check(xi, gb):
            raise DomainError(f"field {xi} is not tangent to the variety")
        w = xi.weight()
        if w is None:
            raise DomainError("incompressibility solver needs weight-homogeneous fields")
        weights.append(w)
    scaled = [_integer_components([c.terms for c in xi.coefficients]) for xi in fields]
    for w in range(min(weights), max_degree + max(weights) + 1):
        for rel in _graded_syzygies(gb, scaled, weights, w, max_degree, zero_weight_cap):
            witness = [Polynomial(ring, t) for t in rel]
            residue = sum((xi.apply(f) for xi, f in zip(fields, witness)), ring.zero())
            if not normal_form(residue, gb).is_zero():
                return IncompressibilityReport(
                    False, max_degree, witness_coefficients=witness, witness_residue=residue
                )
    return IncompressibilityReport(True, max_degree)
