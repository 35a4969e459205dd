"""Brute-force oracles used to pin expected values independently of the
Groebner machinery under test.

Everything here is plain truncated linear algebra over Fractions with
its own row reduction; only the polynomial carrier type is shared with
the package.  The references for the integer code paths (tangency, the
printer) spell out the same definitions on ``Fraction``s instead, and
``per_use_str`` is the printer that builds its monomial data on every
use, the reference for the one that reads it from the ring's table, and
``reference_field_str`` prints a field from its coefficient polynomials,
the reference for the printer that reads its integer rows.
The small u-polynomial kernels (exact division by 1 - u^w, the series
printers, the rational scaling of several components) are kept here as
they were first written, as references for their simpler rewrites.
The dense ``nullspace`` (on the package's dense ``rref``),
``weighted_components`` and ``series_product``, the product of two
bigraded series, are helpers the package itself no longer needs.
``all_slot_syzygies`` is the graded relation solve that builds every
slot's image, the reference for the one that substitutes forced slots.
``closure_rank_strata`` takes the minors of every field of the Lie
closure, the reference for the strata taken from its module generators,
and ``all_pairs_lie_closure`` brackets every pair in every round, the
reference for the closure that brackets each pair once.
"""

import sys
from fractions import Fraction
from math import lcm
from itertools import combinations, permutations, product
from operator import neg

from leafalg.errors import DomainError, InputError, ParseError
from leafalg import linalg
from leafalg.groebner import _nf_terms, buchberger, krull_dimension, minors, normal_form
from leafalg.linalg import relations, rref
from leafalg.poly import Polynomial, mono_mul
from leafalg.sympower import BigradedSeries
from leafalg.vfields import _stack, lie_closure


def rref_rank(rows):
    """Rank of the rows over Q.  Each row is reduced against the pivot
    rows found so far, in the order they were found (each is zero at the
    earlier pivots' columns); the scan stops once every column has a
    pivot."""
    ncols = len(rows[0]) if rows else 0
    pivots = {}
    for row in rows:
        if len(pivots) == ncols:
            break
        for c, pivot in pivots.items():
            factor = row[c]
            if factor:
                row = [a - factor * b for a, b in zip(row, pivot)]
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is not None:
            inv = Fraction(1) / row[lead]
            pivots[lead] = [v * inv for v in row]
    return len(pivots)


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix (rows of length ncols),
    one vector per free column of its reduced row echelon form."""
    reduced, pivots = rref(rows)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def weighted_components(p):
    """``{weighted degree: homogeneous part}`` of p, in ascending degree;
    p is the sum of the parts, and the zero polynomial has none."""
    buckets = {}
    for m, c in p.terms.items():
        buckets.setdefault(p.ring.weighted_degree(m), {})[m] = c
    return {d: Polynomial(p.ring, t) for d, t in sorted(buckets.items())}


def graded_piece(gens, weight):
    """Row space of the weight-w piece of the ideal spanned by the given
    weighted-homogeneous generators, as coordinate rows over the
    monomials of that weight.  Returns (rows, monomial list)."""
    ring = gens[0].ring
    basis = ring.monomials_of_weight(weight)
    pos = {m: i for i, m in enumerate(basis)}
    rows = []
    for g in gens:
        d = g.weighted_degree()
        if d is None or d > weight:
            continue
        for mono in ring.monomials_of_weight(weight - d):
            prod_poly = ring.monomial(mono) * g
            row = [Fraction(0)] * len(basis)
            for m, c in prod_poly.terms.items():
                row[pos[m]] = c
            rows.append(row)
    return rows, basis


def graded_quotient_dims(gens, upto):
    """Per-weight dimensions of k[x]/I for a weighted-homogeneous ideal,
    by rank computations degree by degree."""
    dims = {}
    ring = gens[0].ring
    for w in range(0, upto + 1):
        rows, basis = graded_piece(gens, w)
        dims[w] = len(basis) - rref_rank(rows)
    return dims


def graded_member(p, gens):
    """Exact membership of a weighted-homogeneous polynomial in a
    weighted-homogeneous ideal, by a single graded linear solve."""
    if p.is_zero():
        return True
    w = p.weighted_degree()
    rows, basis = graded_piece(gens, w)
    pos = {m: i for i, m in enumerate(basis)}
    vec = [Fraction(0)] * len(basis)
    for m, c in p.terms.items():
        vec[pos[m]] = c
    return rref_rank(rows) == rref_rank(rows + [vec])


def brute_coinvariants(gens, max_degree):
    """Per-weight dimensions, through ``max_degree``, of the coinvariants
    of the complete intersection X = {gens = 0} (weighted-homogeneous,
    m = n - k >= 2) under the Hamiltonian fields of every monomial
    (m-2)-form, by dense linear algebra over the graded pieces of k[x]/I.

    The field of x^g dx_J sends h to the coefficient of dx_1 ^ ... ^ dx_n
    in dx^g ^ dx_J ^ dh ^ df_1 ^ ... ^ df_k.  Its value on x_i is the
    Leibniz determinant of the rows grad x^g, e_J, e_i, grad f_1..f_k.
    Every monomial form and every monomial h of the matching weight is
    taken, with no Groebner basis, normal-form table or pair order; the
    images of weight w are row-reduced together with the weight-w piece
    of the ideal (``graded_piece``)."""
    ring = gens[0].ring
    n, k = ring.arity, len(gens)
    grads = [[f.partial_derivative(v) for v in ring.variables] for f in gens]
    shift = sum(f.weighted_degree() for f in gens) - sum(ring.weights)

    def unit(i):
        return [ring.one() if j == i else ring.zero() for j in range(n)]

    fields = {}

    def field(g, J):
        if (g, J) not in fields:
            dg = [ring.monomial(g).partial_derivative(v) for v in ring.variables]
            head = [dg] + [unit(j) for j in J]
            fields[g, J] = [leibniz_determinant(head + [unit(i)] + grads, ring) for i in range(n)]
        return fields[g, J]

    dims = {}
    for w in range(max_degree + 1):
        rows, basis = graded_piece(gens, w)
        pos = {m: i for i, m in enumerate(basis)}
        for J in combinations(range(n), n - k - 2):
            top = w - shift - sum(ring.weights[j] for j in J)
            for a in range(top + 1):
                for g in ring.monomials_of_weight(a):
                    xi = field(g, J)
                    for h in ring.monomials_of_weight(top - a):
                        image = ring.zero()
                        for v, c in zip(ring.variables, xi):
                            image = image + c * ring.monomial(h).partial_derivative(v)
                        row = [Fraction(0)] * len(basis)
                        for m, c in image.terms.items():
                            row[pos[m]] = c
                        rows.append(row)
        dims[w] = len(basis) - rref_rank(rows)
    return dims


def derivation_coinvariants(gens, fields, upto):
    """Per-weight dimensions, through ``upto``, of the coinvariants of
    k[x]/I under the given tangent fields, by the ideal route: the images
    xi(h) of all tangent fields span an ideal (g xi is tangent when xi
    is), generated by the coefficients xi(x_i), so the coinvariants are
    k[x] modulo I plus those coefficients.  ``fields`` must hold every
    tangent field whose coefficients have weight at most ``upto``."""
    coefficients = dict.fromkeys(c for xi in fields for c in xi.coefficients if not c.is_zero())
    return graded_quotient_dims([*gens, *coefficients], upto)


def brute_sym2_coinvariants(gens, fields, max_degree):
    """Per-weight dimensions, through ``max_degree``, of the coinvariants
    of the second symmetric power of k[x]/I, I = (gens) weighted-
    homogeneous, under weight-homogeneous fields acting by
    xi(p q) = xi(p) q + p xi(q), by dense linear algebra on unordered
    pairs of all monomials.

    The column {a, b} stands for sym(x^a (x) x^b).  The rows of weight w
    are sym(x^c f (x) x^b) for every generator f, which span the image of
    I (x) k[x] + k[x] (x) I there, and sym(xi(x^a) (x) x^b + x^a (x) xi(x^b))
    for every field xi and pair {a, b} of weight w - wt(xi), past
    ``max_degree`` when xi has negative weight.  No Groebner basis,
    standard monomial or normal form is involved."""
    ring = (gens or fields)[0].ring

    def ordered(w):
        """Every ordered pair (a, b) of monomials of total weight w."""
        return [
            (a, b)
            for d in range(w + 1)
            for a in ring.monomials_of_weight(d)
            for b in ring.monomials_of_weight(w - d)
        ]

    def field_weight(xi):
        nonzero = [(c, w) for c, w in zip(xi.coefficients, ring.weights) if not c.is_zero()]
        return nonzero[0][0].weighted_degree() - nonzero[0][1]

    weighted = [(xi, field_weight(xi)) for xi in fields]
    dims = {}
    for w in range(max_degree + 1):
        cols = [(a, b) for a, b in ordered(w) if a <= b]
        pos = {ab: i for i, ab in enumerate(cols)}

        def sym_row(*products):
            """The row of the sum of sym(p (x) q) over the (p, q) products."""
            row = [Fraction(0)] * len(cols)
            for p, q in products:
                for a, c in p.terms.items():
                    for b, d in q.terms.items():
                        row[pos[min(a, b), max(a, b)]] += c * d
            return row

        rows = [
            sym_row((ring.monomial(c) * f, ring.monomial(b)))
            for f in gens
            for c, b in ordered(w - f.weighted_degree())
        ]
        for xi, fw in weighted:
            for a, b in ordered(w - fw):
                if a <= b:
                    xa, xb = ring.monomial(a), ring.monomial(b)
                    rows.append(sym_row((apply_by_partials(xi, xa), xb), (xa, apply_by_partials(xi, xb))))
        dims[w] = len(cols) - rref_rank(rows)
    return dims


def local_colength_brute(gens, nmax=16):
    """Dimension of the local quotient at the origin by truncated linear
    algebra: dim k[x]/(I + m^N) stabilized over N, computed from spans
    of truncated products (no Groebner bases involved)."""
    ring = gens[0].ring
    nvars = ring.arity
    gens = [g for g in gens if not g.is_zero()]  # zero adds nothing and has no order
    prev = None
    for bound in range(1, nmax + 1):
        basis = [e for e in product(range(bound + 1), repeat=nvars) if sum(e) < bound]
        pos = {m: i for i, m in enumerate(basis)}
        rows = []
        for g in gens:
            val = min(sum(e) for e in g.terms)
            for m in product(range(bound - val + 1), repeat=nvars):
                if sum(m) > bound - val:
                    continue
                prod_poly = ring.monomial(m) * g
                row = [Fraction(0)] * len(basis)
                nonzero = False
                for e, c in prod_poly.terms.items():
                    if sum(e) < bound:
                        row[pos[e]] = c
                        nonzero = True
                if nonzero:
                    rows.append(row)
        dim = len(basis) - rref_rank(rows)
        if dim == prev:
            return dim
        prev = dim
    raise RuntimeError(f"local colength did not stabilize below m^{nmax}")


def permutation_sign(perm):
    """Sign of a permutation given as a tuple of distinct integers."""
    sign = 1
    items = list(perm)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def leibniz_determinant(mat, ring):
    """Determinant of a square matrix of polynomials as the sum over all
    permutations s of sign(s) * prod_r mat[r][s(r)]; 1 for a 0 x 0 matrix."""
    total = ring.zero()
    for perm in permutations(range(len(mat))):
        term = ring.one()
        for r, c in enumerate(perm):
            term = term * mat[r][c]
        total = total + term if permutation_sign(perm) > 0 else total - term
    return total


def partition_count(n):
    """Number of partitions of n, by the Euler recurrence-free direct count."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def series_product(a, b):
    """The product of two bigraded series, truncated at the smaller
    truncation: every pair of terms multiplied."""
    trunc = min(a.truncation, b.truncation)
    out = {}
    for (sa, ua), ca in a.coefficients.items():
        for (sb, ub), cb in b.coefficients.items():
            if sa + sb <= trunc:
                out[(sa + sb, ua + ub)] = out.get((sa + sb, ua + ub), 0) + ca * cb
    return BigradedSeries(trunc, out)


def apply_by_partials(xi, g):
    """xi(g) = sum_i c_i * dg/dx_i, through partial derivatives and
    polynomial products rather than a field's own term-by-term action."""
    total = g.ring.zero()
    for name, c in zip(g.ring.variables, xi.coefficients):
        total = total + c * g.partial_derivative(name)
    return total


def random_polynomial(rng, ring, max_degree=3, terms=4, zero_ok=True):
    """Random sparse polynomial with small integer coefficients."""
    out = ring.zero()
    for _ in range(rng.randint(0 if zero_ok else 1, terms)):
        expo = tuple(rng.randint(0, max_degree) for _ in range(ring.arity))
        out = out + ring.monomial(expo, rng.randint(-4, 4))
    return out


def random_quasihomogeneous(rng, ring, weight):
    """Random nonzero weighted-homogeneous polynomial of the given weight."""
    monos = ring.monomials_of_weight(weight)
    if not monos:
        raise ValueError(f"no monomials of weight {weight}")
    out = ring.zero()
    while out.is_zero():
        out = ring.zero()
        for m in monos:
            if rng.random() < 0.6:
                out = out + ring.monomial(m, rng.randint(-3, 3))
    return out


def fraction_tangency(field, gb):
    """Tangency by its definition over Fractions: the normal form of the
    field's image of every basis element is zero."""
    return all(normal_form(field.apply(g), gb).is_zero() for g in gb.elements)


def reference_str(p):
    """A polynomial printed term by term with Fraction arithmetic: terms
    sorted largest first by (weighted degree, reversed negated
    exponents), each coefficient split into abs(c) and its sign."""
    if not p.terms:
        return "0"
    ring = p.ring

    def key(item):
        m = item[0]
        return (ring.weighted_degree(m), tuple(-e for e in reversed(m)))

    chunks = []
    for m, c in sorted(p.terms.items(), key=key, reverse=True):
        factors = [f"{name}^{e}" if e > 1 else name for name, e in zip(ring.variables, m) if e > 0]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


def reference_field_str(xi):
    """A field printed from its coefficient polynomials (``reference_str``):
    a sum of ``(c)*d_x`` over the variables with a coefficient of several
    terms, ``c*d_x`` with one term, ``d_x`` and ``-d_x`` for 1 and -1."""
    parts = []
    one = (0,) * xi.ring.arity
    for name, c in zip(xi.ring.variables, xi.coefficients):
        if len(c.terms) > 1:
            parts.append(f"({reference_str(c)})*d_{name}")
        elif c.terms:
            unit = c.terms.get(one)
            scale = "" if unit == 1 else "-" if unit == -1 else f"{reference_str(c)}*"
            parts.append(f"{scale}d_{name}")
    if not parts:
        return "0"
    return " + ".join(parts).replace("+ -", "- ")


def per_use_str(p):
    """The printer as it was before the ring's monomial table: each
    monomial's print key and factor text are built again on every use,
    and a number longer than ``str()`` converts is a DomainError."""
    if not p.terms:
        return "0"
    ring = p.ring
    degree = ring.weighted_degree
    chunks = []
    for m in sorted(p.terms, key=lambda m: (degree(m), *map(neg, reversed(m))), reverse=True):
        c = p.terms[m]
        num, den = c.numerator, c.denominator
        size = -num if num < 0 else num
        try:
            mag = str(size) if den == 1 else f"{size}/{den}"
            factors = "*".join(f"{name}^{e}" if e > 1 else name for name, e in zip(ring.variables, m) if e)
        except ValueError:
            raise DomainError(f"cannot print a number longer than {sys.get_int_max_str_digits()} digits") from None
        body = mag if not factors else factors if mag == "1" else f"{mag}*{factors}"
        if chunks:
            chunks.append(f"+ {body}" if num > 0 else f"- {body}")
        else:
            chunks.append(body if num > 0 else f"-{body}")
    return " ".join(chunks)


def long_division_by_one_minus_u_power(num, w):
    """Exact quotient num / (1 - u^w) in Z[u], or None: long division
    from the top degree down, where -u^w * q picks up each top term; a
    quotient term below exponent 0 means there is none."""
    if not num:
        return {}
    q = {}
    rem = dict(num)
    while rem:
        top = max(rem)
        c = rem.pop(top)
        if top - w < 0:
            return None
        q[top - w] = -c
        rem[top - w] = rem.get(top - w, 0) + c
        rem = {e: v for e, v in rem.items() if v != 0}
    return q


def numerator_text(numerator):
    """A Poincare numerator (exponent -> nonzero coefficient) printed as
    the series printed it: terms in increasing exponent, the first with
    its own sign, each later one after "+ " or "- "; "0" for none."""
    if not numerator:
        return "0"
    chunks = []
    for e, c in sorted(numerator.items()):
        if e == 0:
            body = str(c)
        else:
            mono = "u" if e == 1 else f"u^{e}"
            body = mono if c == 1 else (f"-{mono}" if c == -1 else f"{c}*{mono}")
        chunks.append(body if not chunks else (f"+ {body}" if c > 0 else f"- {body.lstrip('-')}"))
    return " ".join(chunks)


def layer_text(layer):
    """One s-layer of a bigraded series (exponent -> positive
    coefficient) printed as the bigraded printer printed it: terms in
    increasing exponent joined by " + "."""
    chunks = []
    for u, c in sorted(layer.items()):
        if u == 0:
            chunks.append(str(c))
        else:
            base = "u" if u == 1 else f"u^{u}"
            chunks.append(base if c == 1 else f"{c}*{base}")
    return " + ".join(chunks)


def stacked_integer_components(components):
    """The components of one vector scaled to integers by stacking them
    into one vector keyed by (component, key), scaling that by the lcm D
    of its denominators with zero entries dropped, and unstacking: the
    int dicts and D."""
    stacked = {(k, m): c for k, terms in enumerate(components) for m, c in terms.items()}
    den = lcm(*(c.denominator for c in stacked.values()))
    out = [{} for _ in components]
    for (k, m), c in stacked.items():
        if c:
            out[k][m] = c.numerator * (den // c.denominator)
    return out, den


def all_slot_syzygies(gb, vectors, weights, w, top, zero_weight_cap):
    """Relations modulo the ideal among the multiples x^a v_j of weight w,
    as the graded solve found them before it kept relations from one
    weight to the next: every slot's image is built and handed to
    ``linalg.relations``.  ``vectors[j]`` is a pair of integer
    ``{monomial: int}`` components of weight ``weights[j]`` and their
    denominator, and weight(x^a) = w - weights[j] <= ``top`` (unbounded
    for None).  Slots (j, a) go by j, then by the basis order; each
    relation is one ``{monomial a: coefficient}`` dict per vector."""
    degrees = {w - vw for vw in weights if top is None or w - vw <= top}
    pieces = {d: sorted(gb.ring.monomials_of_weight(d, zero_weight_cap), key=gb._key) for d in degrees}
    slots = [(j, mono) for j, vw in enumerate(weights) if w - vw in pieces for mono in pieces[w - vw]]
    images = []
    for j, mono in slots:
        components, den = vectors[j]
        nfs = [_nf_terms(gb, {mono_mul(t, mono): v for t, v in terms.items()}) for terms in components]
        common = lcm(*(d for _, d in nfs))
        row = {(k, m): c * (common // d) for k, (nf, d) in enumerate(nfs) for m, c in nf.items()}
        images.append((row, common * den))
    out = []
    for row, den in relations(images):
        coeffs = [{} for _ in vectors]
        for a, c in row.items():
            j, mono = slots[a]
            coeffs[j][mono] = Fraction(c, den)
        out.append(coeffs)
    return out


# The polynomial-string parser as it was built on Polynomial arithmetic:
# a Polynomial at every grammar node, powers by repeated squaring, and
# the same grammar, nesting guard and refusals (message and position) as
# poly.parse_poly on ASCII text.

REFERENCE_MAX_NESTING = 100


class _ReferenceParser:
    def __init__(self, text, ring):
        self.text = text
        self.ring = ring
        self.pos = 0
        self.depth = 0

    def nested(self, parse):
        self.depth += 1
        if self.depth > REFERENCE_MAX_NESTING:
            self.error(f"nesting deeper than {REFERENCE_MAX_NESTING} levels")
        p = parse()
        self.depth -= 1
        return p

    def error(self, message):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self):
        p = self.expr()
        if self.peek():
            self.error(f"unexpected {self.peek()!r}")
        return p

    def expr(self):
        p = self.term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                p = p + self.term()
            elif c == "-":
                self.pos += 1
                p = p - self.term()
            else:
                return p

    def term(self):
        p = self.factor()
        while self.peek() == "*":
            self.pos += 1
            p = p * self.factor()
        return p

    def factor(self):
        base = self.base()
        if self.peek() == "^":
            self.pos += 1
            n = self.nat()
            result = self.ring.one()
            while n:
                if n & 1:
                    result = result * base
                base = base * base
                n >>= 1
            return result
        return base

    def base(self):
        c = self.peek()
        if c == "(":
            self.pos += 1
            p = self.nested(self.expr)
            self.expect(")")
            return p
        if c == "-":
            self.pos += 1
            return -self.nested(self.factor)
        if c.isdigit():
            return self.rational()
        if c.isalpha() or c == "_":
            name = self.identifier()
            if name not in self.ring.variables:
                raise InputError(
                    f"unknown identifier {name!r}; ring variables are "
                    f"{', '.join(self.ring.variables)}"
                )
            return self.ring.var(name)
        self.error("expected a number, variable, or parenthesized expression")

    def identifier(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def nat(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected a non-negative integer")
        return int(self.text[start : self.pos])

    def rational(self):
        num = self.nat()
        if self.peek() == "/":
            self.pos += 1
            den = self.nat()
            if den == 0:
                self.error("zero denominator")
            return self.ring.const(Fraction(num, den))
        return self.ring.const(num)


def reference_parse_poly(text, ring):
    """The Polynomial-arithmetic parser above; its ``isdigit`` digits
    agree with poly.parse_poly only on ASCII text."""
    return _ReferenceParser(text, ring).parse()


def closure_rank_strata(X, depth):
    """(rank, basis, dimension) of each rank stratum of a variety with a
    vector-fields structure, from the minors of every field of the Lie
    closure to ``depth``: rank at most i is cut out by the (i+1) x (i+1)
    minors, for i up to min(closure size, arity)."""
    matrix = [list(xi.coefficients) for xi in lie_closure(list(X.structure.generators), depth)]
    top = min(len(matrix), X.ring.arity)
    out = []
    for i in range(top + 1):
        gb = buchberger(list(X.ideal_gens) + (minors(matrix, i + 1) if i < top else []), X.order, ring=X.ring)
        out.append((i, gb, krull_dimension(gb)))
    return out


def all_pairs_lie_closure(fields, depth):
    """The Lie closure to ``depth`` that brackets every pair of the fields
    so far in each round, keeping the fields independent over Q."""
    span = linalg.Echelon()
    current = [xi for xi in fields if span.add_row(_stack(xi))]
    for _ in range(depth):
        added = False
        for a, b in combinations(list(current), 2):
            br = a.lie_bracket(b)
            if span.add_row(_stack(br)):
                current.append(br)
                added = True
        if not added:
            break
    return current
