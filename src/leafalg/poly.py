"""Exact multivariate polynomials over the rationals with weighted gradings.

Monomials are plain tuples of non-negative integer exponents, one entry
per ring variable.  Coefficients are ``fractions.Fraction``; floating
point never enters the core.  All values are immutable after
construction and every operation is a pure function, so shared use is
safe.

The canonical order used for storing printed output is
weighted-degree-then-reverse-lexicographic (largest term first).

Each ``PolyRing`` keeps one monomial table: data derived from a monomial
alone (an order key, a heap key, printed text) is made on the first
lookup and then read back, for as long as the ring lives.  The table
has one column per kind of datum (``PolyRing.column``); it takes no
part in ring equality or hashing.

``parse_poly`` reads a string in one pass over its tokens, building
plain {monomial: coefficient} dicts, and constructs exactly one
``Polynomial`` at the end.  ``Polynomial`` multiplication and powers
share the parser's term-dict product (``_mul_terms``) and power
(``_pow_terms``).
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import add, le, mul, neg, sub

from .errors import DomainError, InputError, ParseError

Monomial = tuple  # exponent tuple, one entry per variable


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True iff the monomial ``a`` divides ``b``."""
    return all(map(le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Exponentwise quotient a / b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two {monomial: coefficient} dicts, zero terms dropped."""
    times = mono_mul
    out: dict = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = times(ma, mb)
            out[m] = get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _pow_terms(terms: dict, n: int, one: Monomial) -> dict:
    """``terms`` to the power n >= 0; ``one`` is the exponent tuple of 1.

    A single term raises its exponents and coefficient directly.  A sum
    is multiplied by the base n - 1 times, which makes fewer monomial
    products than squaring ever larger powers (for (x+y+z)^60, a fifth)."""
    if not n:
        return {one: 1}
    if len(terms) <= 1:
        return {tuple([e * n for e in m]): c**n for m, c in terms.items()}
    out = terms
    for _ in range(n - 1):
        out = _mul_terms(out, terms)
    return out


class _Column(dict):
    """A column of ``PolyRing.column``; its ``__getitem__`` is the
    memoized formula, and a repeat lookup runs no Python code."""

    __slots__ = ("formula",)

    def __init__(self, formula):
        self.formula = formula

    def __missing__(self, m):
        value = self[m] = self.formula(m)
        return value


class PolyRing:
    """A polynomial ring over Q with named variables and positive weights.

    ``weights[i]`` is the weighted degree of ``variables[i]``.  Weights
    are normally >= 1; a weight of 0 is tolerated (needed for family
    parameters such as a modulus of a family of cones) but rings with
    zero-weight variables are rejected by operations that require a
    locally finite grading (Poincare series, per-degree solvers without
    an explicit cap).
    """

    __slots__ = ("variables", "weights", "_index", "_columns")

    def __init__(self, variables: Iterable[str], weights: Iterable[int] | None = None):
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise InputError(f"duplicate variable names in {names}")
        if not all(n.isidentifier() for n in names):
            raise InputError(f"variable names must be identifiers: {names}")
        if weights is None:
            wts = (1,) * len(names)
        else:
            wts = tuple(int(w) for w in weights)
        if len(wts) != len(names):
            raise InputError("weights length must equal variable count")
        if any(w < 0 for w in wts):
            raise InputError("weights must be non-negative")
        self.variables = names
        self.weights = wts
        self._index = {n: i for i, n in enumerate(names)}
        self._columns: dict = {}  # the monomial table, one column per name

    @property
    def arity(self) -> int:
        return len(self.variables)

    @property
    def has_zero_weights(self) -> bool:
        return any(w == 0 for w in self.weights)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyRing)
            and self.variables == other.variables
            and self.weights == other.weights
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.weights))

    def __repr__(self) -> str:
        ws = ",".join(map(str, self.weights))
        return f"PolyRing({','.join(self.variables)}; weights {ws})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown variable {name!r} in {self!r}") from None

    def weighted_degree(self, mono: Monomial) -> int:
        return sum(map(mul, self.weights, mono))

    def column(self, name, formula) -> dict:
        """The column ``name`` of the ring's monomial table: a dict that
        maps each monomial looked up in it to ``formula(monomial)``, made
        on the first lookup and kept while the ring lives.  ``formula``
        is used only when the column is new; it should not hold the ring,
        so that the table is freed with it."""
        col = self._columns.get(name)
        if col is None:
            col = self._columns[name] = _Column(formula)
        return col

    # -- constructors ------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        """The constant c, a ``Fraction`` coefficient (zero for c = 0)."""
        return self.monomial((0,) * self.arity, c)

    def var(self, name: str) -> "Polynomial":
        """The variable ``name``, with coefficient ``Fraction(1)``."""
        i = self.index(name)
        return self.monomial(tuple(1 if j == i else 0 for j in range(self.arity)))

    def gens(self) -> tuple:
        return tuple(self.var(n) for n in self.variables)

    def monomial(self, expo: Monomial, coeff=1) -> "Polynomial":
        if len(expo) != self.arity:
            raise InputError("exponent tuple has wrong length")
        c = Fraction(coeff)
        if c == 0:
            return self.zero()
        return Polynomial(self, {tuple(expo): c})

    def monomials_of_weight(self, degree: int, zero_weight_cap: int | None = None) -> list:
        """All exponent tuples of weighted degree exactly ``degree``.

        Variables of weight 0 make each graded piece infinite; their
        exponents are then capped by ``zero_weight_cap`` (required).
        """
        if degree < 0:
            return []
        if self.has_zero_weights and zero_weight_cap is None:
            raise InputError(
                "ring has zero-weight variables; an explicit cap on their "
                "exponents is required to enumerate a graded piece"
            )

        out: list = []

        def rec(i: int, remaining: int, prefix: tuple):
            if i == self.arity:
                if remaining == 0:
                    out.append(prefix)
                return
            w = self.weights[i]
            if w == 0:
                for e in range(zero_weight_cap + 1):
                    rec(i + 1, remaining, prefix + (e,))
            else:
                for e in range(remaining // w + 1):
                    rec(i + 1, remaining - w * e, prefix + (e,))

        rec(0, degree, ())
        return out


class Polynomial:
    """Immutable sparse polynomial: ring plus {exponent tuple: Fraction}.

    No zero coefficients are stored and there are no duplicate
    monomials, so equality is plain term-by-term comparison.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[Monomial, Fraction]):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c != 0}

    # -- basic queries -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def weighted_degree(self) -> int | None:
        """Largest weighted degree of a term, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.ring.weighted_degree(m) for m in self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise InputError("ring mismatch between operands")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise InputError("negative exponent")
        return Polynomial(self.ring, _pow_terms(self.terms, n, (0,) * self.ring.arity))

    def scale(self, c) -> "Polynomial":
        """The product with the number c, as ``Fraction(c)`` (zero for c = 0)."""
        return self * Fraction(c)

    # -- calculus and grading ----------------------------------------

    def partial_derivative(self, var: str) -> "Polynomial":
        i = self.ring.index(var)
        terms: dict = {}
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            dm = m[:i] + (e - 1,) + m[i + 1 :]
            terms[dm] = terms.get(dm, 0) + c * e
        return Polynomial(self.ring, terms)

    def is_quasihomogeneous(self) -> bool:
        """At most one weighted degree among the terms (true for zero)."""
        return len(set(map(self.ring.weighted_degree, self.terms))) <= 1

    def evaluate(self, values) -> Fraction:
        """Evaluate at a rational point given as a sequence, one value per variable."""
        vals = [Fraction(v) for v in values]
        if len(vals) != self.ring.arity:
            raise InputError("wrong number of values")
        total = Fraction(0)
        for m, c in self.terms.items():
            prod = c
            for v, e in zip(vals, m):
                if e:
                    prod *= v**e
            total += prod
        return total

    # -- printing ----------------------------------------------------

    def __str__(self) -> str:
        """Terms leading-first by weighted degree, then grevlex; a number
        longer than ``str()`` converts is a DomainError.  Each monomial's
        print key and factor text come from the ring's monomial table."""
        if not self.terms:
            return "0"
        ring = self.ring
        weights, names = ring.weights, ring.variables
        rank = ring.column("print key", lambda m: (sum(map(mul, weights, m)), *map(neg, reversed(m))))
        text = ring.column(
            "factor text", lambda m: "*".join(f"{name}^{e}" if e > 1 else name for name, e in zip(names, m) if e)
        )
        chunks: list[str] = []
        for m in sorted(self.terms, key=rank.__getitem__, reverse=True):
            c = self.terms[m]
            num, den = c.numerator, c.denominator
            size = -num if num < 0 else num
            try:
                mag = str(size) if den == 1 else f"{size}/{den}"
                factors = text[m]
            except ValueError:
                raise DomainError(f"cannot print a number longer than {sys.get_int_max_str_digits()} digits") from None
            body = mag if not factors else factors if mag == "1" else f"{mag}*{factors}"
            if chunks:
                chunks.append(f"+ {body}" if num > 0 else f"- {body}")
            else:
                chunks.append(body if num > 0 else f"-{body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"<{self}>"


# -- parsing ---------------------------------------------------------
#
# expr     := term (("+"|"-") term)*
# term     := factor ("*" factor)*
# factor   := base ("^" nat)?
# base     := rational | var | "(" expr ")" | "-" factor
# rational := nat ("/" nat)?
# nat      := ASCII digits 0-9
#
# One regex splits the text into tokens, skipping the whitespace before
# each: a run of ASCII digits, a run of word characters (an identifier
# when it starts with a letter or "_"), or any other single character.
# Every node is a term dict with no zero coefficient, its coefficients
# ints until a "p/q" literal brings in a Fraction.  Parentheses and
# unary minus nest at most _MAX_NESTING deep, so hostile input gets a
# ParseError instead of exhausting the interpreter's stack.  A power of
# one term is sized before it is computed, and refused like a literal
# when its numerator or denominator would pass int()'s digit limit.

_TOKEN = re.compile(r"\s*([0-9]+|\w+|\S)")
_DIGITS = frozenset("0123456789")
_MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, ring: PolyRing):
        self.text = text
        self.ring = ring
        self.end = len(text.rstrip())  # trailing whitespace holds no token
        self.tokens = _TOKEN.findall(text, 0, self.end)
        self.tokens.append("")  # end of input
        self.i = 0
        self.depth = 0
        self.one = (0,) * ring.arity

    def error(self, message: str, i: int | None = None, shift: int = 0):
        """Raise a ParseError at the start of token ``i`` (the next token
        by default) plus ``shift``; positions are found only here."""
        starts = [m.start(1) for m in _TOKEN.finditer(self.text, 0, self.end)]
        starts.append(len(self.text))
        raise ParseError(message, starts[self.i if i is None else i] + shift)

    def nested(self, parse) -> dict:
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self.error(f"nesting deeper than {_MAX_NESTING} levels", self.i - 1, 1)
        terms = parse()
        self.depth -= 1
        return terms

    def parse(self) -> dict:
        terms = self.expr()
        token = self.tokens[self.i]
        if token:
            self.error(f"unexpected {token[0]!r}")
        return terms

    def expr(self) -> dict:
        terms = self.term()
        get = terms.get
        op = self.tokens[self.i]
        while op == "+" or op == "-":
            self.i += 1
            for m, c in self.term().items():
                terms[m] = get(m, 0) + c if op == "+" else get(m, 0) - c
            op = self.tokens[self.i]
        return {m: c for m, c in terms.items() if c}

    def term(self) -> dict:
        terms = self.factor()
        while self.tokens[self.i] == "*":
            self.i += 1
            terms = _mul_terms(terms, self.factor())
        return terms

    def factor(self) -> dict:
        terms = self.base()
        if self.tokens[self.i] != "^":
            return terms
        self.i += 1
        n = self.nat()
        limit = sys.get_int_max_str_digits()
        c = next(iter(terms.values())) if len(terms) == 1 else 1
        if limit and c != 1 and c != -1:
            for part in (abs(c.numerator), c.denominator):
                # part >= 2 and n >= 4 * limit give over 1.2 * limit digits
                size = math.log10(part) * min(n, 4 * limit) if part > 1 else 0
                if size > limit + 1 or size > limit - 1 and part**n >= 10**limit:
                    self.error(f"power longer than {limit} digits", self.i - 1)
        return _pow_terms(terms, n, self.one)

    def base(self) -> dict:
        token = self.tokens[self.i]
        if token == "(":
            self.i += 1
            terms = self.nested(self.expr)
            if self.tokens[self.i] != ")":
                self.error("expected ')'")
            self.i += 1
            return terms
        if token == "-":
            self.i += 1
            return {m: -c for m, c in self.nested(self.factor).items()}
        if token[:1] in _DIGITS:
            return self.rational()
        if token[:1].isalpha() or token[:1] == "_":
            index = self.ring._index.get(token)
            if index is None:
                raise InputError(
                    f"unknown identifier {token!r}; ring variables are "
                    f"{', '.join(self.ring.variables)}"
                )
            self.i += 1
            return {self.one[:index] + (1,) + self.one[index + 1 :]: 1}
        self.error("expected a number, variable, or parenthesized expression")

    def nat(self) -> int:
        token = self.tokens[self.i]
        if token[:1] not in _DIGITS:
            self.error("expected a non-negative integer")
        try:
            value = int(token)
        except ValueError:  # more digits than int() converts
            self.error(f"integer literal longer than {sys.get_int_max_str_digits()} digits")
        self.i += 1
        return value

    def rational(self) -> dict:
        value = self.nat()
        if self.tokens[self.i] == "/":
            self.i += 1
            den = self.nat()
            if den == 0:
                self.error("zero denominator", self.i - 1, len(self.tokens[self.i - 1]))
            value = Fraction(value, den)
        return {self.one: value} if value else {}


def parse_poly(text: str, ring: PolyRing) -> Polynomial:
    """Parse an expression string into a canonical polynomial."""
    terms = _Parser(text, ring).parse()
    return Polynomial(ring, {m: Fraction(c) for m, c in terms.items()})
