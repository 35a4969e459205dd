"""Degree-truncated computation of coinvariant spaces: the quotient of
the coordinate ring by the image of a family of vector fields.

This is the independent linear-algebra oracle for the closed-form
Poincare polynomial: for each weight w the quotient is (standard
monomials of weight w) modulo the span of NF(xi(x^h)), over all family
members xi and standard monomials x^h of the compatible weight.  Each
image is an integer dict, reduced through the basis's table of monomial
normal forms into an integer row, a nonzero multiple of the normal
form.  The rows of a weight are built lazily (``graded_quotient``), and
``linalg.span_rank`` stops once their rank equals the number of standard
monomials of that weight: past the top weight of HP0 a few images span
the piece.
The grading keeps every piece finite-dimensional, and capping member
weights at the truncation keeps it exact: no member of weight above w
maps into w.

The Hamiltonian family is built over the quotient O_X, from standard
monomials g only.  The equations f_i are Casimirs: the field of the form
(a f_i) dx_J is f_i times the field of a dx_J, since the d f_i term of
d(a f_i) dies against the d f_i already in the Jacobian pairing.  Its
images lie in the ideal, so the field of g dx_J equals that of NF(g) dx_J
modulo fields with images in the ideal, and NF(g) is a combination of
standard monomials of g's weight.  Its forms are those of
``vfields.monomial_forms``, and its images come straight from the Jacobian
pairing P, scaled to integers once, through ``vfields.form_image``:

    xi_{g dx_J}(x^h) = sum over l < i outside J of
        sgn(l, J, i) (g_l h_i - g_i h_l) x^(g + h - e_l - e_i) P_sort(l, J, i),

of weight wt(h) + wt(g) + sum_(j in J) w_j + shift, where shift is the
sum of the equation weights minus the sum of the variable weights.  The
image is skew in g and h for every J, so each unordered pair of
standard monomials is taken once, as g < h in exponent-tuple order.  A
curve's one field, the tangent derivations and an explicit family stay
vector fields, each scaled to integers once.
"""

from __future__ import annotations

from . import linalg
from .errors import DomainError, InputError
from .geom import Variety, hp0_series
from .groebner import _nf_terms, monomial_basis
from .linalg import _integer_components
from .vfields import VectorField, _form_dimension, apply_field, derivations_up_to_degree, form_image
from .vfields import monomial_forms, tangency_check, top_polyvector_field


class CoinvariantTable:
    """Per-weight dimensions of the coinvariants up to the truncation."""

    __slots__ = ("dimensions", "family", "truncation")

    def __init__(self, dimensions: dict, family: str, truncation: int):
        self.dimensions, self.family, self.truncation = dimensions, family, truncation

    def total(self) -> int:
        return sum(self.dimensions.values())

    def __str__(self):
        dims = ", ".join(f"{w}: {d}" for w, d in sorted(self.dimensions.items()))
        return f"coinvariants up to weight {self.truncation} [{self.family}]: {{{dims}}} (total {self.total()})"


def graded_family(X: Variety, family, max_degree: int) -> tuple[dict[int, list[tuple]], str]:
    """The family by weight, up to ``max_degree``, as ``(image, floor)``
    entries, and its label.  ``image`` maps a source monomial to the
    integer dict of a nonzero multiple of the member's image of it, one
    fixed multiple per member; the oracle applies it only to the
    monomials above ``floor`` in tuple order, all of them for None.
    ``family`` is 'hamiltonian-top', 'derivations', or an explicit list
    of tangent, weight-homogeneous vector fields."""
    graded: dict[int, list[tuple]] = {}
    if family == "hamiltonian-top":
        if _form_dimension(X) >= 2:
            gb, gens = X.groebner(), X.ideal_gens
            shift = sum(f.weighted_degree() or 0 for f in gens) - sum(X.ring.weights)
            # x^g nonconstant and standard: a dx_J alone has the zero field
            forms, _ = monomial_forms(X, max_degree - shift, lambda a: monomial_basis(gb, a) if a else [])
            for w, g, slots in forms:
                graded.setdefault(w + shift, []).append((form_image(g, slots), g))
            return graded, family
        fields = [top_polyvector_field(list(X.ideal_gens), X.ring)]
    elif family == "derivations":
        table = derivations_up_to_degree(X.groebner(), max_degree)
        fields = [xi for _, fs in sorted(table.items()) for xi in fs]
    elif isinstance(family, str):
        raise InputError(f"unknown family {family!r}; use 'hamiltonian-top', 'derivations', or a list of fields")
    else:
        fields, family = list(family), "explicit"
        if not all(isinstance(xi, VectorField) for xi in fields):
            raise InputError("explicit family must be a list of vector fields")
        for xi in fields:  # the other families are tangent by construction
            if not tangency_check(xi, X.groebner()):
                raise DomainError(f"field {xi} is not tangent to the variety")
    for xi in fields:
        if xi.is_zero():
            continue
        w = xi.weight()
        if w is None:
            raise DomainError(f"family member {xi} is not weight-homogeneous")
        coefficients, _ = _integer_components([c.terms for c in xi.coefficients])
        graded.setdefault(w, []).append((lambda h, c=coefficients: apply_field(c, {h: 1}), None))
    return graded, family


def coinvariants_truncated(X: Variety, family, max_degree: int) -> CoinvariantTable:
    """Per-weight dimensions of O_X / (family images), exactly, for all
    weights up to ``max_degree``.

    ``family`` is 'hamiltonian-top', 'derivations', or an explicit list
    of tangent, weight-homogeneous vector fields.  Both the ideal and
    the family must respect the grading.
    """
    if not X.is_quasihomogeneous():
        raise DomainError("coinvariants need a weighted-homogeneous ideal")
    if X.ring.has_zero_weights:
        raise DomainError("coinvariants need strictly positive weights")
    graded, label = graded_family(X, family, max_degree)
    gb = X.groebner()

    def rows(w):  # each entry's image of each source above its floor
        return (
            _nf_terms(gb, image(h))[0]
            for fw, entries in graded.items()
            if fw <= w
            for image, floor in entries
            for h in monomial_basis(gb, w - fw)
            if floor is None or h > floor
        )

    dims = graded_quotient(max_degree, lambda w: len(monomial_basis(gb, w)), rows)
    return CoinvariantTable(dimensions=dims, family=label, truncation=max_degree)


def graded_quotient(max_degree: int, size, rows) -> dict[int, int]:
    """``{w: size(w) - rank of rows(w)}`` for w up to ``max_degree``, 0
    for an empty piece: each piece modulo the span of its integer rows,
    without zero entries, read lazily up to full rank
    (``linalg.span_rank``)."""
    return {w: n - linalg.span_rank(rows(w), n) if (n := size(w)) else 0 for w in range(max_degree + 1)}


class Hp0Verification:
    __slots__ = ("match", "mismatches", "table", "series_coefficients")

    def __init__(self, match: bool, mismatches: list, table: CoinvariantTable, series_coefficients: dict):
        self.match, self.mismatches, self.table = match, mismatches, table
        self.series_coefficients = series_coefficients

    def __str__(self):
        if self.match:
            return f"match: oracle dimensions equal the closed form through weight {self.table.truncation}"
        lines = [
            f"mismatch at weight {w}: oracle {o}, closed form {c}"
            for w, o, c in self.mismatches
        ]
        return "; ".join(lines)


def verify_hp0(X: Variety, margin: int = 2) -> Hp0Verification:
    """Compare the truncated coinvariant oracle for the Hamiltonian
    family with the closed-form Poincare polynomial, through the socle
    degree plus ``margin`` (where the oracle must also read zero)."""
    series = hp0_series(X)
    top = max(series.socle_degree(), 0) + margin
    table = coinvariants_truncated(X, "hamiltonian-top", top)
    expected = {w: series.coefficient(w) for w in range(0, top + 1)}
    mismatches = [
        (w, table.dimensions.get(w, 0), expected[w])
        for w in range(0, top + 1)
        if table.dimensions.get(w, 0) != expected[w]
    ]
    return Hp0Verification(
        match=not mismatches,
        mismatches=mismatches,
        table=table,
        series_coefficients=expected,
    )
