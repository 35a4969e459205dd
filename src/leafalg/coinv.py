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

The Hamiltonian family is read through its coordinate fields
(``vfields.coordinate_fields``).  The image of x^h under the field of
g dx_J is B_J(g, h), a skew biderivation, so B_J(ab, h) = B_J(a, bh) +
B_J(b, ah): by induction on the degree of g, the images over (x_i, h)
span those over all (g, h).  Up to sign B_J(x_i, h) is det d(x_K, h,
f_1, ..., f_k) with K = J + {i}, the image of h under xi_K; h may stay
standard since every field is tangent.  The tangent derivations form an
O-module, so their images form an ideal, generated by their
coefficients: 'derivations' gives O / (I + E), E the exceptional ideal
of the module's generators.  The coordinate fields and an explicit
family are applied through their integer rows.
"""

from __future__ import annotations

from . import linalg
from .errors import DomainError, InputError
from .geom import Variety, hp0_series
from .groebner import _nf_terms, monomial_basis
from .vfields import VectorField, _form_dimension, apply_field, coordinate_fields, derivation_generators
from .vfields import exceptional_ideal, tangency_check


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


def graded_family(X: Variety, family) -> tuple[dict[int, list], str]:
    """The family's images by member weight, and its label.  Each image
    maps a source monomial to the integer dict of a nonzero multiple of
    the member's image of it, one fixed multiple per member.  ``family``
    is 'hamiltonian-top' (the coordinate fields) or an explicit list of
    tangent, weight-homogeneous vector fields."""
    if family == "hamiltonian-top":
        _form_dimension(X)  # refuses another structure, and a dimension below 1
        fields = coordinate_fields(list(X.ideal_gens), X.ring)
    elif isinstance(family, str):
        raise InputError(f"unknown family {family!r}; use 'hamiltonian-top', 'derivations', or a list of fields")
    else:
        fields, family = list(family), "explicit"
        if not all(isinstance(xi, VectorField) for xi in fields):
            raise InputError("explicit family must be a list of vector fields")
        for xi in fields:  # the coordinate fields are tangent by construction
            if not tangency_check(xi, X.groebner()):
                raise DomainError(f"field {xi} is not tangent to the variety")
    graded: dict[int, list] = {}
    for xi in fields:
        if xi.is_zero():
            continue
        w = xi.weight()
        if w is None:
            raise DomainError(f"family member {xi} is not weight-homogeneous")
        graded.setdefault(w, []).append(lambda h, rows=xi.rows: apply_field(rows, {h: 1}))
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
    gb = X.groebner()
    if family == "derivations":  # images span I + E; a field above max_degree adds nothing up to it
        generators = [xi for _, fs in sorted(derivation_generators(gb, max_degree).items()) for xi in fs]
        quotient = exceptional_ideal(generators, gb)
        dims = {w: len(monomial_basis(quotient, w)) for w in range(max_degree + 1)}
        return CoinvariantTable(dimensions=dims, family=family, truncation=max_degree)
    graded, label = graded_family(X, family)

    def rows(w):  # each member's image of each standard monomial
        return (
            _nf_terms(gb, image(h))[0]
            for fw, images in graded.items()
            if fw <= w
            for image in images
            for h in monomial_basis(gb, w - fw)
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
        return "; ".join(f"mismatch at weight {w}: oracle {o}, closed form {c}" for w, o, c in self.mismatches)


def verify_hp0(X: Variety, margin: int = 2) -> Hp0Verification:
    """Compare the truncated coinvariant oracle for the Hamiltonian
    family with the closed-form Poincare polynomial, through the socle
    degree plus ``margin`` (where the oracle must also read zero)."""
    series = hp0_series(X)
    top = max(series.socle_degree(), 0) + margin
    table = coinvariants_truncated(X, "hamiltonian-top", top)
    expected = {w: series.coefficient(w) for w in range(0, top + 1)}
    mismatches = [(w, table.dimensions[w], c) for w, c in expected.items() if table.dimensions[w] != c]
    return Hp0Verification(not mismatches, mismatches, table, expected)
