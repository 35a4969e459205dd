"""Degree-truncated computation of coinvariant spaces: the quotient of
the coordinate ring by the image of a family of vector fields.

This is the independent linear-algebra oracle for the closed-form
Poincare polynomial: for each weight w the quotient is (standard
monomials of weight w) modulo the span of NF(xi(x^b)), over all family
generators xi and standard monomials x^b of the compatible weight.  Each
family field is scaled to integer coefficients once; each image is built
term by term, xi(x^b) = sum_i b_i c_i x^(b - e_i), and reduced through
the basis's table of monomial normal forms into a sparse integer row, a
nonzero multiple of the normal form, that ``linalg.span_rank`` takes as
it is.  The grading keeps every piece finite-dimensional, and capping
generator weights at the truncation keeps it exact: no generator of
weight above w maps into w.

The Hamiltonian family is built over the quotient O_X, from standard
monomials g only.  The equations f_i are Casimirs: the field of the form
(a f_i) dx_J is f_i times the field of a dx_J, since the d f_i term of
d(a f_i) dies against the d f_i already in the Jacobian pairing.  Its
images lie in the ideal, so the field of g dx_J equals that of NF(g) dx_J
modulo fields with images in the ideal, and NF(g) is a combination of
standard monomials of g's weight.

On a surface (m = 2, J = ()) the field of g is the Hamiltonian field of
g, and its image of h is the bracket {g, h} = -{h, g}: both g and h run
over the standard monomials whose weights sum to w minus the bracket's
weight, so each unordered pair is taken once, as xi_g(h) for g < h as
exponent tuples ({g, g} = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import DomainError, InputError
from .geom import Variety, hp0_series
from .groebner import _nf_terms, monomial_basis
from .linalg import _integer_components
from .poly import Polynomial
from .vfields import VectorField, _form_fields, derivations_up_to_degree


@dataclass
class CoinvariantTable:
    """Per-weight dimensions of the coinvariants up to the truncation."""

    dimensions: dict
    family: str
    truncation: int

    def total(self) -> int:
        return sum(self.dimensions.values())

    def __str__(self):
        dims = ", ".join(f"{w}: {d}" for w, d in sorted(self.dimensions.items()))
        return f"coinvariants up to weight {self.truncation} [{self.family}]: {{{dims}}} (total {self.total()})"


def _resolve_family(X: Variety, family, max_degree: int):
    """The family as (field, floor) pairs, and its label.  A field with a
    floor is the Hamiltonian field of a standard monomial g on a surface,
    and the floor is g's exponent tuple: the oracle applies it only to
    the standard monomials above g in tuple order."""
    if isinstance(family, str):
        if family == "hamiltonian-top":
            # a form of weight a yields a field of weight a + shift; cap
            # the forms so every field of weight <= max_degree is present
            shift = sum(g.weighted_degree() or 0 for g in X.ideal_gens) - sum(X.ring.weights)
            form_cap = max(max_degree - shift, 0)
            gb = X.groebner()
            forms = _form_fields(X, form_cap, lambda weight: monomial_basis(gb, weight))
            return [(xi, None if J else g) for g, J, xi in forms], "hamiltonian-top"
        if family == "derivations":
            table = derivations_up_to_degree(X.groebner(), max_degree)
            fields = [xi for _, fs in sorted(table.items()) for xi in fs]
            return [(xi, None) for xi in fields], "derivations"
        raise InputError(f"unknown family {family!r}; use 'hamiltonian-top', 'derivations', or a list of fields")
    fields = list(family)
    for xi in fields:
        if not isinstance(xi, VectorField):
            raise InputError("explicit family must be a list of vector fields")
    return [(xi, None) for xi in fields], "explicit"


def graded_family(X: Variety, family, max_degree: int) -> tuple[dict[int, list[tuple]], str]:
    """The nonzero fields of a family grouped by weight, each scaled to
    integer coefficients and paired with its floor (see
    ``_resolve_family``), and the family's label.  ``family`` is
    'hamiltonian-top', 'derivations', or an explicit list of
    weight-homogeneous vector fields."""
    fields, label = _resolve_family(X, family, max_degree)
    graded: dict[int, list[tuple]] = {}
    for xi, floor in fields:
        if xi.is_zero():
            continue
        w = xi.weight()
        if w is None:
            raise DomainError(f"family member {xi} is not weight-homogeneous")
        coeffs, _ = _integer_components([c.terms for c in xi.coefficients])
        integral = VectorField(X.ring, [Polynomial(X.ring, t) for t in coeffs])
        graded.setdefault(w, []).append((integral, floor))
    return graded, label


def coinvariants_truncated(X: Variety, family, max_degree: int) -> CoinvariantTable:
    """Per-weight dimensions of O_X / (family images), exactly, for all
    weights up to ``max_degree``.

    ``family`` is 'hamiltonian-top', 'derivations', or an explicit list
    of weight-homogeneous vector fields.  Both the ideal and the family
    must respect the grading.
    """
    if not X.is_quasihomogeneous():
        raise DomainError("coinvariants need a weighted-homogeneous ideal")
    if X.ring.has_zero_weights:
        raise DomainError("coinvariants need strictly positive weights")
    graded, label = graded_family(X, family, max_degree)
    gb = X.groebner()
    dims: dict[int, int] = {}
    for w in range(0, max_degree + 1):
        basis = monomial_basis(gb, w)
        if not basis:
            dims[w] = 0
            continue
        images = []
        for fw, fs in graded.items():
            if fw > w:
                continue
            sources = monomial_basis(gb, w - fw)
            images += [
                _nf_terms(gb, xi.apply_monomial(m))[0]
                for xi, floor in fs
                for m in sources
                if floor is None or m > floor
            ]
        dims[w] = len(basis) - linalg.span_rank(images)
    return CoinvariantTable(dimensions=dims, family=label, truncation=max_degree)


@dataclass
class Hp0Verification:
    match: bool
    mismatches: list
    table: CoinvariantTable
    series_coefficients: dict

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
