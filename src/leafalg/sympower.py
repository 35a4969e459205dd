"""Bigraded generating series for symmetric-power coinvariants, plus a
tiny brute-force check for second symmetric powers.

The series lives in a symmetric-power variable s and a weight variable
u.  For a finite graded dimension table p (the coinvariant Poincare
polynomial of the underlying variety) the symmetric algebra on one copy
of that space per power r >= 1 has series

    prod_{r >= 1} prod_j (1 - s^r u^(j - r*d))^(-p_j),

truncated strictly in s; the u-support at each s-degree stays finite.
The exponent shift by -d per power is the graded correction that
assigns the power variable weight -d, where d is the weight of the
defining equation; d = 0 gives the uncorrected series.
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError, InputError
from .geom import Variety, hp0_series
from .coinv import graded_family, graded_quotient
from .groebner import _nf_terms, monomial_basis, u_polynomial_text


class BigradedSeries:
    """Truncated series in s (symmetric power) and u (weight).

    Coefficients are non-negative integers keyed by (s-degree,
    u-exponent); u-exponents may be negative after weight correction.
    The s^0 coefficient is always 1 (the empty symmetric product).  The
    constructor, the one check, takes the finished coefficient dict.
    """

    __slots__ = ("truncation", "coefficients")

    def __init__(self, truncation: int, coefficients=None):
        self.truncation = truncation
        coeffs = {(0, 0): 1}
        if coefficients is not None:
            coeffs = {k: v for k, v in dict(coefficients).items() if v != 0 and k[0] <= truncation}
        if coeffs.get((0, 0)) != 1 or any(k[0] == 0 and k != (0, 0) for k in coeffs):
            raise InputError("the s^0 layer must be exactly 1")
        if any(v < 0 for v in coeffs.values()):
            raise InputError("coefficients must be non-negative")
        self.coefficients = coeffs

    def s_layer(self, r: int) -> dict[int, int]:
        """The u-polynomial multiplying s^r."""
        return {u: c for (s, u), c in self.coefficients.items() if s == r}

    def __eq__(self, other):
        return (
            isinstance(other, BigradedSeries)
            and self.truncation == other.truncation
            and self.coefficients == other.coefficients
        )

    def __str__(self):
        layers = []
        for r in range(self.truncation + 1):
            layer = self.s_layer(r)
            if layer:
                body = u_polynomial_text(layer)
                layers.append(body if r == 0 else f"({body})*s^{r}" if r > 1 else f"({body})*s")
        return " + ".join(layers)

    __repr__ = __str__


def sym_power_series(p: dict[int, int], shift: int, truncation: int) -> BigradedSeries:
    """Series of the symmetric algebra on one copy of a graded space per
    power r >= 1, where ``p`` maps weight to dimension and ``shift`` is
    the weight of the defining equation (0 for no correction).  The
    factors multiply as ``{(s, u): c}`` dicts into one ``BigradedSeries``."""
    if truncation < 0:
        raise InputError("truncation must be non-negative")
    for j, pj in p.items():
        if pj < 0:
            raise InputError(f"negative coefficient {pj} at weight {j}")
    coeffs = {(0, 0): 1}
    for r in range(1, truncation + 1):
        for j, pj in sorted(p.items()):
            if pj:  # times (1 - s^r u^e)^(-pj) = sum_a C(pj - 1 + a, a) s^(r a) u^(e a)
                e, product = j - r * shift, {}
                for (s, v), c in coeffs.items():
                    for a in range((truncation - s) // r + 1):
                        key = (s + r * a, v + e * a)
                        product[key] = product.get(key, 0) + math.comb(pj - 1 + a, a) * c
                coeffs = product
    return BigradedSeries(truncation, coeffs)


def hp0_sym_series(X: Variety, truncation: int, corrected: bool = True) -> BigradedSeries:
    """Symmetric-power series of a quasihomogeneous isolated singularity,
    from its coinvariant Poincare polynomial; the corrected form shifts
    u by the weight of the last defining equation per power."""
    series = hp0_series(X)
    p = series.coefficients()
    d = X.ideal_gens[-1].weighted_degree() if corrected else 0
    return sym_power_series(p, d or 0, truncation)


def brute_sym2_coinvariants(X: Variety, max_degree: int) -> dict[int, int]:
    """Per-weight dimensions of the coinvariants of the second symmetric
    power under the diagonal action xi.(f g) = xi(f) g + f xi(g),
    computed by exact linear algebra on symmetrized monomial pairs.

    Guarded to tiny inputs (ring arity <= 3, socle degree <= 6): the
    bases grow quadratically.
    """
    if X.ring.arity > 3:
        raise DomainError("size guard: brute second symmetric power needs ring arity <= 3")
    if not X.is_quasihomogeneous():
        raise DomainError("second symmetric power oracle needs a weighted-homogeneous ideal")
    if X.ideal_gens and hp0_series(X).socle_degree() > 6:
        raise DomainError("size guard: socle degree above 6")
    graded, _ = graded_family(X, "hamiltonian-top", max_degree)
    gb = X.groebner()
    entries = [(fw, image) for fw, es in sorted(graded.items()) for image, _ in es]

    @functools.cache
    def image_nf(k, m):
        """The normal form of entry k's image of m, as (row, den)."""
        return _nf_terms(gb, entries[k][1](m))

    @functools.cache
    def pairs(w):
        """Each unordered pair {a, b} of standard monomials of weights
        summing to w once: wt(a) < wt(b), or a <= b at equal weights."""
        return [
            (a, b)
            for da in range(w // 2 + 1)
            for a in monomial_basis(gb, da)
            for b in monomial_basis(gb, w - da)
            if da < w - da or a <= b
        ]

    def rows(w):
        for k, (fw, _) in enumerate(entries):
            for a, b in pairs(w - fw):
                # den_a * den_b times xi(a) b + a xi(b), keyed by sorted pairs
                (row_a, den_a), (row_b, den_b) = image_nf(k, a), image_nf(k, b)
                row = {}
                for terms, y, den in ((row_a, b, den_b), (row_b, a, den_a)):
                    for x, c in terms.items():
                        key = (x, y) if x <= y else (y, x)
                        row[key] = row.get(key, 0) + c * den
                # a cancelled entry at the smallest column would be a false pivot
                yield {key: v for key, v in row.items() if v}

    return graded_quotient(max_degree, lambda w: len(pairs(w)), rows)
