"""Varieties with structure: Jacobian ideal chains, Milnor and Tjurina
numbers, the coinvariant Poincare polynomial of a quasihomogeneous
isolated singularity, Jacobian Poisson brackets on codimension-two
complete intersections, rank stratifications, the finite-leaves test,
and degenerate loci of top polyvector structures.

A ``Variety`` carries the Jacobian polyvector unless given another
structure (``vfields``); the dispatch on structure kinds is here, in
``hamiltonian`` and ``_structure_matrix``.

The studied point is always the origin; translate inputs first.

A note on recovering f from its partials in the quasihomogeneous case:
the Euler identity gives f = (1/deg_w f) * sum_i m_i x_i d_i f, with
the weighted degree of f as the divisor (not the sum of the variable
weights).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InputError
from .groebner import (
    INFINITE,
    GroebnerBasis,
    MonomialOrder,
    PoincareSeries,
    WGREVLEX,
    buchberger,
    colength_local,
    krull_dimension,
    minors,
    poincare_series,
)
from .poly import PolyRing
from .vfields import (
    BracketStructure,
    JacobianPolyvector,
    JacobiStructure,
    Structure,
    VectorFieldFamily,
    hamiltonian_from_bracket,
    jacobi_bracket,
    jacobi_hamiltonian,
    jacobian_matrix,
    jacobian_pairing,
    lie_closure,
)


class Variety:
    """Ambient ring, ordered ideal generators f_1..f_k, and a structure."""

    __slots__ = ("ring", "ideal_gens", "structure", "order", "_gb", "_sing_gb", "_chain")

    def __init__(
        self,
        ring: PolyRing,
        ideal_gens,
        structure: Structure | None = None,
        order: MonomialOrder = WGREVLEX,
    ):
        gens = tuple(ideal_gens)
        if len(gens) > ring.arity:
            raise InputError("more generators than ambient variables")
        for g in gens:
            if g.ring != ring:
                raise InputError("ideal generator lives in a different ring")
        self.ring = ring
        self.ideal_gens = gens
        self.structure = JacobianPolyvector() if structure is None else structure
        self.order = order
        self._gb = None
        self._sing_gb = None
        self._chain = None

    @property
    def expected_dimension(self) -> int:
        return self.ring.arity - len(self.ideal_gens)

    def groebner(self) -> GroebnerBasis:
        if self._gb is None:
            self._gb = buchberger(list(self.ideal_gens), self.order, ring=self.ring)
        return self._gb

    def chain(self) -> JacobianChain:
        """The Jacobian chain, built once."""
        if self._chain is None:
            self._chain = jacobian_chain(self)
        return self._chain

    def singularity_groebner(self) -> GroebnerBasis:
        """Basis of the singularity ring's ideal (J_k, f_k), computed once."""
        if self._sing_gb is None:
            self._sing_gb = buchberger(_singularity_ring_gens(self), self.order, ring=self.ring)
        return self._sing_gb

    def is_quasihomogeneous(self) -> bool:
        return all(g.is_quasihomogeneous() for g in self.ideal_gens)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.ideal_gens)
        return f"Variety({self.ring!r}; ideal ({gens}))"


@dataclass
class JacobianChain:
    """The ideals J_1..J_k: J_i is generated by f_1..f_{i-1} together
    with all i x i minors of the Jacobian matrix of f_1..f_i."""

    ideals: list


def jacobian_chain(X: Variety) -> JacobianChain:
    if not X.ideal_gens:
        raise DomainError("the Jacobian chain needs at least one generator")
    ring = X.ring
    ideals = []
    for i in range(1, len(X.ideal_gens) + 1):
        head = list(X.ideal_gens[: i - 1])
        jac = jacobian_matrix(X.ideal_gens[:i], ring)
        ideals.append(head + minors(jac, i))
    return JacobianChain(ideals)


def milnor_breakdown(X: Variety) -> list:
    """Local colengths of the Jacobian chain ideals at the origin."""
    return [colength_local(gens, X.ring) for gens in X.chain().ideals]


def milnor_from_chain(lengths: list):
    """The alternating sum of the chain colengths (those of
    ``milnor_breakdown``), or INFINITE when some colength is."""
    if any(c == INFINITE for c in lengths):
        return INFINITE
    k = len(lengths)
    return sum((-1) ** (k - i) * c for i, c in enumerate(lengths, start=1))


def milnor_number(X: Variety):
    """Milnor number at the origin: the alternating sum of the chain
    colengths.  Returns INFINITE when some chain ideal has infinite
    colength (a non-isolated singularity along the flag)."""
    return milnor_from_chain(milnor_breakdown(X))


@dataclass
class SingularityReport:
    milnor: object
    tjurina: object
    gap: object
    singularity_ring_series: PoincareSeries | None


def _singularity_ring_gens(X: Variety) -> list:
    return X.chain().ideals[-1] + [X.ideal_gens[-1]]


def tjurina(X: Variety) -> SingularityReport:
    """Tjurina number (colength of the singularity ring) plus the Milnor
    number, their gap, and the graded series when quasihomogeneous."""
    lengths = milnor_breakdown(X)
    offenders = [i for i, c in enumerate(lengths, start=1) if c == INFINITE]
    if offenders:
        raise DomainError(
            f"non-isolated singularity: chain ideal J_{offenders[0]} has infinite colength"
        )
    mu = milnor_from_chain(lengths)
    if X.is_quasihomogeneous() and not X.ring.has_zero_weights:
        # a graded ideal: its series at u = 1 is the local colength
        series = poincare_series(X.singularity_groebner())
        tau = series.total_dimension()
    else:
        series = None
        tau = colength_local(_singularity_ring_gens(X), X.ring)
    if tau == INFINITE:
        raise DomainError("non-isolated singularity: the singularity ring is infinite-dimensional")
    return SingularityReport(
        milnor=mu,
        tjurina=tau,
        gap=mu - tau,
        singularity_ring_series=series,
    )


def hp0_series(X: Variety) -> PoincareSeries:
    """Poincare polynomial of the coinvariants of the Hamiltonian family,
    via the closed form: the graded series of the singularity ring
    O / (J_k, f_k).  Requires weighted-homogeneous generators and an
    isolated singularity."""
    if not X.ideal_gens:
        raise DomainError("hp0_series needs at least one generator")
    if not X.is_quasihomogeneous():
        raise DomainError("hp0_series requires weighted-homogeneous generators")
    series = poincare_series(X.singularity_groebner())
    if not series.finite:
        raise DomainError("non-isolated singularity: the singularity ring is not finite-dimensional")
    return series


def jacobian_bracket_matrix(X: Variety) -> list:
    """The Jacobian Poisson bracket of a codimension-(n-2) complete
    intersection: {x_i, x_j} = P_ij, the Jacobian pairing of
    dx_i ^ dx_j ^ df_1 ^ ... ^ df_k."""
    ring = X.ring
    k = len(X.ideal_gens)
    if ring.arity != k + 2:
        raise DomainError(
            f"Jacobian bracket needs ambient arity = codimension + 2 "
            f"(got arity {ring.arity} with {k} generators)"
        )
    n = ring.arity
    zero = ring.zero()
    matrix = [[zero for _ in range(n)] for _ in range(n)]
    for (i, j), entry in jacobian_pairing(X.ideal_gens, ring).items():
        matrix[i][j] = entry
        matrix[j][i] = -entry
    return matrix


@dataclass
class RankStratum:
    rank: int
    ideal: GroebnerBasis
    dimension: int


def _structure_matrix(X: Variety, bracket_depth: int = 2):
    s = X.structure
    if isinstance(s, BracketStructure):
        return [list(row) for row in s.matrix]
    if isinstance(s, JacobianPolyvector):
        return jacobian_bracket_matrix(X)
    if isinstance(s, JacobiStructure):
        # evaluation span of the Hamiltonian family: rows of pi plus u
        return [list(row) for row in s.matrix] + [list(s.u.coefficients)]
    if isinstance(s, VectorFieldFamily):
        closed = lie_closure(list(s.generators), depth=bracket_depth)
        return [list(xi.coefficients) for xi in closed]
    raise DomainError(f"unsupported structure {s!r}")


def hamiltonian(X: Variety, f, g=None):
    """The Hamiltonian field of f for the variety's bracket, or the
    bracket {f, g} when g is given.  A Jacobi structure has its own
    formulas; a bracket structure and the Jacobian polyvector give their
    bracket matrix.  Explicit vector fields carry no bracket."""
    s = X.structure
    if isinstance(s, VectorFieldFamily):
        raise DomainError("a vector-fields structure has no bracket; use a bracket, jacobi or jacobian one")
    if isinstance(s, JacobiStructure):
        return jacobi_hamiltonian(f, s) if g is None else jacobi_bracket(f, g, s)
    xi = hamiltonian_from_bracket(f, _structure_matrix(X))
    return xi if g is None else xi.apply(g)


def rank_strata(X: Variety, bracket_depth: int = 2) -> list[RankStratum]:
    """Closed loci where the structure's evaluation rank is at most i,
    cut out by the ideal of (i+1) x (i+1) minors plus the variety ideal,
    for i = 0 .. min(rows, cols).  Vector-field structures are closed
    under Lie brackets to ``bracket_depth`` first, so their strata are
    relative to the closed generating set."""
    matrix = _structure_matrix(X, bracket_depth)
    if not matrix:
        gb = X.groebner()
        return [RankStratum(0, gb, krull_dimension(gb))]
    max_rank = min(len(matrix), len(matrix[0]))
    out = []
    for i in range(max_rank + 1):
        gens = list(X.ideal_gens)
        if i < max_rank:
            gens += minors(matrix, i + 1)
        gb = buchberger(gens, X.order, ring=X.ring)
        out.append(RankStratum(i, gb, krull_dimension(gb)))
    return out


@dataclass
class LeavesReport:
    passed: bool
    strata: list
    witness: RankStratum | None = None

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def leaves_check(X: Variety, bracket_depth: int = 2) -> LeavesReport:
    """Finite-leaves criterion: the rank-at-most-i locus may have
    dimension at most i.  Fails with the smallest offending stratum."""
    strata = rank_strata(X, bracket_depth=bracket_depth)
    for stratum in strata:
        if stratum.dimension > stratum.rank:
            return LeavesReport(False, strata, witness=stratum)
    return LeavesReport(True, strata)


@dataclass
class DegenerateLocusReport:
    ideal: GroebnerBasis
    dimension: int
    finite: bool


def degenerate_locus(X: Variety) -> DegenerateLocusReport:
    """Vanishing locus of the top polyvector together with the singular
    locus: the variety ideal plus all k x k minors of the Jacobian.
    That is the singularity ring's ideal (J_k, f_k), so its basis is
    ``X.singularity_groebner()``.  Finite (dimension <= 0) iff the
    coinvariants are finite-dimensional."""
    if not isinstance(X.structure, JacobianPolyvector):
        raise DomainError("degenerate locus needs the Jacobian polyvector structure")
    if not X.ideal_gens:
        raise DomainError("degenerate locus needs at least one generator")
    gb = X.singularity_groebner()
    dim = krull_dimension(gb)
    return DegenerateLocusReport(ideal=gb, dimension=dim, finite=dim <= 0)
