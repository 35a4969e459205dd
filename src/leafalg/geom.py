"""Varieties with structure: Jacobian ideal chains, Milnor and Tjurina
numbers, the coinvariant Poincare polynomial of a quasihomogeneous
isolated singularity, Jacobian Poisson brackets on codimension-two
complete intersections, rank stratifications, the finite-leaves test,
and degenerate loci of top polyvector structures.

A ``Variety`` carries the Jacobian polyvector unless given another
structure (``vfields``).  Its bracket is one Jacobi pair (pi, u), with
u = None for a Poisson bracket: the dispatch on kinds is in ``_bracket``.

The studied point is always the origin; translate inputs first.

A ``Variety`` keeps each basis it derives.  The singularity ring's
ideal (J_k, f_k) takes J_k's basis when f_k reduces to 0 by it: the two
ideals, and so their reduced bases, are then equal.  For a
quasihomogeneous hypersurface this always holds, since the Euler
identity below puts f in J_f (K. Saito, Invent. Math. 14, 1971), but
the reuse rests on the membership test, not on that theorem.

A note on recovering f from its partials in the quasihomogeneous case:
the Euler identity gives f = (1/deg_w f) * sum_i m_i x_i d_i f, with
the weighted degree of f as the divisor (not the sum of the variable
weights).
"""

from __future__ import annotations

from .errors import DomainError, InputError
from .groebner import (
    INFINITE,
    GroebnerBasis,
    PoincareSeries,
    WGREVLEX,
    buchberger,
    colength_local,
    krull_dimension,
    minors,
    normal_form,
    poincare_series,
)
from .poly import PolyRing
from .vfields import (
    JacobianPolyvector,
    JacobiStructure,
    Structure,
    VectorFieldFamily,
    coordinate_fields,
    jacobi_bracket,
    jacobi_hamiltonian,
    jacobian_matrix,
    lie_closure,
    module_generators,
    tangency_check,
)


class Variety:
    """Ambient ring, ordered ideal generators f_1..f_k, and a structure.

    Keeps what it derives: the basis of its ideal (``groebner``), the
    Jacobian chain (``chain``), J_k's graded basis from the last
    ``milnor_breakdown`` (None where the local route ran), the basis of
    (J_k, f_k) (``singularity_groebner``, J_k's basis when f_k lies in
    J_k) and the coinvariant series or its refusal (``hp0``)."""

    __slots__ = ("ring", "ideal_gens", "structure", "order", "_gb", "_sing_gb", "_chain", "_jk_gb", "_hp0")

    def __init__(
        self,
        ring: PolyRing,
        ideal_gens,
        structure: Structure | None = None,
        order=WGREVLEX,
    ):
        gens = tuple(ideal_gens)
        if len(gens) > ring.arity:
            raise InputError("more generators than ambient variables")
        for g in gens:
            if g.ring != ring:
                raise InputError("ideal generator lives in a different ring")
        if structure is not None and not isinstance(structure, Structure):
            raise InputError("structure must be a JacobianPolyvector, JacobiStructure or VectorFieldFamily")
        if isinstance(structure, JacobiStructure) and structure.ring != ring:
            raise InputError("Jacobi structure lives in a different ring")
        if isinstance(structure, VectorFieldFamily) and any(xi.ring != ring for xi in structure.generators):
            raise InputError("structure generator lives in a different ring")
        self.ring = ring
        self.ideal_gens = gens
        self.structure = JacobianPolyvector() if structure is None else structure
        self.order = order
        self._gb = None
        self._sing_gb = None
        self._chain = None
        self._jk_gb = None
        self._hp0 = None

    @property
    def expected_dimension(self) -> int:
        return self.ring.arity - len(self.ideal_gens)

    def groebner(self) -> GroebnerBasis:
        if self._gb is None:
            self._gb = buchberger(list(self.ideal_gens), self.order, ring=self.ring)
        return self._gb

    def chain(self) -> list:
        """The Jacobian chain, built once."""
        if self._chain is None:
            self._chain = jacobian_chain(self)
        return self._chain

    def hp0(self) -> PoincareSeries:
        """The coinvariant series (``hp0_series``) or its DomainError, computed once."""
        if self._hp0 is None:
            try:
                self._hp0 = hp0_series(self)
            except DomainError as error:
                self._hp0 = str(error)  # not the error, whose traceback holds this variety
        if isinstance(self._hp0, str):
            raise DomainError(self._hp0)
        return self._hp0

    def singularity_groebner(self) -> GroebnerBasis:
        """Basis of the singularity ring's ideal (J_k, f_k), computed once:
        J_k's kept basis when it was built under this order and f_k reduces
        to 0 by it, else a basis of its own."""
        if self._sing_gb is None:
            jk = self._jk_gb
            if jk is not None and jk.order == self.order and normal_form(self.ideal_gens[-1], jk).is_zero():
                self._sing_gb = jk
            else:
                self._sing_gb = buchberger(_singularity_ring_gens(self), self.order, ring=self.ring)
        return self._sing_gb

    def is_quasihomogeneous(self) -> bool:
        return all(g.is_quasihomogeneous() for g in self.ideal_gens)

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.ideal_gens)
        return f"Variety({self.ring!r}; ideal ({gens}))"


def jacobian_chain(X: Variety) -> list:
    """The ideals J_1..J_k as generator lists: J_i is f_1..f_{i-1}
    together with all i x i minors of the Jacobian matrix of f_1..f_i."""
    if not X.ideal_gens:
        raise DomainError("the Jacobian chain needs at least one generator")
    ring = X.ring
    ideals = []
    for i in range(1, len(X.ideal_gens) + 1):
        head = list(X.ideal_gens[: i - 1])
        jac = jacobian_matrix(X.ideal_gens[:i], ring)
        ideals.append(head + minors(jac, i))
    return ideals


def milnor_breakdown(X: Variety) -> list:
    """Local colengths of the Jacobian chain ideals at the origin.  The
    global basis that ``colength_local`` builds for J_k on its graded
    route stays on X, for ``Variety.singularity_groebner``."""
    bases: list = []
    lengths = [colength_local(gens, X.ring, keep=bases) for gens in X.chain()]
    X._jk_gb = bases[-1]
    return lengths


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


class SingularityReport:
    __slots__ = ("milnor", "tjurina", "gap", "singularity_ring_series")

    def __init__(self, milnor, tjurina, gap, singularity_ring_series: PoincareSeries | None):
        self.milnor, self.tjurina, self.gap = milnor, tjurina, gap
        self.singularity_ring_series = singularity_ring_series


def _singularity_ring_gens(X: Variety) -> list:
    return X.chain()[-1] + [X.ideal_gens[-1]]


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
    intersection: {x_i, x_j} = P_ij for i < j, the Jacobian pairing of
    dx_i ^ dx_j ^ df_1 ^ ... ^ df_k.  Row i is the coordinate field
    xi_(i) (``coordinate_fields``), the Hamiltonian field of x_i."""
    n, k = X.ring.arity, len(X.ideal_gens)
    if n != k + 2:
        raise DomainError(f"Jacobian bracket needs ambient arity = codimension + 2 (got arity {n} with {k} generators)")
    return [list(xi.coefficients) for xi in coordinate_fields(X.ideal_gens, X.ring)]


class RankStratum:
    __slots__ = ("rank", "ideal", "dimension")

    def __init__(self, rank: int, ideal: GroebnerBasis, dimension: int):
        self.rank, self.ideal, self.dimension = rank, ideal, dimension


def _bracket(X: Variety) -> JacobiStructure:
    """The Jacobi pair of the variety's bracket: the declared pair, or the
    Jacobian bracket matrix with no u.  Explicit vector fields carry no
    bracket."""
    s = X.structure
    if isinstance(s, VectorFieldFamily):
        raise DomainError("a vector-fields structure has no bracket; use a bracket, jacobi or jacobian one")
    return s if isinstance(s, JacobiStructure) else JacobiStructure(X.ring, jacobian_bracket_matrix(X))


def _structure_matrix(X: Variety, bracket_depth: int = 2) -> tuple[list, int]:
    """Rows generating the structure's fields as an O-module, and how many
    fields they stand for: the rows of pi and u, or the Lie closure of
    explicit fields, refused unless tangent to X.  A graded closure (every
    generator weight-homogeneous, no weight zero) is cut to its module
    generators (``module_generators``); by Cauchy-Binet, rows that generate
    the same module have the same ideal of t x t minors for every t."""
    if isinstance(X.structure, VectorFieldFamily):
        gens = X.structure.generators
        for xi in gens if X.ideal_gens else ():  # all are tangent to the whole space
            if not tangency_check(xi, X.groebner()):
                raise DomainError(f"field {xi} is not tangent to the variety")
        closed = lie_closure(list(gens), depth=bracket_depth)
        graded = all(xi.weight() is not None for xi in gens) and not X.ring.has_zero_weights
        fields = module_generators(closed) if graded else closed
        return [list(xi.coefficients) for xi in fields], len(closed)
    s = _bracket(X)
    rows = [list(row) for row in s.matrix] + ([] if s.u is None else [list(s.u.coefficients)])
    return rows, len(rows)


def hamiltonian(X: Variety, f, g=None):
    """The Hamiltonian field of f for the variety's bracket, or the
    bracket {f, g} when g is given."""
    s = _bracket(X)
    return jacobi_hamiltonian(f, s) if g is None else jacobi_bracket(f, g, s)


def rank_strata(X: Variety, bracket_depth: int = 2) -> list[RankStratum]:
    """Closed loci where the structure's evaluation rank is at most i,
    cut out by the ideal of (i+1) x (i+1) minors plus the variety ideal,
    for i = 0 .. min(fields, arity).  Vector-field structures are closed
    under Lie brackets to ``bracket_depth`` first, so their strata are
    relative to the closed generating set.  The minors are those of its
    module generators (``_structure_matrix``); past their number the
    stratum is X."""
    matrix, size = _structure_matrix(X, bracket_depth)
    out = []
    for i in range(min(size, X.ring.arity) + 1):
        if i < min(len(matrix), X.ring.arity):
            gb = buchberger(list(X.ideal_gens) + minors(matrix, i + 1), X.order, ring=X.ring)
        else:  # no (i+1) x (i+1) minors: X itself, whose basis the tangency check may have built
            gb = X.groebner()
        out.append(RankStratum(i, gb, krull_dimension(gb)))
    return out


class LeavesReport:
    __slots__ = ("passed", "strata", "witness")

    def __init__(self, passed: bool, strata: list, witness: RankStratum | None = None):
        self.passed, self.strata, self.witness = passed, strata, witness


def leaves_check(X: Variety, bracket_depth: int = 2) -> LeavesReport:
    """Finite-leaves criterion: the rank-at-most-i locus may have
    dimension at most i.  Fails with the smallest offending stratum."""
    strata = rank_strata(X, bracket_depth=bracket_depth)
    for stratum in strata:
        if stratum.dimension > stratum.rank:
            return LeavesReport(False, strata, witness=stratum)
    return LeavesReport(True, strata)


class DegenerateLocusReport:
    __slots__ = ("ideal", "dimension", "finite")

    def __init__(self, ideal: GroebnerBasis, dimension: int, finite: bool):
        self.ideal, self.dimension, self.finite = ideal, dimension, finite


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
