"""Invariants of affine varieties carrying Lie algebras of vector fields.

Exact rational arithmetic throughout: polynomials and Groebner bases,
Milnor and Tjurina numbers of isolated complete-intersection
singularities, coinvariant Poincare polynomials with an independent
linear-algebra oracle, Jacobian Poisson brackets, Jacobi and contact
Hamiltonians, rank stratifications and the finite-leaves test, and
symmetric-power generating series.
"""

from .errors import DomainError, InputError, ParseError
from .poly import Polynomial, PolyRing, parse_poly
from .groebner import (
    INFINITE,
    GroebnerBasis,
    LEX,
    PoincareSeries,
    WGREVLEX,
    buchberger,
    colength_local,
    krull_dimension,
    minors,
    monomial_basis,
    normal_form,
    poincare_series,
)
from .vfields import (
    JacobianPolyvector,
    JacobiStructure,
    VectorField,
    VectorFieldFamily,
    derivation_generators,
    derivations_up_to_degree,
    exceptional_ideal,
    hamiltonian_family_top,
    incompressibility_truncated,
    jacobi_bracket,
    jacobi_hamiltonian,
    jacobian_pairing,
    lie_closure,
    standard_contact,
    tangency_check,
    top_polyvector_field,
)
from .geom import (
    SingularityReport,
    Variety,
    degenerate_locus,
    hp0_series,
    jacobian_bracket_matrix,
    jacobian_chain,
    leaves_check,
    milnor_breakdown,
    milnor_number,
    rank_strata,
    tjurina,
)
from .coinv import CoinvariantTable, coinvariants_truncated, verify_hp0
from .sympower import BigradedSeries, brute_sym2_coinvariants, hp0_sym_series, sym_power_series

__version__ = "0.1.0"
