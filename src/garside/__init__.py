"""Exact computations in Garside groups and their parabolic cosets.

The kernel works over a finite table of simple elements and keeps every
group element in a canonical normal form; on top of it sit parabolic
substructures, minimal-length coset representatives, the finite-state
acceptor for them, the exact rational coset growth series and the
projection machinery, plus brute-force oracles used for validation.
"""

from .budget import Budget
from .errors import BudgetExceededError, DomainError, GarsideError, StructureError
from .kernel import (
    Element,
    Form,
    GarsideTable,
    NormalFormView,
    conjugate_by_delta,
    delta_power,
    format_element,
    has_left_divisor,
    identity,
    invert,
    meet_with_simple,
    multiply,
    normalize,
    simple,
    view,
)
from .parabolic import (
    ParabolicData,
    d_k,
    is_n_reduced,
    make_parabolic,
    omega_i,
    tail_split,
)
from .cosets import (
    ProjectionSet,
    bounded_projection_witness,
    coset_length,
    coset_representative,
    fellow_projection_audit,
    is_hn_reduced,
    projection,
    projection_diameter,
)
from .automaton import CosetAutomaton, build_automaton
from .growth import RationalSeries, rational_series, transfer_counts
from .structures import (
    StructureFile,
    build_braid,
    build_dihedral,
    build_free_abelian,
    load_table,
    parse_structure_text,
    save_table,
    table_from_descriptor,
    tables_isomorphic,
    validate_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
