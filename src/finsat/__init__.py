"""finsat: a workbench for finite satisfiability of two-variable logic
with one transitive relation or partial order.

The package implements, composes and empirically verifies every
constructive transformation of the decision procedure: Scott-style normal
forms, basic-formula compilation over typed partial orders, factorizations
with block-count and block-size reductions, resolution-based elimination of
ordinary binary predicates via spread normal form, and the clique reduction
from a transitive relation to a partial order, all backed by a bounded
finite-model finder that doubles as the verification oracle.
"""

from .logic import (
    DistKind,
    Formula,
    LogicError,
    OneType,
    PreconditionError,
    SemiDiagonalTwoType,
    Signature,
    SignatureMismatchError,
    Structure,
    TwoType,
    VerificationFailure,
    check_distinguished,
    enumerate_one_types,
    evaluate,
    one_type_of,
    two_type_of,
)
from .parsing import (
    ParseError,
    SourceSpan,
    export_factorization_dot,
    parse_formula,
    print_formula,
    read_structure,
    write_structure,
)
from .normal_forms import (
    BasicFormula,
    BasicKind,
    StandardNF,
    TransitiveNF,
    fc_subset,
    to_basic,
    to_standard_nf,
    to_transitive_nf,
    weak_to_standard,
)
from .factorization import (
    Factorization,
    TypedPartialOrder,
    common_refinement,
    factor_for_b3,
    factor_for_b5b,
    factorize_for,
    fc_holds,
    is_thin,
    thin,
    trivial_factorization,
)
from .cuts import Cut, cuts_equivalent, frontier, reduce_at, shrink_block_count
from .subblocks import incomparable_witness_check, shrink_blocks, sub_blocks
from .resolution import (
    SpreadNF,
    cnf,
    complete_type,
    duplicate_nonroyal,
    eliminate_binaries,
    kings_of,
    reconstruct_model,
    resolve_closure,
    strip_binary,
    to_spread,
    transpose,
)
from .cliques import (
    CliqueDecomposition,
    EnumerationBudget,
    abstract_model,
    bound_cliques,
    cliques_of,
    cliquify,
    enumerate_cells,
    enumerate_diatoms,
    expand_model,
    order_atom,
    shrink_clique,
    shrink_substructure,
)
from .solver import (
    DecisionOutcome,
    SearchBudget,
    decide,
    find_model,
    random_formula,
    random_structure,
    smallest_model,
)
from .verify import VerificationReport, pipeline_verify

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
