"""Exact symbolic calculator for branching data of Arthur parameters.

The package decides relevance of parameter pairs, computes local and global
L-function pole orders for the two branching ratios, evaluates epsilon-sign
characters and the automorphy test, and runs the derivative engine behind
the general-linear branching criterion.  Everything is exact integer or
half-integer arithmetic.
"""

from .repcore import (
    AParam,
    ATerm,
    AparamError,
    BudgetError,
    LParam,
    NotDiscreteError,
    ParityError,
    ParseError,
    Partition,
    ShapeError,
    SymbolError,
    SymbolTable,
    TRIVIAL,
    WeilSymbol,
    a_to_l,
    clebsch_gordan,
    delta_map,
    dual_param,
    enumerate_params,
    parse_param,
    plus_map,
    render_param,
    swap_sl2,
    validate_parity,
    venkatesh_partition,
)
from .relevance import (
    NotRelevant,
    NotRelevantError,
    RelevanceWitness,
    brute_force_relevant,
    check_relevant,
    correlator_witness,
    delta_class_search,
    endoscopic_rows,
    ep_identities,
    is_relevant,
    special_pairs,
)
from .lfun import (
    bessel_ratio_order,
    gl_hom_formula_order,
    gl_ratio_order,
    ord_at,
)
from .globlfun import (
    OrderExpr,
    global_block_order,
    global_ratio_order,
)
from .chars import (
    CharacterAssignment,
    SignTable,
    SignTableError,
    alternating_characters,
    arthur_character,
    automorphy_test,
    eps_block,
    gg_global_character,
    ggp_character,
    ggp_chi,
    is_alternating,
    predict_multiplicity,
    supercuspidal_support,
    without_gaps,
)
from .glbranch import (
    GLFactor,
    GLProduct,
    HypothesisViolated,
    decide_gl_branching,
    derivative_supports,
    factorization_check,
    parse_product,
    product_from_aparam,
    support,
    support_match,
)

__version__ = "0.1.0"
