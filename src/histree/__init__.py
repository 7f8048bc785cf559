"""Determinization of nondeterministic Buchi automata into deterministic
Rabin (transition) automata via labeled ordered trees, with canonical
(height, flag) identifiers that shrink the number of Rabin pairs, plus
brute-force oracles that check language equivalence at desk scale."""

from .automata import (
    DRTW,
    DRW,
    EMPTY_ANNOTATION,
    BuildStats,
    LassoWord,
    NBW,
    RabinPairSet,
    TransitionAnnotation,
    image,
    rabin_accepts,
    validate_nbw,
)
from .determinize import (
    Determinizer,
    HistoryTree,
    assemble_pairs,
    assemble_state_pairs,
    build_drtw,
    build_drw,
    check_history_tree,
)
from .dot import emit_dot
from .errors import CapacityError, HistreeError, InputError, ParseError
from .formats import (
    UnsupportedAcceptanceError,
    emit_nbw_hoa,
    emit_nbw_native,
    emit_rabin,
    parse_nbw,
    parse_nbw_hoa,
    parse_nbw_native,
    parse_rabin,
)
from .oracle import (
    EquivReport,
    IdentifierBoundsReport,
    TransitionProfile,
    bounded_equiv,
    check_identifiers_injective,
    det_lasso_member,
    enumerate_history_trees,
    nbw_lasso_member,
    verify_identifier_bounds,
)
from .trees import (
    Identifier,
    IdentifierTable,
    NodeName,
    can_co_occur,
    chain,
    classify,
    closed_chain,
    compress,
    full_tree,
    height,
    is_order_closed,
    precedes,
)

__version__ = "0.1.0"
