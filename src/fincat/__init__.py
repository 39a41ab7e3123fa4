"""Finite category engine: table categories, set-valued functors, a typed
term language, a staged diagram DSL, and Yoneda/adjunction/Kan machinery."""

from .core import (
    BoundaryError,
    CheckReport,
    CycleError,
    FinCat,
    FinCatError,
    FunctorVal,
    MalformedTableError,
    NatTransVal,
    Obligation,
    comma_under_object,
    compose_functors,
    identity_functor,
    opposite,
    preorder_from_covers,
    validate_category,
    validate_functor,
    validate_nattrans,
)
from .finset import (
    FINSET,
    CapExceededError,
    FinSetCat,
    FinSetMap,
    FinSetObj,
    colimit_finset,
    compose_maps,
    encode_map,
    enumerate_maps,
    identity_map,
    limit_finset,
    nattrans_slices,
    nattrans_values,
)
from .files import (
    AdjParts,
    FixtureParseError,
    ModelSpec,
    load_adjunction_parts,
    load_category,
    load_functor,
    load_model_spec,
    load_nattrans,
    load_once,
)
from .terms import (
    ReductionGraph,
    Signature,
    TermError,
    canonical_print,
    curry_howard_translate,
    infer_inhabitants,
    parse_context,
    parse_signature,
    parse_term,
    parse_type,
    print_term,
    print_type,
    reduction_graph,
    typecheck,
)
from .diagram import (
    DiagramAst,
    DiagramError,
    DiagramParseError,
    Model,
    build_model,
    check_commutativity,
    elaborate_context,
    evaluate_quantified,
    expand_annotation,
    extract_stages,
    parse_diagram,
    render_grid,
)
from .yoneda import (
    HomContext,
    check_yoneda_roundtrips,
    hom_cov_functor,
    hom_maps_functor,
    yoneda_pointwise_bijection,
)
from .adjunction import (
    AdjunctionError,
    AdjunctionVal,
    adjunction_from_universal_arrows,
    assemble_adjunction,
    check_kan_adjointness,
    counit_inclusion_check,
    kan_extensions,
    precompose_functor,
    verify_adjunction,
)

__all__ = [name for name in dir() if not name.startswith("_")]
