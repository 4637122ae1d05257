"""Exact solvers for matching-based edge-failure robustness of graphs:
matching preclusion, s-restricted matching preclusion, and anti-Kekule
numbers, with certificates, an executable reduction between the problems,
and hypercube-specific verifications."""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    OracleLimitError,
    ParameterError,
    ParseError,
    PreclusionError,
    PreconditionError,
    ReductionError,
    TagMismatchError,
)
from .graphs import (
    ComponentReport,
    EdgeSet,
    Graph,
    complete,
    complete_bipartite,
    components,
    cycle,
    delete_edges,
    find_bipartition,
    generate,
    hypercube,
    path,
    petersen,
    random_bipartite_with_pm,
    random_graph,
    with_bipartition,
)
from .formats import detect_format, emit, parse
from .matching import (
    Matching,
    brute_force_matching_number,
    has_almost_perfect_matching,
    has_perfect_matching,
    matching_from_edge_ids,
    matching_number,
    max_matching,
    near_perfect_matching_masks,
)
from .solver import (
    AK,
    INFINITY,
    MP,
    ORACLE_EDGE_LIMIT,
    Evidence,
    PreclusionCertificate,
    ProblemKind,
    brute_force_solve,
    chain_suite,
    is_anti_kekule_set,
    is_matching_preclusion_set,
    is_s_restricted_set,
    mp_s,
    solve,
    trivial_mp_set,
)
from .reduction import (
    EquivalenceCheck,
    ReductionInstance,
    backward_extract,
    build_reduction,
    forward_witness,
    fuzz_equivalence,
    verify_equivalence,
)
from .cubes import (
    TwoPath,
    check_connected_after,
    compute_v_e,
    incident_pair_set,
    star_plus_padding_counterexample,
    super_connectivity_report,
    trivial_conditional_set,
    two_paths,
    verify_mps_hypercube,
    verify_trivial_conditional_connected,
)
