"""Exact computations with finite abelian covers of an infinite-genus
lattice surface: symmetry-letter actions on eventually periodic vectors,
finite-index decisions, coset graphs, degree-two censuses, and end counts."""

from .groups import (
    MAX_AUTOMORPHISMS,
    MAX_GROUP_ORDER,
    AutomorphismBoundError,
    Automorphism,
    FinAbGroup,
    GroupElem,
    GroupParseError,
    Subgroup,
    automorphism_count,
    automorphisms,
    parse_elem,
    parse_group,
    span,
)
from .vectors import (
    EpVector,
    VectorClass,
    VectorParseError,
    apply_aut,
    canonical_class,
    format_vector,
    from_entries,
    generates,
    is_periodic,
    normalize,
    parse_vector,
)
from .action import (
    MAX_WORD_EXPONENT,
    GeneratorLetter,
    Mat2Q,
    Word,
    WordParseError,
    act_h,
    act_h_inv,
    act_h_pow,
    act_neg,
    act_p1,
    act_p1_inv,
    act_p2,
    act_p2_inv,
    act_word,
    format_word,
    parse_word,
    word_matrix,
)
from .finite_index import IndexVerdict, decide_finite_index, in_cn, is_fixed_by_h_pow
from .orbit import (
    GraphType,
    SchreierGraph,
    classify_type,
    classify_with_reason,
    orbit_bfs,
    orbit_report,
    projective_rank,
    schreier_dot,
    stabilizer_generators,
    veech_index,
)
from .degree2 import (
    WnElement,
    count_closed_forms,
    enumerate_wn,
    enumerate_wn_star,
    expand,
    is_weakly_n_periodic,
    kranz_orbits,
    orbit_census,
    p1_bits,
    p2_bits,
    realize_rank,
    striezel_orbits,
)
from .topology import (
    EndsReport,
    SurfaceKind,
    accumulation_points,
    alt_sum,
    classify_d2,
    construct_max_ends,
    end_subgroup,
    ends_report,
    minimal_n,
    num_ends,
)

__version__ = "0.1.0"
