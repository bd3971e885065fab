"""flatsic: construction and verification of almost-flat SIC fiducial vectors.

The toolkit builds almost-flat ansatz vectors (including closed-form Legendre
vectors), decides the SIC property through displacement overlaps and quartic
autocorrelation checks, evaluates the X-overlap equation and its companion
identities, generates the exact polynomial systems behind the rescaled
ansatz for external computer-algebra engines, and runs seeded numerical
searches over the free phase angles.
"""

from .ansatz import (
    AnsatzVector,
    DegenerateComponentError,
    IdentityReport,
    as_normalized,
    build_ansatz,
    displacement_row_identity,
    to_normalized,
    to_rescaled,
    to_vform,
    x_overlap_deviations,
    x_overlap_residual,
    z_overlap_residual,
    z_shift,
)
from .legendre import (
    BranchReport,
    LegendreClassification,
    LegendreVector,
    PerronCounts,
    build_legendre_vector,
    classify_legendre,
    legendre_symbol,
    legendre_sweep,
    legendre_x1,
    lemma1_closed_form,
    lemma1_deviation,
    perron_counts,
    perron_table,
    primes_3mod4,
)
from .polysys import (
    Poly,
    PolySystem,
    build_system,
    check_d7_component_basis,
    eval_system,
    export_system,
    parse_poly,
    parse_system,
    poly,
    system_manifest,
)
from .search import (
    OBJECTIVES,
    SearchConfig,
    SearchResult,
    canonical_match,
    minimize,
    objective,
    objective_and_gradient,
    search_results_json,
)
from .vectorio import VectorFileError, dump_vector, parse_vector_file
from .verify import (
    OverlapTable,
    SicReport,
    check_tolerance,
    gik_residual,
    gik_table,
    gik_table_csv,
    is_sic,
    naive_x_residual,
    overlap_table,
    overlap_table_csv,
)
from .weyl import (
    FORMS,
    CVec,
    Dim,
    apply_displacement,
    basis_vector,
    cvec,
    inner_product,
    is_prime,
    make_dimension,
    norm_tolerance,
)

__version__ = "0.1.0"
