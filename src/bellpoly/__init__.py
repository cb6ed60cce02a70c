"""Exact analysis of no-signaling distribution matrices.

The package represents bipartite conditional distributions as matrices
of exact rationals (one row per settings pair in the canonical chained
order, columns ``++ +0 0+ 00``), and provides:

* the polytope's equality constraints as one table, with membership
  checks and violation diagnostics read from it,
* one engine for every n >= 2, n=2 included: functional values against
  generalized PR boxes, identification of the violated box, exact
  decompositions read off single matrix cells and their tightness, and
  the pairwise box merges and mismatch replacements,
* the n=2 catalog on top of it: the paper's numbering of the 24
  vertices, the 8 CHSH symmetries, the replacement tables derived from
  the general constructions, the single-cell rewrites of the quarter
  violation, and a variance-minimizing violation estimator with exact
  rational weights,
* distance measures to the local polytope (total variation exactly,
  Kullback-Leibler numerically, with a Frank-Wolfe gap certificate) and
  a face projection at every n,
* detector-efficiency transforms and exact critical thresholds (a
  rational or a quadratic surd),
* vertex enumeration with exact extremality certificates.

All polytope geometry is exact (:class:`fractions.Fraction` cells; the
linear algebra in :mod:`bellpoly.exactlin` eliminates on integers and
builds ``Fraction``s only for its results); floats appear only in the
KL optimizer and as requested renderings, such as
:func:`critical_efficiency`'s correctly rounded threshold.  The package
needs nothing outside the standard library.
"""

from .chained import (
    MismatchCell,
    canonical_gpr,
    chained_value,
    decompose_chained,
    domino_merge,
    identify_gpr,
    is_local_chained,
    mismatch_replacement,
    one_support_mismatches,
    readoff_weights,
    support_mismatch_count,
    tightness_witness,
)
from .chsh import (
    CASTOUT_TABLE,
    PAIR_TABLE,
    SATURATING_SET_1,
    VARIANT_CELLS,
    ChshSymmetry,
    EstimatorQuadratic,
    all_chsh_values,
    castout_mixture,
    castout_replacement,
    chsh_symmetries,
    chsh_symmetry,
    chsh_value,
    decompose_222,
    decompose_local_222,
    estimator_objective,
    estimator_quadratic,
    estimator_weights,
    is_local_222,
    pair_replacement,
    readoff_222,
    row_correlators,
    uniform_pair_mixture,
    variant_eberhard_values,
    violated_symmetry,
)
from .core import (
    ANTICORRELATED_ROW,
    COLUMNS,
    CORRELATED_ROW,
    SCENARIO_222,
    UNIT_ROWS,
    BellError,
    CapacityError,
    Decomposition,
    DistributionMatrix,
    Equality,
    GeneralizedPRBox,
    InconsistentInputError,
    InvariantViolationError,
    LocalDeterministic,
    NonConvergenceError,
    NormalizationError,
    NotApplicableError,
    PreconditionError,
    Scenario,
    SettingsDistribution,
    ShapeError,
    Violation,
    as_fraction,
    as_matrix,
    catalog_222,
    enumerate_gprs,
    enumerate_lds,
    equalities,
    ld_box,
    ld_index_of,
    matrix_222,
    mix,
    pr_box,
    pr_index_of,
    require_member,
    rows_as_222,
    validate,
)
from .efficiency import (
    EfficiencyParams,
    EfficiencyThreshold,
    apply_efficiency,
    critical_efficiency,
    critical_efficiency_exact,
)
from .fileio import (
    dump_distribution,
    dumps_distribution,
    format_rational,
    load_distribution,
    loads_distribution,
    save_distribution,
)
from .metrics import (
    ClosestLocalResult,
    face_projection,
    kl_closest_local,
    kl_divergence,
    kl_gap,
    kl_gradient,
    kl_minimize,
    kl_objective,
    tv_closest_local,
    tv_distance,
)
from .polytope import (
    active_rank,
    enumerate_vertices,
    equality_matrix,
    is_extremal,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
