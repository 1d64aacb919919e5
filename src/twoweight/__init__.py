"""Dyadic two-weight operator toolkit.

Finite dyadic grids over the unit cube, positive tree operators with their
in/out localizations, testing constants, exact, certified and lower-bound
norm estimation, superlevel decomposition machinery with built-in audits, and an
instance/suite harness with a CLI.
"""

from .constants import (
    TestingReport,
    WeightedCarlesonResult,
    carleson_norm,
    compute_testing_report,
    global_testing,
    local_testing,
    testing_constants_22,
    weighted_carleson_norm,
)
from .extremal import (
    NormEstimate,
    carleson_embedding_constant,
    dense_norm_22,
    exact_norm_22,
    norm_bounds,
    strong_norm_lower,
    weak_norm_lower,
)
from .grid import (
    CubeRef,
    DyadicGrid,
    Exponents,
    GridSizeError,
    Measure,
    UndefinedAverageError,
    build_grid,
    cube_averages,
    cube_integrals,
    lp_norm,
    measure_avg,
    parent,
    weighted_avg,
)
from .harness import (
    ConfigError,
    GeneratorConfig,
    Instance,
    SuiteConfig,
    SuiteReport,
    gen_instance,
    instance_f,
    rows_digest,
    run_suite,
)
from .operators import (
    CubeWeights,
    Selection,
    SelectionError,
    apply_T,
    apply_T_restricted,
    bilinear_form,
    linearized_maximal,
    localized_two_weight_maximal,
    maximal,
)
from .prooflab import (
    ClassifiedDecomposition,
    PrincipalForest,
    ProofLabReport,
    WhitneyDecomposition,
    audit_decomposition,
    carleson_of_principal,
    classify_cubes,
    corridor_sets,
    geometric_sum_audit,
    halving_chain,
    max_principle_audit,
    neighbor_sets,
    occurrence_audit,
    principal_cubes,
    superlevel_maximal_cubes,
    whitney_layers,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # grid
    "CubeRef",
    "DyadicGrid",
    "Exponents",
    "GridSizeError",
    "Measure",
    "UndefinedAverageError",
    "build_grid",
    "cube_averages",
    "cube_integrals",
    "lp_norm",
    "measure_avg",
    "parent",
    "weighted_avg",
    # operators
    "CubeWeights",
    "Selection",
    "SelectionError",
    "apply_T",
    "apply_T_restricted",
    "bilinear_form",
    "linearized_maximal",
    "localized_two_weight_maximal",
    "maximal",
    # constants
    "TestingReport",
    "WeightedCarlesonResult",
    "carleson_norm",
    "compute_testing_report",
    "global_testing",
    "local_testing",
    "testing_constants_22",
    "weighted_carleson_norm",
    # extremal
    "NormEstimate",
    "carleson_embedding_constant",
    "dense_norm_22",
    "exact_norm_22",
    "norm_bounds",
    "strong_norm_lower",
    "weak_norm_lower",
    # prooflab
    "ClassifiedDecomposition",
    "PrincipalForest",
    "ProofLabReport",
    "WhitneyDecomposition",
    "audit_decomposition",
    "carleson_of_principal",
    "classify_cubes",
    "corridor_sets",
    "geometric_sum_audit",
    "halving_chain",
    "max_principle_audit",
    "neighbor_sets",
    "occurrence_audit",
    "principal_cubes",
    "superlevel_maximal_cubes",
    "whitney_layers",
    # harness
    "ConfigError",
    "GeneratorConfig",
    "Instance",
    "SuiteConfig",
    "SuiteReport",
    "gen_instance",
    "instance_f",
    "rows_digest",
    "run_suite",
]
