"""Rank-1 lattice quadrature with tent-transformed and symmetrized rules.

The package builds lattice point sets, evaluates reproducing kernels for
four weighted function-space families, computes worst-case errors by
kernel double sums and by closed forms, constructs generating vectors
component by component, and runs convergence studies on two families of
test integrands.
"""
from .bench import (
    ConvergenceRecord,
    TestFunction,
    converge_study,
    fit_slope,
    integrate,
    records_to_csv,
)
from .cbc import CbcResult, candidate_set, cbc_construct
from .kernels import (
    DEFAULT_POLICY,
    FAMILIES,
    QuadratureAccuracyError,
    SpaceSpec,
    TruncationBudgetError,
    TruncationPolicy,
    bernoulli_poly,
    cosine_coeff,
    fourier_coeff,
    kernel_factor,
    korobov_omega,
    series_kmax,
    series_tail_bound,
    zeta,
)
from .points import (
    VARIANTS,
    LatticeRule,
    WeightedPointSet,
    dual_lattice,
    lattice_points,
    node_set,
    read_vector_file,
    symmetrize,
    symmetrized_node_count,
    tent,
    tent_transform,
    write_vector_file,
)
from .wce import (
    MAX_DOUBLE_SUM_NODES,
    WceMethod,
    WceResult,
    cbc_bound_constant,
    wce_cosine_sym,
    wce_cosine_tent,
    wce_double_sum,
    wce_korcos_sym,
    wce_korobov_lattice,
)

__all__ = [
    "ConvergenceRecord",
    "TestFunction",
    "converge_study",
    "fit_slope",
    "integrate",
    "records_to_csv",
    "CbcResult",
    "candidate_set",
    "cbc_construct",
    "DEFAULT_POLICY",
    "FAMILIES",
    "QuadratureAccuracyError",
    "SpaceSpec",
    "TruncationBudgetError",
    "TruncationPolicy",
    "bernoulli_poly",
    "cosine_coeff",
    "fourier_coeff",
    "kernel_factor",
    "korobov_omega",
    "series_kmax",
    "series_tail_bound",
    "zeta",
    "VARIANTS",
    "LatticeRule",
    "WeightedPointSet",
    "dual_lattice",
    "lattice_points",
    "node_set",
    "read_vector_file",
    "symmetrize",
    "symmetrized_node_count",
    "tent",
    "tent_transform",
    "write_vector_file",
    "MAX_DOUBLE_SUM_NODES",
    "WceMethod",
    "WceResult",
    "cbc_bound_constant",
    "wce_cosine_sym",
    "wce_cosine_tent",
    "wce_double_sum",
    "wce_korcos_sym",
    "wce_korobov_lattice",
]

__version__ = "0.1.0"
