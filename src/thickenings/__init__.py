"""Exact lengths of local cohomology modules of determinantal thickenings.

For the polynomial ring R on a 2 x m matrix of variables and the ideal I of
its 2 x 2 minors, the length of H^3_m(R/I^t) is computed two ways: a closed
product of binomials, and a representation-theoretic decomposition summing
exact Schur functor dimensions. Brute-force oracles (tableau counting,
bounded exhaustive search) back every formula.
"""

from .closed_forms import (
    asymptotic_multiplicity,
    binom,
    catalan,
    cumulative_length,
    identity_holds,
    identity_lhs,
    identity_rhs,
    layer_length_closed,
    telescoping_holds,
)
from .cohomology import (
    dual_index,
    local_cohomology_length,
    nonvanishing_indices,
)
from .filtration import (
    FiltrationIndex,
    LayerSummand,
    contributing_weights,
    cumulative_length_via_decomposition,
    degree_parameters,
    filtration_indices,
    layer_summands,
    paired_weight,
)
from .partitions import DominantWeight, Partition
from .schur import schur_dim, ssyt_count, tensor_pair_dim, weyl_dim

__version__ = "0.1.0"

__all__ = [
    "DominantWeight",
    "FiltrationIndex",
    "LayerSummand",
    "Partition",
    "asymptotic_multiplicity",
    "binom",
    "catalan",
    "contributing_weights",
    "cumulative_length",
    "cumulative_length_via_decomposition",
    "degree_parameters",
    "dual_index",
    "filtration_indices",
    "identity_holds",
    "identity_lhs",
    "identity_rhs",
    "layer_length_closed",
    "layer_summands",
    "local_cohomology_length",
    "nonvanishing_indices",
    "paired_weight",
    "schur_dim",
    "ssyt_count",
    "telescoping_holds",
    "tensor_pair_dim",
    "weyl_dim",
]
