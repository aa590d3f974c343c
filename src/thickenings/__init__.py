"""Exact lengths of local cohomology modules of determinantal thickenings.

For the polynomial ring R on a 2 x m matrix of variables and the ideal I of
its 2 x 2 minors, the length of H^3_m(R/I^t) is computed two ways: a closed
product of binomials, and a representation-theoretic decomposition summing
exact Schur functor dimensions. Brute-force oracles (tableau counting,
bounded exhaustive search) back every formula.

The namespace holds each route's and the oracle's entry points, the paper's
invariant and the two weight types; all else imports from its submodule.
"""

from .closed_forms import asymptotic_multiplicity, cumulative_length, layer_length_closed
from .cohomology import local_cohomology_length
from .filtration import cumulative_length_via_decomposition, layer_summands
from .partitions import DominantWeight, Partition
from .schur import ssyt_count, weyl_dim

__version__ = "0.1.0"

__all__ = [
    "DominantWeight",
    "Partition",
    "asymptotic_multiplicity",
    "cumulative_length",
    "cumulative_length_via_decomposition",
    "layer_length_closed",
    "layer_summands",
    "local_cohomology_length",
    "ssyt_count",
    "weyl_dim",
]
