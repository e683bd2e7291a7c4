"""Large-alphabet source coding via transforms toward independent bits."""

from .distributions import (
    JointDistribution,
    MarginalProfile,
    SymbolPermutation,
    binary_entropy,
    joint_entropy,
    marginals,
    total_correlation,
)
from .search import (
    PiecewiseLinearEnvelope,
    SearchResult,
    block_bica,
    brute_force_optimum,
    build_envelope,
    order_permutation,
    piecewise_relaxation,
)
from .bounds import (
    RedundancyRegime,
    expected_joint_entropy,
    expected_marginal_bound,
    identity_gap_limit,
    minimax_redundancy,
    ordered_gap_bound,
    pattern_dictionary_cost,
    standard_redundancy,
    worst_case_gap,
    worst_case_source,
)
from .coding import (
    BitCost,
    BlockPartition,
    CanonicalCodebook,
    ContainerError,
    MarginalEncoding,
    PrefixCode,
    arithmetic_decode,
    arithmetic_encode,
    canonicalize,
    huffman_build,
    marginal_decode,
    marginal_encode,
)
from .sources import SourceSpec, sample, zipf_distribution
from .universal import Baselines, DescentResult, baseline_costs, descend, total_cost_curve
from .vq import Lattice, QuantizerState, bica_ecvq_fit, ecvq_fit, gaussian_rd, lattice_quantize

__version__ = "0.1.0"
