"""communifind: locate small sub-graphs hidden in large background graphs.

The signal is total communicability — the row sums of the adjacency-matrix
exponential, computed at scale by a Lanczos approximation — summed across
independent background realizations so that the persistent hidden structure
outweighs background fluctuations.  A spectral modularity baseline
is included for comparison.
"""

from .communicability import (
    ScoreKind,
    ScoreVector,
    accumulate,
    subgraph_centrality,
    summed_total_communicability,
    total_communicability,
    write_scores_csv,
)
from .expm import (
    ExpmResult,
    KrylovNotConvergedError,
    KrylovParams,
    NumericalBreakdownError,
    expm_action,
    expm_dense_oracle,
)
from .graphs import (
    EdgeListParseError,
    Graph,
    GraphGenSpec,
    TargetSpec,
    canonical_sparse_target,
    clique,
    density,
    disjoint_union,
    gen_barabasi_albert,
    gen_watts_strogatz,
    generate,
    is_connected,
    read_edge_list,
    write_edge_list,
)
from .identify import (
    Embedding,
    ExperimentConfig,
    PhaseSeconds,
    RateSummary,
    RunResult,
    apply_embedding,
    draw_embedding,
    identification_rate,
    run_pipeline,
    summarize_rates,
    top_k,
)
from .modularity import (
    EigenScan,
    FilterCoeffs,
    ModularityMatrix,
    baseline_candidates,
    eigen_l1_scores,
    modularity_matrix,
    run_baseline,
    temporal_filter,
    two_means_split,
)
from .rng import SeededRng, derive_seed

__version__ = "0.1.0"

__all__ = [
    "Embedding",
    "EigenScan",
    "EdgeListParseError",
    "ExperimentConfig",
    "ExpmResult",
    "FilterCoeffs",
    "Graph",
    "GraphGenSpec",
    "KrylovNotConvergedError",
    "KrylovParams",
    "ModularityMatrix",
    "NumericalBreakdownError",
    "PhaseSeconds",
    "RateSummary",
    "RunResult",
    "ScoreKind",
    "ScoreVector",
    "SeededRng",
    "TargetSpec",
    "accumulate",
    "apply_embedding",
    "baseline_candidates",
    "canonical_sparse_target",
    "clique",
    "density",
    "derive_seed",
    "disjoint_union",
    "draw_embedding",
    "eigen_l1_scores",
    "expm_action",
    "expm_dense_oracle",
    "gen_barabasi_albert",
    "gen_watts_strogatz",
    "generate",
    "identification_rate",
    "is_connected",
    "modularity_matrix",
    "read_edge_list",
    "run_baseline",
    "run_pipeline",
    "subgraph_centrality",
    "summed_total_communicability",
    "summarize_rates",
    "temporal_filter",
    "top_k",
    "total_communicability",
    "two_means_split",
    "write_edge_list",
    "write_scores_csv",
]
