"""The paper's contribution: nonzero Voronoi diagrams, NN!=0 indexes,
and quantification-probability structures."""

from .baselines import BranchAndPruneIndex, LinearScanIndex
from .census import CensusResult, Vertex, nonzero_voronoi_census
from .continuous_quant import (
    continuous_quantification,
    continuous_quantification_all,
    continuous_quantification_many,
)
from .discrete_voronoi import (
    DiscreteNonzeroVoronoi,
    discrete_gamma_census,
    gamma_polygon_edges,
    k_cell,
)
from .dual_tree import (
    DualTreeCandidates,
    EnvelopeObjectTree,
    dual_tree_candidates,
)
from .expected_nn import ExpectedNNIndex, disagreement_rate
from .gamma import GammaCurve, disks_of, gamma_curves
from .guaranteed import (
    guaranteed_area_estimate,
    guaranteed_owner,
    is_guaranteed,
)
from .knn import (
    expected_knn,
    expected_knn_many,
    knn_probabilities,
    monte_carlo_knn,
    monte_carlo_knn_many,
)
from .monte_carlo import (
    MonteCarloPNN,
    rounds_for_all_queries,
    rounds_for_fixed_query,
)
from .nonzero import UncertainSet, brute_force_nonzero, nonzero_from_matrices
from .parallel import map_ordered, map_tiles, tile_ranges
from .planner import QueryPlanner
from .quant_index import (
    ApproxNN,
    ApproxSets,
    ApproxThreshold,
    QuantizedEnvelopeIndex,
)
from .nonzero_index import (
    DiscreteTwoStageIndex,
    DiskNonzeroIndex,
    GenericNonzeroIndex,
)
from .nonzero_voronoi import NonzeroVoronoiDiagram
from .prob_voronoi import ProbabilisticVoronoiDiagram
from .quantification import (
    nonzero_quantifications,
    quantification_naive,
    quantification_probabilities,
    sweep_quantification,
)
from .rectilinear import (
    ChebyshevNonzeroIndex,
    ManhattanNonzeroIndex,
    chebyshev_nonzero_nn,
    manhattan_nonzero_nn,
)
from .threshold import (
    ApproxThresholdIndex,
    ThresholdAnswer,
    threshold_nn_exact,
    threshold_nn_exact_many,
    topk_probable_nn_exact,
)
from .spiral import (
    SpiralSearchPNN,
    adversarial_instance,
    retrieval_size,
    spread,
    weight_threshold_estimate,
)
from .subdivision_index import PersistentNonzeroIndex

__all__ = [
    "ApproxNN",
    "DualTreeCandidates",
    "EnvelopeObjectTree",
    "dual_tree_candidates",
    "map_ordered",
    "ApproxSets",
    "ApproxThreshold",
    "ApproxThresholdIndex",
    "BranchAndPruneIndex",
    "CensusResult",
    "ChebyshevNonzeroIndex",
    "ManhattanNonzeroIndex",
    "ThresholdAnswer",
    "chebyshev_nonzero_nn",
    "manhattan_nonzero_nn",
    "threshold_nn_exact",
    "topk_probable_nn_exact",
    "DiscreteNonzeroVoronoi",
    "DiscreteTwoStageIndex",
    "DiskNonzeroIndex",
    "ExpectedNNIndex",
    "GammaCurve",
    "GenericNonzeroIndex",
    "LinearScanIndex",
    "MonteCarloPNN",
    "NonzeroVoronoiDiagram",
    "PersistentNonzeroIndex",
    "ProbabilisticVoronoiDiagram",
    "QuantizedEnvelopeIndex",
    "QueryPlanner",
    "map_tiles",
    "nonzero_from_matrices",
    "tile_ranges",
    "SpiralSearchPNN",
    "UncertainSet",
    "Vertex",
    "adversarial_instance",
    "brute_force_nonzero",
    "continuous_quantification",
    "continuous_quantification_all",
    "continuous_quantification_many",
    "disagreement_rate",
    "discrete_gamma_census",
    "disks_of",
    "expected_knn",
    "expected_knn_many",
    "gamma_curves",
    "knn_probabilities",
    "monte_carlo_knn",
    "monte_carlo_knn_many",
    "gamma_polygon_edges",
    "guaranteed_area_estimate",
    "guaranteed_owner",
    "is_guaranteed",
    "k_cell",
    "nonzero_quantifications",
    "nonzero_voronoi_census",
    "quantification_naive",
    "quantification_probabilities",
    "retrieval_size",
    "rounds_for_all_queries",
    "rounds_for_fixed_query",
    "spread",
    "sweep_quantification",
    "threshold_nn_exact_many",
    "weight_threshold_estimate",
]
