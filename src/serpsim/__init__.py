"""Similarity analytics for ranked search-result lists.

The combined score rewards shared URLs, subtracts penalties for
diverging snippets, titles and rank order, then adds a bonus when the
same URL holds the same top position in both lists. Rank-only baselines
(Spearman footrule, Kendall tau, Jaro, Jaro-Winkler), URL
canonicalization, and batch analyses over whole crawls round it out.
"""

from .analysis import (
    ImpactReport,
    SerpDataset,
    consistency_series,
    cross_period_drift,
    impact_sweep,
    pair_summary,
    similarity_matrix,
)
from .combined import (
    PenaltyComponents,
    SimilarityBreakdown,
    combined_similarity,
    penalty_components,
    score_from_components,
)
from .dataset_io import (
    dumps_dataset,
    format_matrix,
    import_dataset,
    load_dataset,
    parse_matrix,
    read_matrix,
    write_dataset,
    write_matrix,
)
from .errors import (
    DatasetError,
    RedirectError,
    SerpSimError,
    UrlParseError,
    ValidationError,
)
from .model import (
    DEFAULT_BOOST_WEIGHTS,
    DEFAULT_CONFIG,
    MetricConfig,
    RankedList,
    SearchResult,
    SimilarityMatrix,
    validate_ranked_list,
)
from .rank_metrics import (
    RankAlignment,
    displacement_bound,
    jaro_sim,
    jaro_similarity,
    jaro_winkler_sim,
    jaro_winkler_similarity,
    kendall_tau_sim,
    max_total_displacement,
    spearman_footrule_sim,
    transposition_penalty,
)
from .textsim import (
    content_penalty,
    cosine_distance,
    default_stopwords,
    load_stopwords,
    tokenize,
)
from .urlnorm import RedirectCache, canonicalize, resolve_redirects

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BOOST_WEIGHTS",
    "DEFAULT_CONFIG",
    "DatasetError",
    "ImpactReport",
    "MetricConfig",
    "PenaltyComponents",
    "RankAlignment",
    "RankedList",
    "RedirectCache",
    "RedirectError",
    "SearchResult",
    "SerpDataset",
    "SerpSimError",
    "SimilarityBreakdown",
    "SimilarityMatrix",
    "UrlParseError",
    "ValidationError",
    "canonicalize",
    "combined_similarity",
    "consistency_series",
    "content_penalty",
    "cosine_distance",
    "cross_period_drift",
    "default_stopwords",
    "displacement_bound",
    "dumps_dataset",
    "format_matrix",
    "impact_sweep",
    "import_dataset",
    "jaro_sim",
    "jaro_similarity",
    "jaro_winkler_sim",
    "jaro_winkler_similarity",
    "kendall_tau_sim",
    "load_dataset",
    "load_stopwords",
    "max_total_displacement",
    "pair_summary",
    "parse_matrix",
    "penalty_components",
    "read_matrix",
    "resolve_redirects",
    "score_from_components",
    "similarity_matrix",
    "spearman_footrule_sim",
    "tokenize",
    "transposition_penalty",
    "validate_ranked_list",
    "write_dataset",
    "write_matrix",
]
