"""srdkit: sum-of-ranking-differences scoring, validation, and charts.

Solutions (table columns) are compared with a reference column by ranking
every column and measuring L1 rank distance.  Scores are validated two
ways: against the distribution of random rankings (permutation test with
XX1/XX19 thresholds) and by cross-validation with pairwise statistical
tests between consecutively ranked solutions.
"""

from .core import (
    DataTable,
    PairwiseMatrix,
    RankMatrix,
    SrdDetail,
    SrdError,
    SrdResult,
    detailed_srd,
    fractional_ranks,
    from_columns,
    max_srd,
    pairwise_srd,
    rank_matrix,
    srd_values,
    tie_probability,
    transpose,
)
from .crossval import (
    CrossValReport,
    FoldScheme,
    PairTestResult,
    alpaydin_pair_test,
    cross_validate,
    crossval_srd,
    dietterich_pair_test,
    evaluate_folds,
    make_folds,
    wilcoxon_pair_test,
)
from .datasets import load_bundesliga, load_mep
from .distribution import (
    CrrnVerdict,
    SrdDistribution,
    Thresholds,
    classify,
    exact_distribution,
    extract_thresholds,
    generate_distribution,
    random_tied_ranking,
)
from .plot import (
    DEFAULT_PALETTE,
    ChartDocument,
    Palette,
    plot_crossval,
    plot_heatmap,
    plot_perm_test,
)
from .preprocess import ReferenceSpec, create_reference, preprocess_table
from .tableio import read_replay, read_table, write_chart_files

__version__ = "0.1.0"

__all__ = [
    "DataTable", "PairwiseMatrix", "RankMatrix", "SrdDetail", "SrdError", "SrdResult",
    "detailed_srd", "fractional_ranks", "from_columns", "max_srd", "pairwise_srd",
    "rank_matrix", "srd_values", "tie_probability", "transpose",
    "CrossValReport", "FoldScheme", "PairTestResult", "alpaydin_pair_test",
    "cross_validate", "crossval_srd", "dietterich_pair_test",
    "evaluate_folds", "make_folds", "wilcoxon_pair_test",
    "load_bundesliga", "load_mep",
    "CrrnVerdict", "SrdDistribution", "Thresholds", "classify",
    "exact_distribution", "extract_thresholds", "generate_distribution",
    "random_tied_ranking",
    "DEFAULT_PALETTE", "ChartDocument", "Palette",
    "plot_crossval", "plot_heatmap", "plot_perm_test",
    "ReferenceSpec", "create_reference", "preprocess_table",
    "read_replay", "read_table", "write_chart_files",
    "__version__",
]
