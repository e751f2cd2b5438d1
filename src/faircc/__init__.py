"""Fair correlation clustering on signed complete graphs.

Fairlet construction via exact min-cost b-matching, randomized pivot
clustering, the standard comparison baselines, and brute-force oracles for
verifying the approximation bounds on small instances.
"""

from .baselines import run_cc, run_ccmerge, run_ufaircc, run_wmatch
from .bmatching import BMatching, BMatchingInstance, solve
from .errors import (
    FairCCError,
    InfeasibleSpecError,
    InvalidInputError,
    OracleLimitError,
    ParseError,
)
from .fair_clustering import (
    approximation_budget,
    fair_cc,
    matching_weight_bound_check,
    pair_cost,
)
from .ingest import (
    Schema,
    SimilarityConfig,
    TabularDataset,
    build_graph,
    load_csv,
    sample,
)
from .model import (
    Clustering,
    ColorAssignment,
    FairnessReport,
    FairnessSpec,
    SignedCompleteGraph,
    agreements,
    check_fairness,
    color_distribution,
    disagreements,
)
from .oracle import OracleLimit, mirror_graph, opt_bmatching, opt_cc, opt_fair
from .pivot import PivotRun, best_of_restarts, pivot_cluster

__version__ = "0.1.0"
