"""Decision trees and random forests with noise-robust, loss-derived criteria."""

from .criteria import (
    CdfSpec,
    ClassHistogram,
    CriterionSpec,
    WeightedImpurity,
    distribution_loss,
    impurity,
    lambda_from_mu,
    mu_from_lambda,
    optimal_constant_prediction,
    risk_reduction,
    split_scores,
    twoing_score,
)
from .dataeng import (
    Dataset,
    ExperimentConfig,
    ModelConfig,
    ResultRecord,
    aggregate,
    apply_label_map,
    evaluate,
    load_csv,
    load_csv_features,
    load_libsvm,
    train_test_split,
    tune_lambda,
)
from .errors import EmptyHistogramError, PartitionError
from .forest import (
    Forest,
    ForestParams,
    fit_forest,
    forest_from_dict,
    forest_to_dict,
    load_forest,
    predict_forest,
    predict_forest_batch,
    save_forest,
)
from .noise import (
    NoiseSpec,
    TransitionMatrix,
    binary_cc_matrix,
    corrupt,
    hoeffding_bound,
    mahalanobis_matrix,
    majority_preservation_mc,
    uniform_matrix,
)
from .oracle import (
    EarlyStopReport,
    GridSpec,
    brute_force_impurity,
    brute_force_minimizer,
    exhaustive_early_stop_check,
)
from .tree import (
    Tree,
    TreeParams,
    fit,
    load_tree,
    predict,
    predict_batch,
    save_tree,
    tree_from_dict,
    tree_stats,
    tree_to_dict,
)

__version__ = "0.1.0"
