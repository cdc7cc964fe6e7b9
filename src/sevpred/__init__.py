"""sevpred: accident-severity prediction pipeline.

Mixed-type ingestion, Cramer's V feature selection, one-hot/standardize
preprocessing, a from-scratch autoencoder and class-weighted dense
classifier, and BER-centric evaluation with stratified cross-validation and
grid search.
"""

from .dataset import (
    ColumnKind,
    SchemaSpec,
    SyntheticSpec,
    Table,
    class_distribution,
    generate_synthetic,
    impute,
    ingest_csv,
    load_schema,
    summarize,
    write_csv,
)
from .association import (
    AssociationMatrix,
    ContingencyTable,
    SelectionReport,
    association_matrix,
    bin_numeric,
    build_contingency,
    chi_square,
    cramers_v,
    select_features,
)
from .preprocess import (
    FeatureMatrix,
    OneHotCodec,
    SplitIndices,
    Standardizer,
    assemble,
    fit_one_hot,
    fit_standardizer,
    load_feature_matrix,
    save_feature_matrix,
    stratified_split,
)
from .neural import (
    Dense,
    Dropout,
    NetworkSpec,
    OptimizerState,
    Parameters,
    adam_step,
    backward,
    forward,
    gradient_check,
    init_optimizer,
    init_params,
    load_model,
    loss_mse,
    loss_weighted_ce,
    save_model,
)
from .models import (
    AutoencoderConfig,
    ClassifierConfig,
    ClassWeights,
    build_autoencoder,
    build_classifier,
    compute_class_weights,
    encode,
    predict,
    train_autoencoder,
    train_classifier,
    weights_from_proportions,
)
from .evaluation import (
    ConfusionMatrix,
    CVResult,
    GridSpec,
    MetricsReport,
    accuracy,
    ber,
    confusion,
    cross_validate,
    grid_search,
    metrics_from_confusion,
    stratified_folds,
)
from .rng import derive_seed, make_rng

__version__ = "0.1.0"
