"""Brain-cognition fingerprinting from connectivity graphs.

A graph-attention encoder is trained jointly with generalized canonical
correlation analysis and two contrastive objectives to embed each visit's
brain network and cognitive scores into a shared space. The package also
ships the linear baselines (PCA-CCA, ICA-CCA, single-modality) and the
evaluation stack (similarity fingerprinting, MLP classification, exact
Shapley attribution) used to validate the fingerprints.
"""

__version__ = "0.1.0"

from .contrastive import (
    BatchIndex,
    ContrastiveConfig,
    individualized_loss,
    multimodal_loss,
)
from .encoder import (
    ConnectivityGraph,
    EncoderParams,
    GraphEmbedding,
    build_graph,
    encode_graph,
    encode_graph_vjp,
    gat_layer,
)
from .gcca import (
    Fingerprint,
    GccaSolution,
    PreprocessStats,
    ViewMatrix,
    corr_grad_brain,
    corr_loss,
    preprocess_views,
    project_fingerprint,
    solve_gcca,
)
from .numerics import (
    AdamState,
    EigenDecomposition,
    MannWhitneyResult,
    adam_step,
    mann_whitney_u,
    pearson,
    sym_eig,
    wasserstein_1d,
)
from .pipeline import (
    DeadVisitError,
    NonFiniteLossError,
    TrainConfig,
    TrainedModel,
    compute_fingerprints,
    cross_validate,
    make_subject_folds,
    train_model,
)

__all__ = [
    "AdamState",
    "BatchIndex",
    "ConnectivityGraph",
    "ContrastiveConfig",
    "DeadVisitError",
    "EigenDecomposition",
    "EncoderParams",
    "Fingerprint",
    "GccaSolution",
    "GraphEmbedding",
    "MannWhitneyResult",
    "NonFiniteLossError",
    "PreprocessStats",
    "TrainConfig",
    "TrainedModel",
    "ViewMatrix",
    "adam_step",
    "build_graph",
    "compute_fingerprints",
    "corr_grad_brain",
    "corr_loss",
    "cross_validate",
    "encode_graph",
    "encode_graph_vjp",
    "gat_layer",
    "individualized_loss",
    "make_subject_folds",
    "mann_whitney_u",
    "multimodal_loss",
    "pearson",
    "preprocess_views",
    "project_fingerprint",
    "solve_gcca",
    "sym_eig",
    "train_model",
    "wasserstein_1d",
]
