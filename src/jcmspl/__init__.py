"""Joint concept matching-space projection learning for inductive
zero-shot recognition.

Visual features and class semantic embeddings are projected into a
shared concept space by two maps trained jointly with a per-sample
concept matrix; recognition runs in either direction by nearest
prototype matching.
"""

__version__ = "0.1.0"

from .archive import (
    DatasetFingerprint,
    ModelArchive,
    fingerprint_dataset,
    load_model,
    save_model,
)
from .dataset import (
    PlantedModel,
    SynthSpec,
    ZslDataset,
    expand_prototypes,
    load_manifest,
    normalize,
    save_manifest,
    synth_generate,
)
from .linalg import (
    SymmetricEigen,
    solve_spd,
    sylvester_oracle,
    sylvester_solve,
    sylvester_unique_check,
    symmetric_eigen,
)
from .recognizer import (
    EvalReport,
    classify,
    distance_matrix,
    eval_generalized,
    eval_hit_at_k,
    eval_standard,
    gzsl_holdout_indices,
    harmonic_mean,
    infer_semantic,
    infer_visual,
)
from .trainer import (
    ClassSpecificMatrix,
    Hyperparams,
    JcmsplModel,
    RidgeWarning,
    TrainingTrace,
    build_class_matrix,
    descent_constants,
    fit,
    fpl_fit,
    loss,
    loss_gradients,
    update_A,
    update_B,
    update_C,
    write_trace_csv,
)

__all__ = [
    "__version__",
    "ClassSpecificMatrix",
    "DatasetFingerprint",
    "EvalReport",
    "Hyperparams",
    "JcmsplModel",
    "ModelArchive",
    "PlantedModel",
    "RidgeWarning",
    "SymmetricEigen",
    "SynthSpec",
    "TrainingTrace",
    "ZslDataset",
    "build_class_matrix",
    "classify",
    "descent_constants",
    "distance_matrix",
    "eval_generalized",
    "eval_hit_at_k",
    "eval_standard",
    "expand_prototypes",
    "fingerprint_dataset",
    "fit",
    "fpl_fit",
    "gzsl_holdout_indices",
    "harmonic_mean",
    "infer_semantic",
    "infer_visual",
    "load_manifest",
    "load_model",
    "loss",
    "loss_gradients",
    "normalize",
    "save_manifest",
    "save_model",
    "solve_spd",
    "sylvester_oracle",
    "sylvester_solve",
    "sylvester_unique_check",
    "symmetric_eigen",
    "synth_generate",
    "update_A",
    "update_B",
    "update_C",
    "write_trace_csv",
]
