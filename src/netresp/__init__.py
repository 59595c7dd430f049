"""Multi-scale network features and subspace-kernel SVMs for
medication-response prediction, verified on synthetic cohorts."""

from .datamodel import (
    Dataset,
    Subject,
    SubjectFeatures,
    Template,
    load_dataset,
    read_matrix,
    write_dataset,
    write_matrix,
)
from .evaluation import (
    EvalConfig,
    ExperimentReport,
    average_precision,
    f1_macro,
    macro_pr_auc,
    permutation_baseline,
    run_experiment,
    stratified_kfold,
)
from .fnc import compute_fnc, detrend, fisher_z
from .kernels import (
    KernelMatrix,
    PabsKernelParams,
    SubspaceFactors,
    apply_spectrum_fix,
    build_kernel_matrix,
    subspace_factors,
)
from .scica import (
    ScicaConfig,
    WhitenedData,
    constrained_unit_update,
    extract_cohort,
    extract_subject,
    preprocess_subject,
)
from .selection import SelectionResult, SsfsConfig, score_feature_set, ssfs
from .svm import (
    SmoSolution,
    SvmConfig,
    decision_values,
    predict_labels,
    predict_scores,
    solve_binary_smo,
    solve_smo_arrays,
    train_multiclass,
)
from .synth import GroundTruth, SynthConfig, generate_cohort, generate_template

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EvalConfig",
    "ExperimentReport",
    "GroundTruth",
    "KernelMatrix",
    "PabsKernelParams",
    "ScicaConfig",
    "SelectionResult",
    "SmoSolution",
    "SsfsConfig",
    "Subject",
    "SubjectFeatures",
    "SubspaceFactors",
    "SvmConfig",
    "SynthConfig",
    "Template",
    "WhitenedData",
    "apply_spectrum_fix",
    "average_precision",
    "build_kernel_matrix",
    "compute_fnc",
    "constrained_unit_update",
    "decision_values",
    "detrend",
    "extract_cohort",
    "extract_subject",
    "f1_macro",
    "fisher_z",
    "generate_cohort",
    "generate_template",
    "load_dataset",
    "macro_pr_auc",
    "permutation_baseline",
    "predict_labels",
    "predict_scores",
    "preprocess_subject",
    "read_matrix",
    "run_experiment",
    "score_feature_set",
    "solve_binary_smo",
    "subspace_factors",
    "solve_smo_arrays",
    "ssfs",
    "stratified_kfold",
    "train_multiclass",
    "write_dataset",
    "write_matrix",
]
