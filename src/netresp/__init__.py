"""Multi-scale network features and subspace-kernel SVMs for
medication-response prediction, verified on synthetic cohorts.

The package exports the calls of the README's library example; every other
name is imported from its module, such as `netresp.svm.solve_smo_arrays`.
"""

from .evaluation import EvalConfig, run_experiment
from .fnc import compute_fnc
from .kernels import PabsKernelParams
from .scica import ScicaConfig, extract_subject
from .selection import SsfsConfig, ssfs
from .svm import SvmConfig
from .synth import SynthConfig, make_subject, plan_cohort

__version__ = "0.1.0"

__all__ = [
    "EvalConfig", "PabsKernelParams", "ScicaConfig", "SsfsConfig", "SvmConfig",
    "SynthConfig", "compute_fnc", "extract_subject", "make_subject", "plan_cohort",
    "run_experiment", "ssfs",
]
