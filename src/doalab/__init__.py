"""Multi-target direction-of-arrival estimation on uniform linear arrays.

The package provides subspace estimators (MUSIC and eigenvalue-weighted
MUSIC), greedy sparse estimators (OMP and OLS over the square-root sample
covariance), greedy iterative-MUSIC estimators that reuse a single
eigendecomposition across iterations, an FFT-accelerated grid evaluator,
model-order selection, association/detection metrics, and a seeded Monte
Carlo benchmark harness with a CSV-emitting command line front end.

Attributes are resolved lazily so that ``import doalab`` stays cheap and the
command line entry point can configure BLAS threading before numpy loads.
"""

import os
from importlib import import_module

__version__ = "0.1.0"

# Thread-count variables of the BLAS and OpenMP runtimes numpy may load.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_blas_threads() -> None:
    """Set each of BLAS_THREAD_VARS to 1 unless it is already set.

    The runtimes read these once, when numpy loads, so the pin holds for
    processes started afterwards and for this one only if numpy has not been
    imported yet; a loaded BLAS keeps its thread count (threadpoolctl, which
    could change it at run time, is not a dependency).
    """
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")

# public name -> defining submodule
_EXPORTS = {
    # linalg
    "hermitian_evd": "doalab.linalg",
    "evd_call_count": "doalab.linalg",
    # scenario
    "ScenarioConfig": "doalab.scenario",
    "GroundTruth": "doalab.scenario",
    "Observation": "doalab.scenario",
    "steering_matrix": "doalab.scenario",
    "draw_targets": "doalab.scenario",
    "synthesize_observation": "doalab.scenario",
    "coefficient_gram": "doalab.scenario",
    "draw_covariance": "doalab.scenario",
    "trial_rng": "doalab.scenario",
    # fastgrid
    "DoaGrid": "doalab.fastgrid",
    "Pseudospectrum": "doalab.fastgrid",
    "make_grid": "doalab.fastgrid",
    # subspace
    "SubspaceDecomposition": "doalab.subspace",
    "sample_covariance": "doalab.subspace",
    "partition": "doalab.subspace",
    # greedy
    "GreedyState": "doalab.greedy",
    "greedy_objective": "doalab.greedy",
    "greedy_update": "doalab.greedy",
    # order
    "OrderEstimate": "doalab.order",
    "aic_rank": "doalab.order",
    "hybrid_order": "doalab.order",
    # metrics
    "AssociationResult": "doalab.metrics",
    "DetectionMetrics": "doalab.metrics",
    "DiagnosticMetrics": "doalab.metrics",
    "associate": "doalab.metrics",
    "detection_metrics": "doalab.metrics",
    "rmse_common_hits": "doalab.metrics",
    "diagonality_score": "doalab.metrics",
    "diagnostics": "doalab.metrics",
    # methods / bench
    "METHOD_IDS": "doalab.methods",
    "estimate_method": "doalab.methods",
    "pseudospectrum": "doalab.methods",
    "SweepSpec": "doalab.bench",
    "ResultRow": "doalab.bench",
    "TrialResult": "doalab.bench",
    "run_trial": "doalab.bench",
    "run_sweep": "doalab.bench",
    "emit_csv": "doalab.bench",
    "load_results": "doalab.bench",
    "ConfigError": "doalab.config",
    "parse_config": "doalab.config",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'doalab' has no attribute {name!r}") from None
    return getattr(import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
