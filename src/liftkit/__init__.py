"""Matrix-free solvers for lifted bilinear and quadratic inverse problems."""

import os as _os

if "LIFTKIT_THREADS" in _os.environ:
    # must happen before numpy initializes its BLAS thread pools
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["LIFTKIT_THREADS"])

from .errors import (
    ConfigError,
    EngineError,
    MetricSolveError,
    NoSolutionError,
    NumericalError,
)
from .lowrank import FactoredTensor, HermitianFactored
from .metric import (
    EuclideanMetric,
    Metric,
    ReweightedMetric,
    SobolevMetric,
    SobolevStencil,
    orthonormalize,
)
from .operators import (
    BilinearMap,
    QuadraticMap,
    adjoint_metric_transform,
    composed_hermitian_action,
    composed_left_action,
    composed_right_action,
    lifted_apply,
    lifted_apply_quadratic,
    operator_norm,
    reweighted_composed_hermitian,
    reweighted_composed_left,
    reweighted_composed_right,
)
from .partial_svd import (
    ActionOracle,
    BidiagonalSystem,
    LanczosFactorization,
    PartialSVD,
    augmented_restart,
    estimate_operator_norm,
    lanczos_bidiagonalize,
    ritz_factorize,
    subspace_iterate,
)
from .phase_retrieval import (
    MaskedFourierBilinear,
    MaskedFourierMap,
    MaskSet,
    PRProblem,
    add_noise,
    coverage_map,
    default_metric,
    error_up_to_phase,
    forward,
    make_gaussian_masks,
    make_rademacher_masks,
    recover,
    sym_adjoint_action,
    synthetic_image,
)
from .solver import (
    Fidelity,
    IterationRecord,
    ReweightSettings,
    SolverConfig,
    SolverResult,
    SolverState,
    dual_step,
    primal_step,
    reweight_step,
    run_forward_backward,
    run_primal_dual,
)
from .thresholding import ThresholdConfig, evt, shrink, soft, soft_plus, svt

__version__ = "0.1.0"
