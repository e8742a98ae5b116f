"""Matrix-free total-variation toolkit for image inverse problems:
denoising, deconvolution (blind and non-blind), LASSO restoration, and
variational optical flow, with netpbm/.flo/CSV plumbing and a batch CLI.
"""

from .flow import (
    FlowParams,
    FlowVariant,
    FramePair,
    endpoint_error,
    estimate_flow,
    flow_image_driven,
    flow_tv,
)
from .functionals import (
    DEFAULT_ALPHA,
    TVVariant,
    tv_anisotropic,
    tv_gradient,
    tv_isotropic,
    tv_objective,
)
from .grid import Kernel, VectorField, convolve, convolve_adjoint, divergence, gradient
from .restore import (
    BlindParams,
    DegenerateKernelError,
    RestoreParams,
    blind_deconvolve,
    gtr_estimate,
    lasso_estimate,
    ls_estimate,
    psnr,
    rls_estimate,
    tv_deconvolve,
    tv_denoise,
)
from .solvers import (
    SolveReport,
    SolverConfig,
    SolverDivergenceError,
    conjugate_gradient,
    dual_projection_denoise,
    tv_restore_fixed_point,
)

__version__ = "0.1.0"

__all__ = [
    "Kernel",
    "VectorField",
    "convolve",
    "convolve_adjoint",
    "divergence",
    "gradient",
    "DEFAULT_ALPHA",
    "TVVariant",
    "tv_anisotropic",
    "tv_gradient",
    "tv_isotropic",
    "tv_objective",
    "SolveReport",
    "SolverConfig",
    "SolverDivergenceError",
    "conjugate_gradient",
    "dual_projection_denoise",
    "tv_restore_fixed_point",
    "BlindParams",
    "DegenerateKernelError",
    "RestoreParams",
    "blind_deconvolve",
    "gtr_estimate",
    "lasso_estimate",
    "ls_estimate",
    "psnr",
    "rls_estimate",
    "tv_deconvolve",
    "tv_denoise",
    "FlowParams",
    "FlowVariant",
    "FramePair",
    "endpoint_error",
    "estimate_flow",
    "flow_image_driven",
    "flow_tv",
    "__version__",
]
