"""Numerical frame analysis on weighted grids.

The package studies tensor families of coefficient functionals over a
discretized weighted space: when the node weights are pinched between
positive bounds the family is a frame (indeed a Riesz basis), when the
weight is identically one it is an orthonormal basis, and when the weight
dips the package produces an explicit witness field.  Two application
front ends reduce integer-translate systems and dilated center-translate
systems to the same weight picture, and a small CLI drives everything
from JSON configs.
"""

from .analyzer import (
    FrameReport,
    Verdict,
    classify,
    decide_frame,
    decide_onb,
    synthesis_gram,
    weight_bounds,
    witness_lower_failure,
    witness_ratio,
)
from .errors import ConsistencyError, TruncationError
from .operators import (
    OperatorFamily,
    bessel_excess,
    frame_spectrum,
    lambda_all,
    lambda_tilde,
    parseval_residual,
)
from .tensor_onb import TensorBasis, build_default, tensor_field
from .wspace import Field, WeightedSpace, inner, norm, random_field, total_mass

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "TruncationError",
    "WeightedSpace",
    "Field",
    "inner",
    "norm",
    "total_mass",
    "random_field",
    "TensorBasis",
    "build_default",
    "tensor_field",
    "OperatorFamily",
    "lambda_tilde",
    "lambda_all",
    "frame_spectrum",
    "parseval_residual",
    "bessel_excess",
    "Verdict",
    "FrameReport",
    "weight_bounds",
    "synthesis_gram",
    "witness_ratio",
    "witness_lower_failure",
    "decide_frame",
    "decide_onb",
    "classify",
    "__version__",
]
