"""Ground-metric learning for optimal transport on grid graphs.

Histogram sequences are modeled as entropy-regularized Wasserstein
interpolations whose ground metric comes from edge weights on the grid;
the weights are recovered by differentiating through the Sinkhorn
iteration and its heat-kernel inner loop.
"""

from .barycenter import (
    DegeneracyWarning,
    barycenter,
    barycenter_backward,
    interpolate,
    regularized_ot_value,
    sinkhorn_scalings,
)
from .diffusion import DiffusionOperator, assemble
from .grids import (
    GridSpec,
    build_laplacian,
    constant_weights,
    edge_count,
    load_weights,
    parallel_difference,
    parallel_neighbors,
    save_weights,
)
from .lbfgs import LbfgsOptions, MinimizeResult, minimize
from .objective import (
    Objective,
    Sequence,
    evaluate_with_grad,
    load_sequence,
    save_sequence,
)
from .tensorio import (
    ConfigError,
    RunConfig,
    TensorFormatError,
    parse_config,
    read_config,
    read_tensor,
    write_tensor,
)

__all__ = [
    "DegeneracyWarning",
    "DiffusionOperator",
    "GridSpec",
    "LbfgsOptions",
    "MinimizeResult",
    "Objective",
    "RunConfig",
    "Sequence",
    "ConfigError",
    "TensorFormatError",
    "assemble",
    "barycenter",
    "barycenter_backward",
    "build_laplacian",
    "constant_weights",
    "edge_count",
    "evaluate_with_grad",
    "interpolate",
    "load_sequence",
    "load_weights",
    "minimize",
    "parallel_difference",
    "parallel_neighbors",
    "parse_config",
    "read_config",
    "read_tensor",
    "regularized_ot_value",
    "save_sequence",
    "save_weights",
    "sinkhorn_scalings",
    "write_tensor",
]

__version__ = "0.1.0"
