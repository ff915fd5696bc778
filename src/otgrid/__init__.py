"""Ground-metric learning for optimal transport on grid graphs.

Histogram sequences are modeled as entropy-regularized Wasserstein
interpolations whose ground metric comes from edge weights on the grid;
the weights are recovered by differentiating through the Sinkhorn
iteration and its heat-kernel inner loop.
"""

__version__ = "0.1.0"
