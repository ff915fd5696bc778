"""Scores of a learned metric against the true one.

M depends on the weights only through eps w / 4S, so scaling every weight
by alpha is scaling eps by alpha.  The global scale of w is therefore
reported apart, as its geometric mean, and the shape is scored scale-free:
by graph distances whose edge length is h_a / sqrt(w_e) (Varadhan's
formula), and by the rank correlation of the log-weights axis by axis.
scipy is the oracle here; no otgrid code computes a score.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from scipy.stats import spearmanr

from otgrid.grids import GridSpec, axis_fields, edge_vertices, field_sizes


@dataclass(frozen=True)
class GeodesicScores:
    """Graph distances of a learned metric against the true one, over the
    pairs of a vertex set: the median learned/true ratio, the median
    relative error after dividing by it, and the Spearman correlation."""

    ratio: float
    error: float
    spearman: float


def scale(w) -> float:
    """The global scale of ``w``: its geometric mean."""
    return float(np.exp(np.log(w).mean()))


def geodesics(spec: GridSpec, w, vertices) -> np.ndarray:
    """Graph distances between every pair i < j of ``vertices``, with edge
    lengths h_a / sqrt(w_e), over the whole grid."""
    i, j = edge_vertices(spec)
    h = np.repeat([1.0 / (n - 1) for n in spec.dims], field_sizes(spec))
    n = spec.num_vertices
    graph = csr_matrix((h / np.sqrt(w), (i, j)), shape=(n, n))
    d = dijkstra(graph, directed=False, indices=vertices)[:, vertices]
    return d[np.triu_indices(len(vertices), 1)]


def geodesic_scores(spec: GridSpec, w, w_true, vertices) -> GeodesicScores:
    d, d_true = geodesics(spec, w, vertices), geodesics(spec, w_true, vertices)
    ratio = float(np.median(d / d_true))
    error = float(np.median(np.abs(d / ratio - d_true) / d_true))
    return GeodesicScores(ratio, error, float(spearmanr(d, d_true)[0]))


def axis_spearman(spec: GridSpec, w, w_true) -> list[float]:
    """The Spearman correlation of the log-weights with the true ones, per axis."""
    return [float(spearmanr(np.log(f).ravel(), np.log(f_true).ravel())[0])
            for f, f_true in zip(axis_fields(spec, w), axis_fields(spec, w_true))]
