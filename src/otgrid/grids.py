"""Cartesian grid graphs with one edge-weight field per axis.

Layout conventions used by every module in this package:

* Vertices of a grid with vertex counts ``dims = (n_1, ..., n_d)`` are
  numbered row-major (C order), so vertex ``(i_1, ..., i_d)`` has linear
  index ``np.ravel_multi_index``.
* Axis ``a`` owns the edges that connect ``(..., i_a, ...)`` to
  ``(..., i_a + 1, ...)``.  Its weight field has shape ``dims`` with axis
  ``a`` reduced by one, stored row-major.
* A flat weight vector is the concatenation of the axis fields in axis
  order.  In 2-D, axis 0 is "vertical" (row-to-row edges) and axis 1 is
  "horizontal" (column-to-column edges).

Gradients, file formats and the CLI all depend on this ordering; do not
change it without versioning the on-disk format.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import tensorio


@dataclass(frozen=True)
class GridSpec:
    """A d-dimensional grid of vertices, ``dims[a]`` vertices per axis."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) < 1:
            raise ValueError("grid needs at least one axis")
        if any(int(n) < 2 for n in self.dims):
            raise ValueError("every axis needs at least 2 vertices, got %r" % (self.dims,))
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def num_vertices(self) -> int:
        return math.prod(self.dims)


def field_shape(spec: GridSpec, axis: int) -> tuple[int, ...]:
    """Shape of the axis-``axis`` edge-weight field."""
    shape = list(spec.dims)
    shape[axis] -= 1
    return tuple(shape)


def field_sizes(spec: GridSpec) -> list[int]:
    return [int(np.prod(field_shape(spec, a))) for a in range(spec.d)]


def field_slices(spec: GridSpec) -> list[slice]:
    """Slices of each axis field inside the flat weight vector."""
    sizes = field_sizes(spec)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return [slice(int(offsets[a]), int(offsets[a + 1])) for a in range(spec.d)]


def edge_count(spec: GridSpec) -> int:
    return sum(field_sizes(spec))


def axis_fields(spec: GridSpec, w: np.ndarray) -> list[np.ndarray]:
    """Views of the flat weight vector as per-axis fields (no copy)."""
    w = np.asarray(w)
    if w.shape != (edge_count(spec),):
        raise ValueError(
            "weight vector has length %d, expected %d" % (w.size, edge_count(spec))
        )
    return [w[sl].reshape(field_shape(spec, a)) for a, sl in enumerate(field_slices(spec))]


def flatten_fields(fields) -> np.ndarray:
    return np.concatenate([np.asarray(f, dtype=np.float64).ravel() for f in fields])


def constant_weights(spec: GridSpec, value: float = 1.0) -> np.ndarray:
    return np.full(edge_count(spec), float(value))


def edge_vertices(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """End vertices (i, j), i < j, of every edge, in flat weight order.

    The axis-a edge at field index f joins vertex f to vertex f + e_a, which
    is prod(dims[a+1:]) vertices further on in row-major order.
    """
    vid = np.arange(spec.num_vertices).reshape(spec.dims)
    i = np.concatenate([vid[(slice(None),) * a + (slice(-1),)].ravel() for a in range(spec.d)])
    steps = [int(np.prod(spec.dims[a + 1:])) for a in range(spec.d)]
    return i, i + np.repeat(steps, field_sizes(spec))


def check_weights(spec: GridSpec, w) -> np.ndarray:
    """``w`` as float64; ValueError unless it has one positive entry per edge."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (edge_count(spec),):
        raise ValueError(
            "weight vector has length %d, expected %d" % (w.size, edge_count(spec))
        )
    if not np.all(w > 0):  # NaN fails here too
        raise ValueError("edge weights must be strictly positive")
    return w


def build_laplacian(spec: GridSpec, w: np.ndarray):
    """Weighted graph Laplacian L = W - diag(degree), as scipy.sparse CSR.

    Off-diagonal entry (i, j) is w_ij for connected vertex pairs, the
    diagonal carries minus the weighted degree, so every row sums to zero
    and L is symmetric negative semi-definite.
    """
    import scipy.sparse as sp  # here, so that no command loads it: only tests call this
    w = check_weights(spec, w)
    n = spec.num_vertices
    i, j = edge_vertices(spec)
    v = np.arange(n)
    deg = np.bincount(i, w, n) + np.bincount(j, w, n)
    return sp.csr_matrix(
        (np.concatenate([w, w, -deg]), (np.concatenate([i, j, v]), np.concatenate([j, i, v]))),
        shape=(n, n),
    )


def parallel_difference(spec: GridSpec, w: np.ndarray) -> np.ndarray:
    """Apply e -> sum_{e' in N(e)} (w_e - w_{e'}) to every edge at once.

    This is the symmetric operator D = diag(neighbor count) - A over the
    same-orientation neighborhoods; the smoothness penalty is ||D w||^2.
    """
    out = np.empty_like(np.asarray(w, dtype=np.float64))
    for a, (f, sl) in enumerate(zip(axis_fields(spec, w), field_slices(spec))):
        acc = np.zeros_like(f)
        deg = np.zeros_like(f)
        for ax in range(f.ndim):
            if f.shape[ax] < 2:
                continue
            lo = [slice(None)] * f.ndim
            hi = [slice(None)] * f.ndim
            lo[ax] = slice(0, -1)
            hi[ax] = slice(1, None)
            lo, hi = tuple(lo), tuple(hi)
            acc[lo] += f[hi]
            acc[hi] += f[lo]
            deg[lo] += 1.0
            deg[hi] += 1.0
        out[sl] = (deg * f - acc).ravel()
    return out


def save_weights(dirpath, spec: GridSpec, w: np.ndarray) -> None:
    """Write one GMLT tensor per axis field: weights_axis0.gmlt, ..."""
    os.makedirs(dirpath, exist_ok=True)
    for a, f in enumerate(axis_fields(spec, w)):
        tensorio.write_tensor(os.path.join(dirpath, "weights_axis%d.gmlt" % a), f)


def load_weights(dirpath, spec: GridSpec) -> np.ndarray:
    fields = []
    for a in range(spec.d):
        t = tensorio.read_tensor(os.path.join(dirpath, "weights_axis%d.gmlt" % a))
        if t.shape != field_shape(spec, a):
            raise ValueError(
                "weights_axis%d has shape %r, expected %r"
                % (a, t.shape, field_shape(spec, a))
            )
        fields.append(t)
    return flatten_fields(fields)
