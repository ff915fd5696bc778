"""Synthetic inputs: handcrafted metrics and histogram sequences.

Regions are placed in vertex coordinates.  An edge belongs to a region if
its midpoint does: the midpoint of the axis-a edge at field index
(i_1, ..., i_d) is that index plus one half along axis a.  In 2-D,
axes="vertical" targets the axis-0 field and axes="horizontal" the
axis-1 field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

from .barycenter import interpolate
from .diffusion import assemble
from .grids import GridSpec, field_shape, flatten_fields
from .objective import Sequence, default_timestamps
from .tensorio import ConfigError, scalar_value


def dirac(spec: GridSpec, vertex) -> np.ndarray:
    """One-hot histogram at a vertex given as a multi-index."""
    vertex = tuple(int(v) for v in np.atleast_1d(vertex))
    if len(vertex) != spec.d:
        raise ValueError("vertex must have %d coordinates" % spec.d)
    for v, n in zip(vertex, spec.dims):
        if not 0 <= v < n:
            raise ValueError("vertex %r outside grid %r" % (vertex, spec.dims))
    h = np.zeros(spec.num_vertices)
    h[np.ravel_multi_index(vertex, spec.dims)] = 1.0
    return h


def gaussian(spec: GridSpec, center, sigma: float) -> np.ndarray:
    """Isotropic Gaussian bump, truncated to the grid and renormalized."""
    center = np.asarray(center, dtype=np.float64)
    if center.shape != (spec.d,):
        raise ValueError("center must have %d coordinates" % spec.d)
    if np.any(center < 0) or np.any(center > np.array(spec.dims) - 1):
        raise ValueError("center %r outside grid %r" % (center.tolist(), spec.dims))
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    idx = np.indices(spec.dims, dtype=np.float64)
    sq = np.zeros(spec.dims)
    for a in range(spec.d):
        sq += (idx[a] - center[a]) ** 2
    h = np.exp(-sq / (2.0 * sigma**2)).ravel()
    return h / h.sum()


def coords(value, key) -> tuple:
    """A JSON list of numbers (a point or a box corner) as a tuple of floats."""
    if not isinstance(value, list):
        raise ConfigError("%s must be a list of numbers, got %r" % (key, value))
    return tuple(scalar_value(float, v, "%s[%d]" % (key, j)) for j, v in enumerate(value))


@dataclass(frozen=True)
class Region:
    """A box (lo/hi corners, inclusive) or disk (center/radius) weight zone."""

    factor: float
    shape: str = "box"  # box | disk
    axes: object = "all"  # all | horizontal | vertical | tuple of axis ints
    lo: tuple = ()
    hi: tuple = ()
    center: tuple = ()
    radius: float = 0.0


@dataclass(frozen=True)
class MetricPattern:
    base: float = 1.0
    regions: tuple = ()
    smooth_radius: int = 0

    @staticmethod
    def from_dict(doc: dict) -> "MetricPattern":
        """Pattern from its JSON object; a value of the wrong type is a ConfigError."""
        regions = doc.get("regions", [])
        if not isinstance(regions, list) or not all(isinstance(r, dict) for r in regions):
            raise ConfigError("regions must be a list of objects")
        return MetricPattern(
            base=scalar_value(float, doc.get("base", 1.0), "base"),
            regions=tuple(
                Region(
                    factor=scalar_value(float, r.get("factor"), "regions[%d].factor" % i),
                    shape=str(r.get("shape", "box")),
                    axes=r.get("axes", "all"),
                    lo=coords(r.get("lo", []), "regions[%d].lo" % i),
                    hi=coords(r.get("hi", []), "regions[%d].hi" % i),
                    center=coords(r.get("center", []), "regions[%d].center" % i),
                    radius=scalar_value(float, r.get("radius", 0.0),
                                        "regions[%d].radius" % i),
                )
                for i, r in enumerate(regions)
            ),
            smooth_radius=scalar_value(int, doc.get("smooth_radius", 0), "smooth_radius"),
        )


def _axes_of(region: Region, d: int):
    if region.axes == "all":
        return tuple(range(d))
    if region.axes == "horizontal":
        if d < 2:
            raise ValueError("'horizontal' needs a grid with at least 2 axes")
        return (1,)
    if region.axes == "vertical":
        return (0,)
    return tuple(int(a) for a in region.axes)


def _region_mask(region: Region, midpoints) -> np.ndarray:
    if region.shape == "box":
        lo = np.asarray(region.lo, dtype=np.float64)
        hi = np.asarray(region.hi, dtype=np.float64)
        mask = np.ones(midpoints[0].shape, dtype=bool)
        for a, m in enumerate(midpoints):
            mask &= (m >= lo[a]) & (m <= hi[a])
        return mask
    if region.shape == "disk":
        center = np.asarray(region.center, dtype=np.float64)
        sq = np.zeros(midpoints[0].shape)
        for a, m in enumerate(midpoints):
            sq += (m - center[a]) ** 2
        return sq <= region.radius**2
    raise ValueError("unknown region shape %r" % (region.shape,))


def render_metric(spec: GridSpec, pattern: MetricPattern) -> np.ndarray:
    """Turn a pattern description into a strictly positive weight vector."""
    if pattern.base <= 0:
        raise ValueError("base weight must be > 0")
    for region in pattern.regions:
        if region.factor <= 0:
            raise ValueError("region factors must be > 0")
    fields = []
    for a in range(spec.d):
        f = np.full(field_shape(spec, a), float(pattern.base))
        mid = np.indices(f.shape, dtype=np.float64)
        mid[a] += 0.5
        for region in pattern.regions:
            if a not in _axes_of(region, spec.d):
                continue
            f[_region_mask(region, mid)] *= region.factor
        if pattern.smooth_radius > 0:
            f = uniform_filter(f, size=2 * pattern.smooth_radius + 1, mode="nearest")
        fields.append(f)
    return flatten_fields(fields)


def forward_sequence(spec: GridSpec, w, r0, r1, frames: int,
                     epsilon: float, substeps: int, iters: int) -> Sequence:
    """Interpolate r0 -> r1 under the metric w at uniform timestamps."""
    if frames < 2:
        raise ValueError("need at least 2 frames")
    op = assemble(spec, w, epsilon, substeps)
    ts = default_timestamps(frames)
    out = np.empty((frames, spec.num_vertices))
    for i, t in enumerate(ts):
        b = interpolate(op, r0, r1, float(t), iters)
        out[i] = b / b.sum()
    return Sequence(out, ts)


def moving_gaussian_sequence(spec: GridSpec, waypoints, sigma: float, frames: int) -> Sequence:
    """Gaussian bump whose center walks the waypoint polyline.

    Waypoint k sits at parameter k/(len-1); centers are piecewise-linear
    in t between consecutive waypoints.
    """
    pts = np.asarray(waypoints, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != spec.d:
        raise ValueError("need at least two waypoints of dimension %d" % spec.d)
    if frames < 2:
        raise ValueError("need at least 2 frames")
    ts = default_timestamps(frames)
    breakpoints = np.linspace(0.0, 1.0, pts.shape[0])
    out = np.empty((frames, spec.num_vertices))
    for i, t in enumerate(ts):
        center = np.array([np.interp(t, breakpoints, pts[:, a]) for a in range(spec.d)])
        out[i] = gaussian(spec, center, sigma)
    return Sequence(out, ts)

