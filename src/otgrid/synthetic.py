"""Synthetic inputs: handcrafted metrics and histogram sequences.

Regions are placed in vertex coordinates.  An edge belongs to a region if
its midpoint does: the midpoint of the axis-a edge at field index
(i_1, ..., i_d) is that index plus one half along axis a.  In 2-D,
axes="vertical" targets the axis-0 field and axes="horizontal" the
axis-1 field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .barycenter import interpolate
from .diffusion import assemble
from .grids import GridSpec, field_shape, flatten_fields
from .objective import Sequence, default_timestamps
from .tensorio import ConfigError


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
    if not np.all((center >= 0) & (center <= np.array(spec.dims) - 1)):  # NaN fails here too
        raise ValueError("center %r outside grid %r" % (center.tolist(), spec.dims))
    if not sigma > 0:
        raise ValueError("sigma must be > 0")
    idx = np.indices(spec.dims, dtype=np.float64)
    sq = np.zeros(spec.dims)
    for a in range(spec.d):
        sq += (idx[a] - center[a]) ** 2
    h = np.exp(-sq / (2.0 * sigma**2)).ravel()
    return h / h.sum()


@dataclass(frozen=True)
class Region:
    """A box (lo/hi corners, inclusive) or disk (center, and radius, 0 when
    left out) weight zone; the keys of the other shape stay None."""

    factor: float
    shape: str = "box"  # box | disk
    axes: str | tuple[int, ...] = "all"  # all | horizontal | vertical | axis numbers
    lo: tuple[float, ...] | None = None
    hi: tuple[float, ...] | None = None
    center: tuple[float, ...] | None = None
    radius: float | None = None


_SHAPE_KEYS = {"box": ("lo", "hi"), "disk": ("center", "radius")}


@dataclass(frozen=True)
class Endpoints:
    """The Gaussian blobs that a generated sequence runs between.

    An end left out lies mid-grid on every axis but the last, where
    ``start`` lies at 0 and ``stop`` at the far side.
    """

    sigma: float = 1.5
    start: tuple[float, ...] | None = None
    stop: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be > 0")

    def histograms(self, spec: GridSpec):
        """The start and stop blobs on ``spec``; a bad end is a ConfigError naming it."""
        mid = tuple((n - 1) / 2.0 for n in spec.dims[:-1])
        start = mid + (0.0,) if self.start is None else self.start
        stop = mid + (spec.dims[-1] - 1.0,) if self.stop is None else self.stop
        return _blob(spec, start, self.sigma, "start"), _blob(spec, stop, self.sigma, "stop")


def _blob(spec: GridSpec, center, sigma: float, name: str) -> np.ndarray:
    try:
        return gaussian(spec, center, sigma)
    except ValueError as exc:
        raise ConfigError("endpoints.%s: %s" % (name, exc)) from exc


@dataclass(frozen=True)
class MetricPattern:
    """A gen pattern file: the metric, and the sequence's end blobs."""

    base: float = 1.0
    regions: tuple[Region, ...] = ()
    smooth_radius: int = 0
    endpoints: Endpoints = field(default_factory=Endpoints)


def _axes_of(region: Region, d: int, key: str) -> tuple:
    """The weight fields a region acts on, once its shape and coordinates check out."""
    if region.shape not in _SHAPE_KEYS:
        raise ConfigError("%s.shape must be box or disk, got %r" % (key, region.shape))
    for name in ("lo", "hi", "center", "radius"):
        if name not in _SHAPE_KEYS[region.shape] and getattr(region, name) is not None:
            raise ConfigError("%s.%s is not used by a %s region" % (key, name, region.shape))
    for name in ("lo", "hi") if region.shape == "box" else ("center",):
        coords = getattr(region, name) or ()
        if len(coords) != d or not np.isfinite(coords).all():
            raise ConfigError("%s.%s must be %d finite numbers, got %r" % (key, name, d, coords))
    if region.radius is not None and not region.radius >= 0:  # NaN fails here too
        raise ConfigError("%s.radius must be >= 0" % key)
    axes = region.axes
    if isinstance(axes, str):
        axes = {"all": tuple(range(d)), "horizontal": (1,), "vertical": (0,)}.get(axes, axes)
    if isinstance(axes, str) or not all(0 <= a < d for a in axes):
        raise ConfigError("%s.axes must be all, horizontal, vertical or axis numbers below %d,"
                          " got %r" % (key, d, region.axes))
    return axes


def _region_mask(region: Region, midpoints) -> np.ndarray:
    if region.shape == "box":
        lo = np.asarray(region.lo, dtype=np.float64)
        hi = np.asarray(region.hi, dtype=np.float64)
        mask = np.ones(midpoints[0].shape, dtype=bool)
        for a, m in enumerate(midpoints):
            mask &= (m >= lo[a]) & (m <= hi[a])
        return mask
    center = np.asarray(region.center, dtype=np.float64)
    sq = np.zeros(midpoints[0].shape)
    for a, m in enumerate(midpoints):
        sq += (m - center[a]) ** 2
    return sq <= (region.radius or 0.0) ** 2


def _box_mean(f: np.ndarray, radius: int) -> np.ndarray:
    """Mean over the (2 radius + 1)-wide box around each entry, edges repeated.

    One axis at a time, in increasing order: a running sum of the undivided
    differences, divided by the box width at the end of each axis.
    """
    width = 2 * radius + 1
    for axis in range(f.ndim):
        pad = [(0, 0)] * f.ndim
        pad[axis] = (radius, radius)
        g = np.moveaxis(np.pad(f, pad, mode="edge"), axis, 0)
        # the first window, then one entry in and one out per step
        steps = np.concatenate([g[:width], g[width:] - g[:-width]])
        f = np.moveaxis(np.cumsum(steps, axis=0)[width - 1:] / width, 0, axis)
    return f


def render_metric(spec: GridSpec, pattern: MetricPattern) -> np.ndarray:
    """Turn a pattern description into a strictly positive weight vector.

    A ``smooth_radius`` r > 0 replaces each field by its mean over the
    (2r + 1)-wide box around every entry, with the edges repeated.
    """
    if not pattern.base > 0:  # NaN fails here too
        raise ConfigError("base must be > 0")
    if not pattern.smooth_radius >= 0:
        raise ConfigError("smooth_radius must be >= 0")
    axes = []
    for i, region in enumerate(pattern.regions):
        if not region.factor > 0:
            raise ConfigError("regions[%d].factor must be > 0" % i)
        axes.append(_axes_of(region, spec.d, "regions[%d]" % i))
    fields = []
    for a in range(spec.d):
        f = np.full(field_shape(spec, a), float(pattern.base))
        mid = np.indices(f.shape, dtype=np.float64)
        mid[a] += 0.5
        for region, region_axes in zip(pattern.regions, axes):
            if a in region_axes:
                f[_region_mask(region, mid)] *= region.factor
        if pattern.smooth_radius > 0:
            f = _box_mean(f, pattern.smooth_radius)
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
