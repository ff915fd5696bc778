"""RGB histograms, transport-based color maps, PPM image I/O.

Colors live on an n x n x n grid over [0,1]^3; bin (j_r, j_g, j_b) has
center ((j_r + 1/2)/n, (j_g + 1/2)/n, (j_b + 1/2)/n).  The transfer map
sends each occupied source bin to the plan-weighted mean of target bin
centers (barycentric projection), computed with kernel applications only
— the full plan is never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import distance_transform_edt, map_coordinates

from .barycenter import DIVIDE_FLOOR, sinkhorn_scalings


class PpmFormatError(Exception):
    pass


def read_ppm(path) -> np.ndarray:
    """Read a binary (P6) PPM with maxval 255 into a (h, w, 3) uint8 array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] != b"P6":
        raise PpmFormatError("%s: not a binary PPM (P6) file" % (path,))
    # header tokens may be separated by whitespace and '#' comments
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PpmFormatError("%s: truncated header" % (path,))
        fields.append(raw[start:pos])
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError as exc:
        raise PpmFormatError("%s: bad header field" % (path,)) from exc
    if width < 1 or height < 1:
        raise PpmFormatError("%s: bad image size" % (path,))
    if maxval != 255:
        raise PpmFormatError("%s: only maxval 255 is supported" % (path,))
    pos += 1  # single whitespace after maxval
    need = width * height * 3
    data = raw[pos : pos + need]
    if len(data) < need:
        raise PpmFormatError("%s: truncated pixel data" % (path,))
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3).copy()


def write_ppm(path, img) -> None:
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError("image must be (h, w, 3) uint8")
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(img.tobytes())


@dataclass(frozen=True)
class ColorHistogram:
    n: int
    mass: np.ndarray  # (n, n, n), sums to 1

    def __post_init__(self):
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.shape != (self.n,) * 3:
            raise ValueError("mass must have shape (n, n, n)")
        if np.any(mass < 0) or abs(mass.sum() - 1.0) > 1e-12:
            raise ValueError("mass must be a normalized histogram")
        object.__setattr__(self, "mass", mass)


def image_to_histogram(img, n: int) -> ColorHistogram:
    """Each pixel votes into bin floor(channel * n / 256) per axis."""
    if n < 2:
        raise ValueError("need n >= 2 bins per channel")
    img = np.asarray(img)
    bins = np.minimum(img.astype(np.int64) * n // 256, n - 1)
    flat = (bins[..., 0] * n + bins[..., 1]) * n + bins[..., 2]
    counts = np.bincount(flat.ravel(), minlength=n**3).astype(np.float64)
    return ColorHistogram(n, (counts / counts.sum()).reshape(n, n, n))


def bin_centers(n: int) -> np.ndarray:
    """(n^3, 3) array of bin centers in [0,1]^3, row-major bin order."""
    idx = np.indices((n, n, n), dtype=np.float64)
    return np.stack([(idx[c] + 0.5).ravel() / n for c in range(3)], axis=1)


def barycentric_map(op, a: ColorHistogram, b: ColorHistogram, iters: int):
    """Per-bin color map from transport scalings between two histograms.

    Returns (tmap, defined): tmap has shape (n, n, n, 3); entries are
    meaningful only where ``defined`` is True (occupied source bins with a
    nondegenerate denominator).  Fill the rest with fill_nearest before
    applying the map.
    """
    if a.n != b.n:
        raise ValueError("histograms use different grid resolutions")
    n = a.n
    aflat = a.mass.ravel()
    bflat = b.mass.ravel()
    u, v = sinkhorn_scalings(op, aflat, bflat, iters)
    # denominator and the three numerators as one column block
    block = u[:, None] * op.apply(np.column_stack([v, v[:, None] * bin_centers(n)]))[0]
    den = block[:, 0]
    defined = (aflat > 0) & (den > DIVIDE_FLOOR)
    tmap = np.zeros((n**3, 3))
    tmap[defined] = block[defined, 1:] / den[defined, None]
    return tmap.reshape(n, n, n, 3), defined.reshape(n, n, n)


def fill_nearest(tmap, defined) -> np.ndarray:
    """Fill undefined bins with the value of the nearest defined bin."""
    defined = np.asarray(defined, dtype=bool)
    if defined.all():
        return np.array(tmap, copy=True)
    if not defined.any():
        raise ValueError("no defined bins to fill from")
    ind = distance_transform_edt(~defined, return_distances=False, return_indices=True)
    return np.array(tmap)[tuple(ind)]


def apply_color_map(img, tmap, n: int) -> np.ndarray:
    """Recolor an image by trilinear interpolation of the per-bin map."""
    img = np.asarray(img)
    tmap = np.asarray(tmap, dtype=np.float64)
    if tmap.shape != (n, n, n, 3):
        raise ValueError("map must have shape (n, n, n, 3)")
    coords = img.astype(np.float64) / 255.0 * n - 0.5
    coords = np.clip(coords, 0.0, n - 1.0)
    flat = coords.reshape(-1, 3).T
    out = np.empty_like(flat)
    for c in range(3):
        out[c] = map_coordinates(tmap[..., c], flat, order=1, mode="nearest")
    out = np.clip(np.rint(out.T * 255.0), 0, 255).astype(np.uint8)
    return out.reshape(img.shape)


def _bilateral_float(img, spatial_sigma, range_sigma, guide):
    """Bilateral filter of (C, h, w) float planes; range weights from ``guide``.

    Shifts s and -s give the same weight (the squared guide difference is
    symmetric), so each pair is computed once and added to both of its
    ends.  Every temporary is a view of a buffer allocated before the loop.
    """
    h, w = img.shape[1:]
    radius = int(math.ceil(3.0 * spatial_sigma))
    ry, rx = min(radius, h - 1), min(radius, w - 1)  # beyond these, no overlap
    inv_s = 1.0 / (2.0 * spatial_sigma**2)
    neg_inv_r = -1.0 / (2.0 * range_sigma**2)
    acc = img.copy()  # the zero shift, weight 1
    wacc = np.ones((h, w))
    # flat buffers, so that each shift's temporaries are contiguous views
    wbuf = np.empty(h * w)
    tbuf = np.empty(h * w)
    for dy in range(ry + 1):
        for dx in range(-rx if dy else 1, rx + 1):
            # pixel a = (y, x) pairs with b = (y + dy, x + dx)
            ya, yb = slice(0, h - dy), slice(dy, h)
            xa, xb = slice(max(0, -dx), w - max(0, dx)), slice(max(0, dx), w - max(0, -dx))
            shape = (h - dy, w - abs(dx))
            wgt = wbuf[: shape[0] * shape[1]].reshape(shape)
            tmp = tbuf[: shape[0] * shape[1]].reshape(shape)
            wgt.fill(0.0)
            for plane in guide:
                np.subtract(plane[ya, xa], plane[yb, xb], out=tmp)
                np.multiply(tmp, tmp, out=tmp)
                wgt += tmp
            np.multiply(wgt, neg_inv_r, out=wgt)
            wgt -= (dx * dx + dy * dy) * inv_s
            np.exp(wgt, out=wgt)
            wacc[ya, xa] += wgt
            wacc[yb, xb] += wgt
            for k, plane in enumerate(img):
                np.multiply(wgt, plane[yb, xb], out=tmp)
                acc[k, ya, xa] += tmp
                np.multiply(wgt, plane[ya, xa], out=tmp)
                acc[k, yb, xb] += tmp
    acc /= wacc
    return acc


def _planes(img) -> np.ndarray:
    """(h, w, C) 8-bit image as contiguous (C, h, w) float planes in [0, 1]."""
    planes = np.ascontiguousarray(np.moveaxis(img, -1, 0), dtype=np.float64)
    planes /= 255.0
    return planes


def bilateral_smooth(img, spatial_sigma: float = 3.0, range_sigma: float = 0.1,
                     guide=None) -> np.ndarray:
    """Edge-preserving smoothing of an (h, w, C) image; range weights from ``guide``.

    Guiding by the pre-transfer image suppresses quantization banding that
    the color map introduces, without blurring across the original edges.
    """
    spatial_sigma, range_sigma = float(spatial_sigma), float(range_sigma)
    if not (0 < spatial_sigma < math.inf and 0 < range_sigma < math.inf):
        raise ValueError("sigmas must be finite and > 0")  # NaN fails here too
    img = np.asarray(img)
    if img.ndim != 3:
        raise ValueError("image must be (h, w, C), got shape %r" % (img.shape,))
    if guide is not None:
        guide = np.asarray(guide)
        if guide.shape != img.shape:
            raise ValueError("guide image must match the input size")
    planes = _planes(img)
    out = _bilateral_float(planes, spatial_sigma, range_sigma,
                           planes if guide is None else _planes(guide))
    out *= 255.0
    np.rint(out, out=out)
    np.clip(out, 0, 255, out=out)
    return np.ascontiguousarray(np.moveaxis(out, 0, -1), dtype=np.uint8)
