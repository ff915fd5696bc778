"""The numpy fill, color map and box mean against scipy.ndimage as the oracle.

otgrid itself does not import scipy.ndimage; these tests do, to pin each
replacement to the call it replaced: ``distance_transform_edt``'s feature
transform for ``fill_nearest``, ``map_coordinates(order=1, mode="nearest")``
for ``apply_color_map``, and ``uniform_filter(mode="nearest")`` for the
``render_metric`` smoothing.  A fresh-import guard keeps scipy.ndimage, and
scipy.sparse (which only ``grids.build_laplacian`` imports), out of
``import otgrid.cli``.
"""

import subprocess
import sys

import numpy as np
import pytest
from scipy.ndimage import distance_transform_edt, map_coordinates, uniform_filter

from otgrid import color
from otgrid.color import apply_color_map, fill_nearest
from otgrid.grids import GridSpec, axis_fields
from otgrid.synthetic import MetricPattern, Region, _box_mean, render_metric


def _oracle_fill(tmap, defined):
    ind = distance_transform_edt(~defined, return_distances=False, return_indices=True)
    return tmap[tuple(ind)]


@pytest.mark.parametrize("n", [2, 5, 16])
@pytest.mark.parametrize("density", [0.02, 0.1, 0.25, 0.5])
def test_fill_nearest_matches_feature_transform(n, density):
    """Every bin takes the source bin of scipy's feature transform, ties included."""
    rng = np.random.default_rng(int(1000 * density) + n)
    tmap = np.arange(n**3 * 3, dtype=np.float64).reshape(n, n, n, 3)  # one value per bin
    for _ in range(5):
        defined = rng.random((n,) * 3) < density
        defined[tuple(rng.integers(0, n, 3))] = True
        if defined.all():
            defined[0, 0, 0] = False
        np.testing.assert_array_equal(fill_nearest(tmap, defined),
                                      _oracle_fill(tmap, defined))


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("mask", ["ellipsoid", "shell"])
def test_fill_nearest_matches_feature_transform_on_solid_masks(mask, n):
    """Masks with many defined bins away from any hole: a solid ellipsoid
    and a spherical shell, centred off the grid's middle so that neither
    is symmetric."""
    c = (np.arange(n) + 0.5) / n
    x, y, z = np.meshgrid(c - 0.45, c - 0.55, c - 0.5, indexing="ij")
    if mask == "ellipsoid":
        defined = (x / 0.4) ** 2 + (y / 0.3) ** 2 + (z / 0.35) ** 2 <= 1.0
    else:
        defined = np.abs(np.sqrt(x**2 + y**2 + z**2) - 0.3) <= 0.1
    tmap = np.arange(n**3 * 3, dtype=np.float64).reshape(n, n, n, 3)
    np.testing.assert_array_equal(fill_nearest(tmap, defined), _oracle_fill(tmap, defined))


@pytest.mark.parametrize("n", [2, 5, 16])
def test_fill_nearest_single_bin_masks(n):
    rng = np.random.default_rng(n)
    tmap = rng.uniform(size=(n, n, n, 3))
    corners = [(0, 0, 0), (n - 1, n - 1, n - 1), (n // 2, 0, n - 1)]
    for bin_ in corners + [tuple(rng.integers(0, n, 3)) for _ in range(3)]:
        defined = np.zeros((n,) * 3, dtype=bool)
        defined[bin_] = True
        out = fill_nearest(tmap, defined)
        np.testing.assert_array_equal(out, _oracle_fill(tmap, defined))
        assert (out == tmap[bin_]).all()


@pytest.mark.parametrize("n", [2, 3, 16])
def test_color_map_matches_map_coordinates(n):
    """Within 1e-15 as floats, identical as 8-bit output, across pixel chunks."""
    rng = np.random.default_rng(20 + n)
    tmap = rng.uniform(size=(n, n, n, 3))
    img = rng.integers(0, 256, (97, 89, 3), dtype=np.uint8)
    assert img.size // 3 > color._MAP_CHUNK
    img[0, :8] = [[r, g, b] for r in (0, 255) for g in (0, 255) for b in (0, 255)]
    img[1, :3] = [[0, 128, 255], [255, 1, 254], [127, 0, 255]]
    coords = np.clip(img.astype(np.float64) / 255.0 * n - 0.5, 0.0, n - 1.0)
    coords = coords.reshape(-1, 3).T
    expect = np.stack([map_coordinates(tmap[..., c], coords, order=1, mode="nearest")
                       for c in range(3)], axis=1)
    got = color._trilinear(img.reshape(-1, 3), tmap.reshape(n**3, 3), n)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-15)
    out8 = np.clip(np.rint(expect * 255.0), 0, 255).astype(np.uint8).reshape(img.shape)
    np.testing.assert_array_equal(apply_color_map(img, tmap, n), out8)


@pytest.mark.parametrize("shape", [(9,), (1,), (6, 5), (4, 7, 3), (2, 1, 5)])
@pytest.mark.parametrize("radius", range(1, 13))
def test_box_mean_matches_uniform_filter(shape, radius):
    """Bit-equal, including a box wider than the field."""
    rng = np.random.default_rng(radius * 10 + len(shape))
    f = np.exp(rng.normal(size=shape))
    np.testing.assert_array_equal(_box_mean(f, radius),
                                  uniform_filter(f, size=2 * radius + 1, mode="nearest"))


@pytest.mark.parametrize("dims", [(12,), (9, 8), (5, 6, 4)])
@pytest.mark.parametrize("radius", [1, 2, 5, 12])
def test_render_metric_smoothing_matches_uniform_filter(dims, radius):
    d = len(dims)
    regions = (Region(factor=0.07, lo=(1.0,) * d, hi=tuple(n / 2.0 for n in dims)),
               Region(factor=3.5, shape="disk", center=tuple(n - 2.0 for n in dims),
                      radius=2.0, axes=(d - 1,)))
    spec = GridSpec(dims)
    sharp = axis_fields(spec, render_metric(spec, MetricPattern(base=1.3, regions=regions)))
    smooth = axis_fields(spec, render_metric(
        spec, MetricPattern(base=1.3, regions=regions, smooth_radius=radius)))
    for f, g in zip(sharp, smooth):
        np.testing.assert_array_equal(
            g, uniform_filter(f, size=2 * radius + 1, mode="nearest"))


def test_cli_import_leaves_out_ndimage():
    """A fresh ``import otgrid.cli`` loads neither scipy.ndimage nor
    scipy.sparse (this session loads both)."""
    code = ("import sys, otgrid.cli; "
            "print('scipy.ndimage' in sys.modules, 'scipy.sparse' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"
