import math

import numpy as np
import pytest

from otgrid.color import (
    ColorHistogram,
    PpmFormatError,
    _bilateral_float,
    apply_color_map,
    barycentric_map,
    bilateral_smooth,
    bin_centers,
    fill_nearest,
    image_to_histogram,
    read_ppm,
    write_ppm,
)
from otgrid.diffusion import assemble
from otgrid.grids import GridSpec, constant_weights


def color_op(n, epsilon=4e-2, substeps=5):
    spec = GridSpec((n, n, n))
    return assemble(spec, constant_weights(spec), epsilon, substeps)


# --- PPM I/O -----------------------------------------------------------------


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (7, 5, 3), dtype=np.uint8)
    write_ppm(tmp_path / "x.ppm", img)
    back = read_ppm(tmp_path / "x.ppm")
    np.testing.assert_array_equal(back, img)


def test_ppm_header_comments(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6\n# a comment\n2 # inline\n2\n255\n" + img.tobytes())
    np.testing.assert_array_equal(read_ppm(p), img)


def test_ppm_rejects_ascii_variant(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
    with pytest.raises(PpmFormatError):
        read_ppm(p)


def test_ppm_rejects_wide_maxval(tmp_path):
    p = tmp_path / "m.ppm"
    p.write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
    with pytest.raises(PpmFormatError):
        read_ppm(p)


def test_ppm_rejects_truncated_pixels(tmp_path):
    p = tmp_path / "t.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 11)
    with pytest.raises(PpmFormatError):
        read_ppm(p)


def test_write_ppm_validates_shape_and_dtype(tmp_path):
    with pytest.raises(ValueError):
        write_ppm(tmp_path / "x.ppm", np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        write_ppm(tmp_path / "x.ppm", np.zeros((4, 4, 3), dtype=np.float64))


# --- histograms ----------------------------------------------------------------


def test_histogram_validation():
    good = np.zeros((4, 4, 4))
    good[0, 0, 0] = 1.0
    ColorHistogram(4, good)
    with pytest.raises(ValueError):
        ColorHistogram(4, np.zeros((4, 4, 4)))  # zero mass
    with pytest.raises(ValueError):
        ColorHistogram(3, good)  # wrong shape
    bad = good.copy()
    bad[0, 0, 0] = 2.0
    bad[1, 1, 1] = -1.0
    with pytest.raises(ValueError):
        ColorHistogram(4, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_histogram_rejects_non_finite_mass(bad):
    mass = np.full((3, 3, 3), 1 / 27)
    mass[1, 2, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ColorHistogram(3, mass)


def test_image_to_histogram_binning():
    # channel value c lands in bin floor(c*n/256), 255 in the last bin
    img = np.array([[[0, 64, 255], [128, 191, 192]]], dtype=np.uint8)
    h = image_to_histogram(img, 4)
    assert h.mass[0, 1, 3] == 0.5
    assert h.mass[2, 2, 3] == 0.5
    assert h.mass.sum() == pytest.approx(1.0)


def test_image_to_histogram_uniform_mass():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
    h = image_to_histogram(img, 8)
    assert h.mass.sum() == pytest.approx(1.0, abs=1e-14)
    assert (h.mass >= 0).all()


def test_bin_centers_layout():
    c = bin_centers(2)
    assert c.shape == (8, 3)
    np.testing.assert_allclose(c[0], [0.25, 0.25, 0.25])
    np.testing.assert_allclose(c[-1], [0.75, 0.75, 0.75])
    # row-major: last axis (blue) varies fastest
    np.testing.assert_allclose(c[1], [0.25, 0.25, 0.75])


# --- transfer map ----------------------------------------------------------------


def test_barycentric_map_dirac_to_dirac():
    """All source mass in one bin must map exactly onto the target bin center."""
    n = 4
    op = color_op(n)
    p = (0, 1, 2)
    q = (3, 2, 0)
    a = np.zeros((n, n, n))
    a[p] = 1.0
    b = np.zeros((n, n, n))
    b[q] = 1.0
    tmap, defined = barycentric_map(op, ColorHistogram(n, a), ColorHistogram(n, b), 20)
    assert defined[p]
    assert defined.sum() == 1
    expected = (np.array(q) + 0.5) / n
    np.testing.assert_allclose(tmap[p], expected, atol=1e-12)


def test_barycentric_map_identity_transport():
    """a = b: every occupied bin maps near its own center."""
    n = 4
    op = color_op(n, epsilon=1e-2, substeps=8)
    rng = np.random.default_rng(2)
    mass = rng.uniform(0.5, 1.0, (n, n, n))
    mass /= mass.sum()
    h = ColorHistogram(n, mass)
    tmap, defined = barycentric_map(op, h, h, 60)
    assert defined.all()
    centers = bin_centers(n).reshape(n, n, n, 3)
    assert np.abs(tmap - centers).max() < 0.05


def test_barycentric_map_resolution_mismatch():
    op = color_op(4)
    a = ColorHistogram(4, np.full((4,) * 3, 1 / 64))
    b = ColorHistogram(3, np.full((3,) * 3, 1 / 27))
    with pytest.raises(ValueError):
        barycentric_map(op, a, b, 5)


def test_barycentric_map_rejects_zero_sweeps():
    op = color_op(3)
    h = ColorHistogram(3, np.full((3,) * 3, 1 / 27))
    with pytest.raises(ValueError):
        barycentric_map(op, h, h, 0)


def test_fill_nearest_copies_when_complete():
    tmap = np.random.default_rng(3).uniform(size=(3, 3, 3, 3))
    out = fill_nearest(tmap, np.ones((3, 3, 3), dtype=bool))
    np.testing.assert_array_equal(out, tmap)
    assert out is not tmap


def test_fill_nearest_propagates_neighbor():
    tmap = np.zeros((3, 3, 3, 3))
    defined = np.zeros((3, 3, 3), dtype=bool)
    tmap[0, 0, 0] = (0.1, 0.2, 0.3)
    defined[0, 0, 0] = True
    out = fill_nearest(tmap, defined)
    np.testing.assert_allclose(out[2, 2, 2], (0.1, 0.2, 0.3))
    np.testing.assert_allclose(out[0, 0, 0], (0.1, 0.2, 0.3))


def test_fill_nearest_needs_one_defined_bin():
    with pytest.raises(ValueError):
        fill_nearest(np.zeros((2, 2, 2, 3)), np.zeros((2, 2, 2), dtype=bool))


def test_apply_color_map_identity():
    """The identity map recolors mid-range pixels to themselves."""
    n = 8
    centers = bin_centers(n).reshape(n, n, n, 3)
    rng = np.random.default_rng(4)
    img = rng.integers(40, 216, (6, 7, 3), dtype=np.uint8)
    out = apply_color_map(img, centers, n)
    np.testing.assert_array_equal(out, img)


def test_apply_color_map_constant_map():
    n = 4
    tmap = np.broadcast_to(np.array([0.2, 0.4, 0.6]), (n, n, n, 3)).copy()
    img = np.random.default_rng(5).integers(0, 256, (3, 3, 3), dtype=np.uint8)
    out = apply_color_map(img, tmap, n)
    expect = np.rint(np.array([0.2, 0.4, 0.6]) * 255).astype(np.uint8)
    assert (out == expect).all()


def test_apply_color_map_shape_check():
    with pytest.raises(ValueError):
        apply_color_map(np.zeros((2, 2, 3), dtype=np.uint8), np.zeros((3, 3, 3, 3)), 4)


# --- bilateral smoothing ----------------------------------------------------------


def brute_force_bilateral(imgf, ss, sr, guidef):
    h, w = imgf.shape[:2]
    radius = int(math.ceil(3.0 * ss))
    out = np.zeros_like(imgf)
    for y in range(h):
        for x in range(w):
            acc = np.zeros(imgf.shape[2])
            wacc = 0.0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    yy, xx = y + dy, x + dx
                    if not (0 <= yy < h and 0 <= xx < w):
                        continue
                    sw = math.exp(-(dx * dx + dy * dy) / (2 * ss * ss))
                    gd = float(np.sum((guidef[y, x] - guidef[yy, xx]) ** 2))
                    wgt = sw * math.exp(-gd / (2 * sr * sr))
                    acc += wgt * imgf[yy, xx]
                    wacc += wgt
            out[y, x] = acc / wacc
    return out


def plane_bilateral(imgf, ss, sr, guidef=None):
    """``_bilateral_float`` on (h, w, C) arrays; no guide reuses the image planes."""
    img = np.ascontiguousarray(np.moveaxis(imgf, -1, 0))
    guide = img if guidef is None else np.ascontiguousarray(np.moveaxis(guidef, -1, 0))
    return np.moveaxis(_bilateral_float(img, ss, sr, guide), 0, -1)


def test_bilateral_matches_brute_force():
    rng = np.random.default_rng(6)
    imgf = rng.uniform(size=(6, 5, 3))
    guidef = rng.uniform(size=(6, 5, 3))
    out = plane_bilateral(imgf, 1.0, 0.2, guidef)
    ref = brute_force_bilateral(imgf, 1.0, 0.2, guidef)
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_bilateral_constant_guide_is_plain_blur():
    rng = np.random.default_rng(7)
    imgf = rng.uniform(size=(5, 5, 3))
    guidef = np.full((5, 5, 3), 0.5)
    out = plane_bilateral(imgf, 0.8, 0.1, guidef)
    ref = brute_force_bilateral(imgf, 0.8, 0.1, guidef)
    np.testing.assert_allclose(out, ref, atol=1e-12)


@pytest.mark.parametrize("shape, spatial_sigma", [
    ((4, 7, 3), 2.0),  # radius 6 exceeds both sides
    ((1, 9, 3), 1.0),
    ((9, 1, 3), 1.0),
    ((1, 1, 3), 1.0),
    ((5, 6, 1), 1.0),
    ((5, 6, 4), 1.0),
])
def test_bilateral_matches_brute_force_on_edge_shapes(shape, spatial_sigma):
    rng = np.random.default_rng(9)
    imgf = rng.uniform(size=shape)
    guidef = rng.uniform(size=shape)
    out = plane_bilateral(imgf, spatial_sigma, 0.3, guidef)
    ref = brute_force_bilateral(imgf, spatial_sigma, 0.3, guidef)
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_bilateral_without_guide_is_self_guided():
    rng = np.random.default_rng(10)
    img = rng.integers(0, 256, (6, 7, 3), dtype=np.uint8)
    imgf = img / 255.0
    ref = brute_force_bilateral(imgf, 1.0, 0.2, imgf)
    np.testing.assert_allclose(plane_bilateral(imgf, 1.0, 0.2), ref, atol=1e-12)
    expect = np.clip(np.rint(ref * 255.0), 0, 255).astype(np.uint8)
    np.testing.assert_array_equal(bilateral_smooth(img, 1.0, 0.2), expect)


def test_bilateral_preserves_strong_edges():
    img = np.zeros((8, 8, 3), dtype=np.uint8)
    img[:, 4:] = 255
    out = bilateral_smooth(img, spatial_sigma=1.5, range_sigma=0.05)
    # self-guided smoothing must not blur across the black/white edge
    np.testing.assert_array_equal(out[:, :4], 0)
    np.testing.assert_array_equal(out[:, 4:], 255)


def test_bilateral_smooths_weak_noise():
    rng = np.random.default_rng(8)
    base = np.full((10, 10, 3), 128.0)
    noisy = np.clip(base + rng.normal(0, 6, base.shape), 0, 255).astype(np.uint8)
    out = bilateral_smooth(noisy, spatial_sigma=2.0, range_sigma=0.3)
    assert out.astype(float).std() < noisy.astype(float).std()


def test_bilateral_guide_shape_check():
    img = np.zeros((4, 4, 3), dtype=np.uint8)
    with pytest.raises(ValueError):
        bilateral_smooth(img, guide=np.zeros((5, 5, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        bilateral_smooth(img, spatial_sigma=0.0)


@pytest.mark.parametrize("sigmas", [
    (math.nan, 0.1), (math.inf, 0.1), (-1.0, 0.1),
    (3.0, math.nan), (3.0, math.inf), (3.0, 0.0),
])
def test_bilateral_rejects_bad_sigmas(sigmas):
    with pytest.raises(ValueError, match="sigmas"):
        bilateral_smooth(np.zeros((4, 4, 3), dtype=np.uint8), *sigmas)


@pytest.mark.parametrize("shape", [(4, 4), (4,), (2, 4, 4, 3)])
def test_bilateral_rejects_non_image_arrays(shape):
    with pytest.raises(ValueError, match="image must be"):
        bilateral_smooth(np.zeros(shape, dtype=np.uint8))
