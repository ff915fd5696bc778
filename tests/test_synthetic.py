import numpy as np
import pytest

from otgrid.grids import GridSpec, axis_fields, constant_weights, edge_count, field_shape
from otgrid.tensorio import parse_object
from otgrid.synthetic import (
    Endpoints,
    MetricPattern,
    Region,
    dirac,
    forward_sequence,
    gaussian,
    render_metric,
)
from sequences import moving_gaussian_sequence


def test_dirac_basics():
    spec = GridSpec((4, 5))
    h = dirac(spec, (2, 3))
    assert h.sum() == 1.0
    assert h[np.ravel_multi_index((2, 3), (4, 5))] == 1.0
    assert np.count_nonzero(h) == 1


def test_dirac_validation():
    spec = GridSpec((4, 5))
    with pytest.raises(ValueError):
        dirac(spec, (4, 0))
    with pytest.raises(ValueError):
        dirac(spec, (1,))


def test_gaussian_normalized_and_centered():
    spec = GridSpec((9, 9))
    h = gaussian(spec, (4.0, 6.0), 1.2)
    assert h.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.unravel_index(np.argmax(h), (9, 9)) == (4, 6)
    grid = h.reshape(9, 9)
    # isotropic around an on-lattice center
    np.testing.assert_allclose(grid[3, 6], grid[5, 6], atol=1e-15)
    np.testing.assert_allclose(grid[4, 5], grid[4, 7], atol=1e-15)


def test_gaussian_validation():
    spec = GridSpec((5, 5))
    with pytest.raises(ValueError):
        gaussian(spec, (5.0, 0.0), 1.0)  # outside
    with pytest.raises(ValueError):
        gaussian(spec, (1.0, 1.0), 0.0)  # bad sigma
    with pytest.raises(ValueError):
        gaussian(spec, (1.0,), 1.0)  # wrong dimension


# --- metric patterns ---------------------------------------------------------


def test_render_metric_base_only():
    spec = GridSpec((5, 5))
    w = render_metric(spec, MetricPattern(base=1.7))
    np.testing.assert_array_equal(w, 1.7)


def test_render_metric_box_region():
    spec = GridSpec((6, 6))
    pattern = MetricPattern(
        base=1.0,
        regions=(Region(factor=0.1, shape="box", axes="all",
                        lo=(2.0, 2.0), hi=(3.5, 3.5)),),
    )
    w = render_metric(spec, pattern)
    fields = axis_fields(spec, w)
    # axis-0 edge between rows 2,3 at col 3: midpoint (2.5, 3) inside
    assert fields[0][2, 3] == pytest.approx(0.1)
    assert fields[0][0, 0] == pytest.approx(1.0)
    assert set(np.round(w, 12)) == {0.1, 1.0}


def test_render_metric_axis_restriction():
    spec = GridSpec((6, 6))
    pattern = MetricPattern(
        base=1.0,
        regions=(Region(factor=0.2, shape="box", axes="horizontal",
                        lo=(0.0, 0.0), hi=(5.0, 5.0)),),
    )
    w = render_metric(spec, pattern)
    fields = axis_fields(spec, w)
    np.testing.assert_array_equal(fields[0], 1.0)  # vertical untouched
    np.testing.assert_array_equal(fields[1], 0.2)


def test_render_metric_disk_and_smoothing():
    spec = GridSpec((10, 10))
    sharp = MetricPattern(
        base=1.0,
        regions=(Region(factor=0.05, shape="disk", axes="all",
                        center=(4.5, 4.5), radius=1.2),),
    )
    smooth = MetricPattern(base=sharp.base, regions=sharp.regions, smooth_radius=1)
    w_sharp = render_metric(spec, sharp)
    w_smooth = render_metric(spec, smooth)
    assert w_sharp.min() == pytest.approx(0.05)
    # smoothing keeps positivity, narrows the range, and preserves far field
    assert w_smooth.min() > 0.05
    assert w_smooth.max() <= 1.0 + 1e-12
    f = axis_fields(spec, w_smooth)[0]
    assert f[0, 0] == pytest.approx(1.0)


def test_render_metric_smoothing_keeps_constant_fields():
    spec = GridSpec((7, 7))
    w = render_metric(spec, MetricPattern(base=2.0, smooth_radius=2))
    np.testing.assert_allclose(w, 2.0, atol=1e-12)


def test_render_metric_validation():
    spec = GridSpec((4, 4))
    with pytest.raises(ValueError):
        render_metric(spec, MetricPattern(base=0.0))
    with pytest.raises(ValueError):
        render_metric(spec, MetricPattern(
            regions=(Region(factor=0.0, lo=(0, 0), hi=(1, 1)),)))
    with pytest.raises(ValueError):
        render_metric(spec, MetricPattern(
            regions=(Region(factor=0.5, shape="blob"),)))


def test_pattern_from_dict_roundtrip():
    doc = {
        "base": 2.0,
        "smooth_radius": 1,
        "regions": [
            {"factor": 0.1, "shape": "disk", "center": [3, 3], "radius": 1.5},
            {"factor": 4.0, "lo": [0, 0], "hi": [1, 1], "axes": [0]},
        ],
    }
    pattern = parse_object(MetricPattern, doc)
    assert pattern.base == 2.0
    assert pattern.smooth_radius == 1
    assert pattern.regions[0].shape == "disk"
    assert pattern.regions[0].center == (3.0, 3.0)
    assert pattern.regions[1].axes == (0,)
    assert pattern.endpoints == Endpoints()
    w = render_metric(GridSpec((6, 6)), pattern)
    assert (w > 0).all()


def test_endpoints_default_ends():
    """Left-out ends sit mid-grid, at the first and last index of the last axis."""
    spec = GridSpec((5, 8))
    r0, r1 = Endpoints(sigma=1.0).histograms(spec)
    np.testing.assert_array_equal(r0, gaussian(spec, (2.0, 0.0), 1.0))
    np.testing.assert_array_equal(r1, gaussian(spec, (2.0, 7.0), 1.0))
    r0, _ = Endpoints(sigma=1.0, start=(1.0, 3.0)).histograms(spec)
    np.testing.assert_array_equal(r0, gaussian(spec, (1.0, 3.0), 1.0))


def test_euclidean_weights_all_ones():
    """The Euclidean metric is the unweighted grid: every edge weight 1."""
    spec = GridSpec((4, 7))
    w = constant_weights(spec)
    assert w.shape == (edge_count(spec),)
    assert (w == 1.0).all()


# --- sequence generators -------------------------------------------------------


def test_forward_sequence_shape_and_mass():
    spec = GridSpec((8, 8))
    r0 = gaussian(spec, (3.5, 1.0), 1.0)
    r1 = gaussian(spec, (3.5, 6.0), 1.0)
    seq = forward_sequence(spec, constant_weights(spec), r0, r1, 5, 1.2e-2, 5, 10)
    assert seq.frames.shape == (5, 64)
    np.testing.assert_allclose(seq.frames.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(seq.timestamps, np.linspace(0, 1, 5))


def test_forward_sequence_mirror_symmetry():
    """Euclidean metric, mirrored Dirac endpoints: frame i mirrors frame P+1-i."""
    spec = GridSpec((9, 9))
    r0 = dirac(spec, (4, 1))
    r1 = dirac(spec, (4, 7))
    seq = forward_sequence(spec, constant_weights(spec), r0, r1, 5, 1.2e-2, 10, 25)
    for i in range(5):
        a = seq.frames[i].reshape(9, 9)
        b = seq.frames[4 - i].reshape(9, 9)[:, ::-1]
        assert np.abs(a - b).max() < 1e-8


def test_forward_sequence_needs_two_frames():
    spec = GridSpec((4, 4))
    r = gaussian(spec, (1.5, 1.5), 1.0)
    with pytest.raises(ValueError):
        forward_sequence(spec, constant_weights(spec), r, r, 1, 1e-2, 3, 5)


def test_moving_gaussian_two_waypoints():
    spec = GridSpec((9, 9))
    seq = moving_gaussian_sequence(spec, [(4.0, 1.0), (4.0, 7.0)], 1.0, 7)
    assert seq.frames.shape == (7, 81)
    np.testing.assert_allclose(seq.frames.sum(axis=1), 1.0, atol=1e-13)
    # centers advance linearly: frame 3 (t=0.5) peaks at column 4
    assert np.unravel_index(np.argmax(seq.frames[3]), (9, 9)) == (4, 4)
    assert np.unravel_index(np.argmax(seq.frames[0]), (9, 9)) == (4, 1)
    assert np.unravel_index(np.argmax(seq.frames[-1]), (9, 9)) == (4, 7)


def test_moving_gaussian_hits_middle_waypoint():
    spec = GridSpec((9, 9))
    seq = moving_gaussian_sequence(
        spec, [(1.0, 1.0), (7.0, 4.0), (1.0, 7.0)], 0.8, 5)
    # t=0.5 is the middle waypoint of a 3-point polyline
    assert np.unravel_index(np.argmax(seq.frames[2]), (9, 9)) == (7, 4)
