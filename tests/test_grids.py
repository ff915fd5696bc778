import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otgrid.grids import (
    GridSpec,
    axis_fields,
    build_laplacian,
    check_weights,
    constant_weights,
    edge_count,
    edge_vertices,
    field_shape,
    field_slices,
    flatten_fields,
    load_weights,
    parallel_difference,
    save_weights,
)

small_dims = st.lists(st.integers(2, 5), min_size=1, max_size=3).map(tuple)


def test_edge_count_closed_forms():
    assert edge_count(GridSpec((50, 50))) == 4900  # 2n(n-1)
    assert edge_count(GridSpec((16, 16, 16))) == 11520  # 3*15*16^2
    assert edge_count(GridSpec((2, 3))) == 1 * 3 + 2 * 2
    assert edge_count(GridSpec((7,))) == 6


@settings(max_examples=40, deadline=None)
@given(small_dims)
def test_edge_count_matches_field_shapes(dims):
    spec = GridSpec(dims)
    total = sum(int(np.prod(field_shape(spec, a))) for a in range(spec.d))
    assert edge_count(spec) == total


def test_grid_spec_rejects_degenerate_axes():
    with pytest.raises(ValueError):
        GridSpec((1, 4))
    with pytest.raises(ValueError):
        GridSpec(())


def test_axis_fields_roundtrip():
    spec = GridSpec((3, 4))
    w = np.arange(1.0, 1.0 + edge_count(spec))
    fields = axis_fields(spec, w)
    assert fields[0].shape == (2, 4)
    assert fields[1].shape == (3, 3)
    np.testing.assert_array_equal(flatten_fields(fields), w)


def test_constant_weights():
    spec = GridSpec((4, 5))
    w = constant_weights(spec, 2.5)
    assert w.shape == (edge_count(spec),)
    assert (w == 2.5).all()


# --- edge list --------------------------------------------------------------


def test_edge_vertices_2x3_pinned():
    # vertices [[0, 1, 2], [3, 4, 5]]: axis-0 edges first, then axis-1 edges
    i, j = edge_vertices(GridSpec((2, 3)))
    np.testing.assert_array_equal(i, [0, 1, 2, 0, 1, 3, 4])
    np.testing.assert_array_equal(j, [3, 4, 5, 1, 2, 4, 5])


@settings(max_examples=40, deadline=None)
@given(small_dims, st.integers(0, 2**31 - 1))
def test_edge_vertices_follow_axis_differences(dims, seed):
    """x[j] - x[i] is np.diff along each axis, in flat weight order."""
    spec = GridSpec(dims)
    x = np.random.default_rng(seed).normal(size=dims)
    i, j = edge_vertices(spec)
    assert (i < j).all()
    diffs = flatten_fields(np.diff(x, axis=a) for a in range(spec.d))
    np.testing.assert_array_equal(x.ravel()[j] - x.ravel()[i], diffs)


def test_laplacian_entries_sit_at_edge_vertices():
    spec = GridSpec((4, 3, 2))
    w = np.random.default_rng(1).uniform(0.2, 3.0, edge_count(spec))
    dense = build_laplacian(spec, w).toarray()
    i, j = edge_vertices(spec)
    np.testing.assert_array_equal(dense[i, j], w)
    np.testing.assert_array_equal(dense[j, i], w)
    dense[i, j] = dense[j, i] = 0.0
    np.fill_diagonal(dense, 0.0)
    assert not dense.any()


# --- Laplacian -------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(small_dims, st.integers(0, 2**31 - 1))
def test_laplacian_rows_sum_zero_and_symmetric(dims, seed):
    spec = GridSpec(dims)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 3.0, edge_count(spec))
    L = build_laplacian(spec, w)
    dense = L.toarray()
    np.testing.assert_allclose(dense.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_array_equal(dense, dense.T)
    # negative semi-definite: x'Lx <= 0
    x = rng.normal(size=spec.num_vertices)
    assert x @ (L @ x) <= 1e-10


def test_laplacian_hand_case_path_graph():
    # path on 3 vertices, weights (2, 5)
    L = build_laplacian(GridSpec((3,)), np.array([2.0, 5.0])).toarray()
    expect = np.array([[-2.0, 2.0, 0.0], [2.0, -7.0, 5.0], [0.0, 5.0, -5.0]])
    np.testing.assert_array_equal(L, expect)


def test_laplacian_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        build_laplacian(GridSpec((3,)), np.array([1.0, 0.0]))


def test_check_weights_rejects_nan():
    with pytest.raises(ValueError, match="strictly positive"):
        check_weights(GridSpec((3,)), np.array([1.0, np.nan]))


# --- parallel neighborhoods -------------------------------------------------


def parallel_neighbors(spec: GridSpec, e: int) -> list[int]:
    """Same-orientation edges one grid step away from edge ``e``.

    Neighbors are edges of the same axis whose field position differs by
    exactly +-1 along exactly one axis (including the edge's own axis);
    within each axis field this is the von Neumann stencil.  Boundary
    edges get fewer neighbors.  An edge-by-edge reference for
    ``parallel_difference``.
    """
    if not 0 <= e < edge_count(spec):
        raise IndexError("edge index %d out of range" % e)
    slices = field_slices(spec)
    a = next(a for a, sl in enumerate(slices) if e < sl.stop)
    fshape = field_shape(spec, a)
    offset = slices[a].start
    idx = np.unravel_index(e - offset, fshape)
    out = []
    for ax in range(spec.d):
        for step in (-1, 1):
            nidx = list(idx)
            nidx[ax] += step
            if 0 <= nidx[ax] < fshape[ax]:
                out.append(offset + int(np.ravel_multi_index(tuple(nidx), fshape)))
    return sorted(out)


def test_parallel_neighbors_2x2_pinned():
    """On a 2x2 grid each horizontal edge's only neighbor is the other one."""
    spec = GridSpec((2, 2))
    # axis-0 field shape (1,2) -> edges 0,1 vertical; axis-1 field (2,1) -> 2,3
    assert parallel_neighbors(spec, 2) == [3]
    assert parallel_neighbors(spec, 3) == [2]
    assert parallel_neighbors(spec, 0) == [1]
    assert parallel_neighbors(spec, 1) == [0]


def test_parallel_neighbors_interior_counts():
    spec = GridSpec((4, 4))
    counts = [len(parallel_neighbors(spec, e)) for e in range(edge_count(spec))]
    # interior edge of a 2-D grid: +-1 along each of the two axes -> 4
    assert max(counts) == 4
    assert min(counts) == 2  # corner edges


@settings(max_examples=25, deadline=None)
@given(small_dims)
def test_parallel_neighbors_symmetric(dims):
    spec = GridSpec(dims)
    for e in range(edge_count(spec)):
        for f in parallel_neighbors(spec, e):
            assert e in parallel_neighbors(spec, f)


def test_parallel_neighbors_same_axis_only():
    spec = GridSpec((3, 3))
    sizes = [int(np.prod(field_shape(spec, a))) for a in range(2)]
    for e in range(edge_count(spec)):
        axis_e = 0 if e < sizes[0] else 1
        for f in parallel_neighbors(spec, e):
            axis_f = 0 if f < sizes[0] else 1
            assert axis_e == axis_f


def test_parallel_neighbors_bad_index():
    with pytest.raises(IndexError):
        parallel_neighbors(GridSpec((2, 2)), 4)


def test_parallel_difference_2x2_pinned():
    """Horizontal weights (1,3), vertical equal -> horizontal part of |Dw|^2 is 8."""
    spec = GridSpec((2, 2))
    w = np.array([5.0, 5.0, 1.0, 3.0])  # vertical pair equal, horizontal (1,3)
    dw = parallel_difference(spec, w)
    np.testing.assert_array_equal(dw[:2], [0.0, 0.0])
    assert float(dw[2:] @ dw[2:]) == 8.0


def test_parallel_difference_inner_sum_then_square():
    # 1-D chain of 3 edges, w = (0,1,0): middle edge sums both differences
    spec = GridSpec((4,))
    dw = parallel_difference(spec, np.array([0.0, 1.0, 0.0]))
    np.testing.assert_array_equal(dw, [-1.0, 2.0, -1.0])
    assert float(dw @ dw) == 6.0


@settings(max_examples=25, deadline=None)
@given(small_dims, st.integers(0, 2**31 - 1))
def test_parallel_difference_matches_neighbor_enumeration(dims, seed):
    spec = GridSpec(dims)
    w = np.random.default_rng(seed).uniform(0.1, 2.0, edge_count(spec))
    dw = parallel_difference(spec, w)
    for e in range(edge_count(spec)):
        nbrs = parallel_neighbors(spec, e)
        assert dw[e] == pytest.approx(sum(w[e] - w[f] for f in nbrs), abs=1e-12)


def test_parallel_difference_constant_is_zero():
    spec = GridSpec((3, 3, 3))
    dw = parallel_difference(spec, constant_weights(spec, 1.7))
    np.testing.assert_array_equal(dw, 0.0)


# --- weight field IO ---------------------------------------------------------


def test_save_load_weights_roundtrip(tmp_path):
    spec = GridSpec((4, 3))
    w = np.random.default_rng(5).uniform(0.2, 4.0, edge_count(spec))
    save_weights(tmp_path / "w", spec, w)
    assert sorted(p.name for p in (tmp_path / "w").iterdir()) == [
        "weights_axis0.gmlt",
        "weights_axis1.gmlt",
    ]
    back = load_weights(tmp_path / "w", spec)
    np.testing.assert_array_equal(back, w)
