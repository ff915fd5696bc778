import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from otgrid import diffusion
from otgrid.diffusion import DENSE_GUARD, DENSE_MAX, DiffusionOperator, assemble
from otgrid.grids import (
    GridSpec,
    axis_fields,
    build_laplacian,
    constant_weights,
    edge_count,
    flatten_fields,
)


def reference_matrix(spec, w, epsilon, substeps):
    """M = Id - (eps/4S) L(w (n_a - 1)^2) from the sparse Laplacian, an
    oracle built apart from the operator's band assembly."""
    scaled = flatten_fields(f * (n - 1) ** 2 for f, n in zip(axis_fields(spec, w), spec.dims))
    lap = build_laplacian(spec, scaled)
    return sp.identity(spec.num_vertices) - epsilon / (4 * substeps) * lap


def two_node():
    # single edge, unit weight, eps=4, S=1: M = [[2,-1],[-1,2]]
    return DiffusionOperator(GridSpec((2,)), np.array([1.0]), 4.0, 1)


def test_two_node_kernel_closed_form():
    K = two_node().dense_kernel()
    np.testing.assert_allclose(K, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-15)


def test_two_node_solve_example():
    u = two_node().apply(np.array([1.0, 0.0]))
    np.testing.assert_allclose(u, [2 / 3, 1 / 3], atol=1e-15)


def test_two_node_cost_example():
    op = two_node()
    C = -op.epsilon * np.log(op.dense_kernel())
    assert C[0, 1] == pytest.approx(-4.0 * np.log(1.0 / 3.0), abs=1e-12)
    assert C[0, 1] == pytest.approx(4.394, abs=1e-3)


def test_two_node_weight_gradient_closed_form():
    # <g, K v> = (1+w)/(1+2w) at v=g=e1; derivative -1/(1+2w)^2 = -1/9 at w=1
    op = two_node()
    e1 = np.array([1.0, 0.0])
    _, dw = op.adjoint_weights(e1, e1)
    assert dw[0] == pytest.approx(-1.0 / 9.0, abs=1e-12)


def test_constructor_validation():
    spec = GridSpec((3, 3))
    with pytest.raises(ValueError):
        DiffusionOperator(spec, constant_weights(spec), 0.0, 5)
    with pytest.raises(ValueError):
        DiffusionOperator(spec, constant_weights(spec), 1.0, 0)
    with pytest.raises(ValueError, match="length"):
        DiffusionOperator(spec, constant_weights(spec)[:-1], 1.0, 5)
    for bad in (0.0, -1.0):
        w = constant_weights(spec)
        w[3] = bad
        with pytest.raises(ValueError, match="positive"):
            DiffusionOperator(spec, w, 1.0, 5)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf])
def test_constructor_names_a_non_finite_epsilon(epsilon):
    spec = GridSpec((3, 3))
    with pytest.raises(ValueError, match="epsilon must be finite"):
        DiffusionOperator(spec, constant_weights(spec), epsilon, 5)


def test_kernel_rows_sum_to_one():
    """M has zero row sums off identity, so K is stochastic: K 1 = 1."""
    rng = np.random.default_rng(2)
    spec = GridSpec((6, 5))
    w = rng.uniform(0.3, 3.0, edge_count(spec))
    op = assemble(spec, w, 1.2e-2, 7)
    ones = np.ones(spec.num_vertices)
    out = op.apply(ones)
    np.testing.assert_allclose(out, 1.0, atol=1e-12)


def test_kernel_symmetric_and_positive():
    rng = np.random.default_rng(3)
    spec = GridSpec((5, 4))
    w = rng.uniform(0.3, 3.0, edge_count(spec))
    K = assemble(spec, w, 4e-2, 6).dense_kernel()
    assert np.abs(K - K.T).max() < 1e-14
    assert K.min() > 0


def test_apply_matches_dense_kernel():
    rng = np.random.default_rng(4)
    spec = GridSpec((4, 4))
    w = rng.uniform(0.5, 2.0, edge_count(spec))
    op = assemble(spec, w, 2e-2, 5)
    v = rng.uniform(0.0, 1.0, 16)
    out = op.apply(v)
    np.testing.assert_allclose(out, op.dense_kernel() @ v, atol=1e-13)


def test_solve_is_single_substep():
    spec = GridSpec((4, 3))
    w = np.random.default_rng(5).uniform(0.5, 2.0, edge_count(spec))
    op = assemble(spec, w, 3e-2, 4)
    b = np.random.default_rng(6).normal(size=12)
    x = op.solve(b)
    M = reference_matrix(spec, w, 3e-2, 4)
    np.testing.assert_allclose(M @ x, b, atol=1e-12)


def test_adjoint_input_is_kernel_by_symmetry(monkeypatch):
    monkeypatch.setattr(diffusion, "DENSE_MAX", 0)  # the solve path's chains
    spec = GridSpec((4, 4))
    w = np.random.default_rng(7).uniform(0.5, 2.0, edge_count(spec))
    op = assemble(spec, w, 1e-2, 3)
    g = np.random.default_rng(8).normal(size=16)
    np.testing.assert_allclose(op.adjoint_input(g), op.apply(g), atol=0)
    # the fused product's last g-chain state is the same K g
    kg, _ = op.adjoint_weights(np.ones(16), g)
    np.testing.assert_allclose(kg, op.apply(g), atol=0)


def test_adjoint_weights_matches_finite_differences():
    rng = np.random.default_rng(10)
    spec = GridSpec((3, 4))
    m = edge_count(spec)
    w = rng.uniform(0.4, 2.5, m)
    v = rng.uniform(0.1, 1.0, 12)
    g = rng.uniform(0.1, 1.0, 12)
    op = assemble(spec, w, 2.5e-2, 4)
    _, adj = op.adjoint_weights(v, g)
    h = 1e-4
    for e in range(m):
        wp = w.copy()
        wp[e] += h
        wm = w.copy()
        wm[e] -= h
        fp = g @ assemble(spec, wp, 2.5e-2, 4).apply(v)
        fm = g @ assemble(spec, wm, 2.5e-2, 4).apply(v)
        fd = (fp - fm) / (2 * h)
        assert adj[e] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_adjoint_weights_rejects_mismatched_shapes(monkeypatch):
    """An input and a gradient of different shapes fail at the call, and at
    the pull of either path's accumulator (the gradient, its first argument,
    is a valid kernel input here)."""
    spec = GridSpec((3, 3))
    op = assemble(spec, constant_weights(spec), 1e-2, 3)
    with monkeypatch.context() as m:
        m.setattr(diffusion, "DENSE_MAX", 0)
        solves = assemble(spec, constant_weights(spec), 1e-2, 3)
    accs = [op.gradient_accumulator(), solves.gradient_accumulator()]
    assert op.kernel is not None and solves.kernel is None
    for x, g in ((np.ones(9), np.ones((1, 9))), (np.ones((2, 9)), np.ones((3, 9))),
                 (np.ones((2, 9)), np.ones((9, 2)))):
        with pytest.raises(ValueError, match="differ in shape"):
            op.adjoint_weights(x, g)
        for acc in accs:
            with pytest.raises(ValueError, match="differ in shape"):
                acc.pull(x, g)


def test_apply_rejects_non_finite():
    spec = GridSpec((3, 3))
    op = assemble(spec, constant_weights(spec), 1e-2, 2)
    v = np.ones(9)
    v[4] = np.nan
    with pytest.raises(ValueError):
        op.apply(v)


@pytest.mark.parametrize("dense", [False, True], ids=["solves", "dense"])
def test_pull_rejects_a_non_finite_input(monkeypatch, dense):
    """A NaN in the application's input, not only in its gradient, fails at
    the pull of either path's accumulator instead of giving a NaN weight
    gradient."""
    spec = GridSpec((3, 3))
    if not dense:
        monkeypatch.setattr(diffusion, "DENSE_MAX", 0)
    op = assemble(spec, constant_weights(spec), 1e-2, 2)
    acc = op.gradient_accumulator()
    assert (op.kernel is not None) == dense
    x = np.ones((2, 9))
    x[1, 4] = np.nan
    with pytest.raises(ValueError, match="non-finite input"):
        acc.pull(np.ones((2, 9)), x)


@pytest.mark.parametrize("dense", [False, True], ids=["solves", "dense"])
@pytest.mark.parametrize("shape", [(5,), (2, 5), (12,), (2, 12)])
def test_kernel_input_of_the_wrong_width_is_rejected(dense, shape):
    """A kernel input needs N entries per row on either path: LAPACK alone
    would solve a short one against nothing and the first N of a long one."""
    spec = GridSpec((3, 3))
    op = assemble(spec, constant_weights(spec), 1e-2, 2)
    if dense:
        op.gradient_accumulator()
    assert (op.kernel is not None) == dense
    x = np.ones(shape)
    with pytest.raises(ValueError, match=r"N = 9.*%s" % re.escape(repr(shape))):
        op.apply(x)
    with pytest.raises(ValueError, match=r"N = 9.*%s" % re.escape(repr(shape))):
        op.adjoint_weights(x, x)
    with pytest.raises(ValueError, match=r"N = 9"):
        op.solve(x.T)


def test_dense_kernel_is_the_formed_kernel():
    """Once a gradient accumulator has formed K, it is handed out as is; it
    matches the kernel of the S-solve chain, taken before K was formed."""
    rng = np.random.default_rng(12)
    spec = GridSpec((5, 6))
    op = assemble(spec, rng.uniform(0.3, 3.0, edge_count(spec)), 2e-2, 7)
    assert op.kernel is None
    chain = op.dense_kernel()
    assert chain.shape == (30, 30)
    op.gradient_accumulator()
    K = op.dense_kernel()
    assert K is op.kernel and not K.flags.writeable
    np.testing.assert_allclose(K, chain, rtol=1e-13, atol=0)


def test_dense_kernel_guard():
    spec = GridSpec((65, 65))  # 4225 > DENSE_GUARD
    assert spec.num_vertices > DENSE_GUARD
    op = assemble(spec, constant_weights(spec), 1e-2, 1)
    with pytest.raises(ValueError):
        op.dense_kernel()


def test_mass_is_conserved_by_symmetry():
    # columns sum to one because K is symmetric and stochastic
    rng = np.random.default_rng(11)
    spec = GridSpec((5, 5))
    w = rng.uniform(0.3, 3.0, edge_count(spec))
    op = assemble(spec, w, 1.2e-2, 10)
    v = rng.uniform(0.0, 1.0, 25)
    out = op.apply(v)
    assert out.sum() == pytest.approx(v.sum(), rel=1e-13)


@pytest.mark.parametrize("dims", [(4, 4), (6, 5, 4)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
def test_assembly_rejects_non_finite_matrix(dims, bad):
    """A NaN or inf weight, or one that overflows when scaled by (n-1)^2,
    leaves non-finite entries in M; assembly must refuse it rather than
    hand out an operator whose applications are NaN."""
    spec = GridSpec(dims)
    w = constant_weights(spec)
    w[edge_count(spec) // 2] = bad
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        assemble(spec, w, 1e-2, 3)


def test_assembly_names_an_epsilon_whose_coefficient_overflows():
    """eps / 4S times (n-1)^2 overflows for eps = 1e308 whatever the weights;
    assembly says so without a numpy warning, and does not blame the weights."""
    spec = GridSpec((10, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(diffusion.AssemblyError, match="epsilon 1e\\+308 too large"):
            assemble(spec, constant_weights(spec), 1e308, 1)


# Equivalence gate for the banded Cholesky factorization: a sparse LU of the
# same M, built here from the sparse Laplacian, is the reference.  Grids
# cover both vertex orders of the factor: row-major (9, 7x2, 5x6, 20^2) and
# by coordinate sum (2x7, 20x30, 6x5x4, 5x9x7, 16^3).
EQUIVALENCE_GRIDS = [(9,), (2, 7), (7, 2), (5, 6), (20, 30), (6, 5, 4), (5, 9, 7), (20, 20),
                     (16, 16, 16)]


def rel_diff(x, ref):
    return float(np.abs(x - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("dims", EQUIVALENCE_GRIDS, ids=lambda d: "x".join(map(str, d)))
def test_banded_solve_matches_sparse_lu(dims):
    spec = GridSpec(dims)
    n = spec.num_vertices
    rng = np.random.default_rng(n)
    w = np.exp(rng.normal(0.0, 0.3, edge_count(spec)))
    op = assemble(spec, w, 1.2e-2, 3)
    lu = splu(reference_matrix(spec, w, 1.2e-2, 3).tocsc())

    def reference_kernel(v):
        for _ in range(op.substeps):
            v = lu.solve(v)
        return v

    for b in (rng.normal(size=n), rng.normal(size=(n, 7))):
        b_before = b.copy()
        x = op.solve(b)
        assert x.shape == b.shape
        np.testing.assert_array_equal(b, b_before)
        assert rel_diff(x, lu.solve(b)) <= 1e-13
    v = rng.uniform(size=(n, 7))  # one column per vector, as the LU solves take them
    assert rel_diff(op.apply(v.T), reference_kernel(v).T) <= 1e-13
    if n > DENSE_MAX:
        return
    k_ref = reference_kernel(np.eye(n))
    assert rel_diff(op.dense_kernel(), k_ref) <= 1e-13  # S solves per column
    op.gradient_accumulator()
    assert op.kernel is not None
    assert rel_diff(op.apply(v.T), reference_kernel(v).T) <= 1e-13  # one product
    assert rel_diff(op.dense_kernel(), k_ref) <= 1e-13


# The band's height: prod(dims[1:]) + 1 rows in row-major order, and in
# coordinate-sum order at a cube n^3 the bandwidth of its grid graph,
# floor(3 n^2 / 4 + n / 2), plus one.
@pytest.mark.parametrize("dims, rows", [((16, 16, 16), 201), ((10, 10, 10), 81),
                                        ((20, 20), 21), ((50, 50), 51), ((30, 20), 21)])
def test_band_height(dims, rows):
    spec = GridSpec(dims)
    op = assemble(spec, constant_weights(spec), 1e-2, 2)
    assert op._cholesky.shape == (rows, spec.num_vertices)


def test_reordered_solve_of_a_fortran_block():
    # the (N, k) block apply passes, v.T of its (k, N) rows, on a grid
    # factored in coordinate-sum order
    spec = GridSpec((6, 5, 4))
    n = spec.num_vertices
    rng = np.random.default_rng(3)
    op = assemble(spec, rng.uniform(0.3, 3.0, edge_count(spec)), 2e-2, 4)
    assert op._cholesky.shape[0] < n // spec.dims[0] + 1
    b = rng.normal(size=(5, n)).T
    b_before = b.copy()
    x = op.solve(b)
    np.testing.assert_array_equal(b, b_before)
    assert x.shape == b.shape and x.flags.f_contiguous
    np.testing.assert_array_equal(x, np.column_stack([op.solve(col) for col in b.T]))


# Gate for the row layout: an application takes and returns (F, N) blocks of
# one vector per row, and a block is its rows applied one at a time.  On the
# solve path each row is one column of every dpbtrs call, which LAPACK solves
# column by column, so the rows agree bit for bit.  numpy hands a block
# product with the dense K to BLAS's gemm and a single vector to gemv, which
# sum in different orders, so there the rows agree to rounding.
ROW_GRIDS = [(5, 6), (4, 3, 5)]


@pytest.mark.parametrize("dims", ROW_GRIDS, ids=lambda d: "x".join(map(str, d)))
def test_solve_path_block_is_its_rows_bit_for_bit(dims):
    spec = GridSpec(dims)
    n = spec.num_vertices
    rng = np.random.default_rng(n)
    op = assemble(spec, rng.uniform(0.3, 3.0, edge_count(spec)), 2e-2, 4)
    assert op.kernel is None
    x = rng.uniform(0.1, 1.0, (5, n))
    g = rng.normal(size=(5, n))
    kx = op.apply(x)
    assert kx.shape == x.shape
    for row, k_row in zip(x, kx):
        np.testing.assert_array_equal(k_row, op.apply(row))
    kg, dw = op.adjoint_weights(x, g)
    np.testing.assert_array_equal(kg, op.apply(g))
    rows = [op.adjoint_weights(x_row, g_row) for x_row, g_row in zip(x, g)]
    for (kg_row, _), k_row in zip(rows, kg):
        np.testing.assert_array_equal(k_row, kg_row)
    assert rel_diff(dw, sum(dw_row for _, dw_row in rows)) <= 1e-13


@pytest.mark.parametrize("dims", ROW_GRIDS, ids=lambda d: "x".join(map(str, d)))
def test_dense_kernel_block_is_its_rows(dims):
    spec = GridSpec(dims)
    n = spec.num_vertices
    rng = np.random.default_rng(n)
    op = assemble(spec, rng.uniform(0.3, 3.0, edge_count(spec)), 2e-2, 4)
    op.gradient_accumulator()
    assert op.kernel is not None
    x = rng.uniform(0.1, 1.0, (5, n))
    kx = op.apply(x)
    np.testing.assert_array_equal(kx, x @ op.kernel)
    for row, k_row in zip(x, kx):
        assert rel_diff(k_row, op.apply(row)) <= 1e-14
    np.testing.assert_array_equal(op.adjoint_input(x), kx)


def test_import_pins_both_blas_pools_to_one_thread():
    """A fresh ``import otgrid.diffusion`` under OPENBLAS_NUM_THREADS=2 leaves
    numpy's and scipy's bundled OpenBLAS each on one thread."""
    script = "\n".join([
        "import ctypes, glob",
        "import numpy, scipy",
        "import otgrid.diffusion",
        "for pkg, getter in ((numpy, 'scipy_openblas_get_num_threads64_'),",
        "                    (scipy, 'scipy_openblas_get_num_threads')):",
        "    for path in glob.glob(pkg.__path__[0] + '.libs/libscipy_openblas*.so'):",
        "        get = getattr(ctypes.CDLL(path), getter)",
        "        get.argtypes, get.restype = [], ctypes.c_int",
        "        print(pkg.__name__, get())",
    ])
    proc = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                          text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS="2"))
    assert proc.stdout.splitlines() == ["numpy 1", "scipy 1"]


@pytest.mark.parametrize("library", [None, object()], ids=["no-library", "no-setter"])
def test_blas_pin_warns_where_it_cannot_pin(monkeypatch, library):
    """A numpy or scipy without the bundled OpenBLAS at the expected path,
    or one whose library lacks the thread setter, is named in a warning,
    not skipped in silence or ended in a traceback."""
    monkeypatch.setattr(diffusion.glob, "glob",
                        lambda pattern: [] if library is None else ["lib.so"])
    monkeypatch.setattr(diffusion.ctypes, "CDLL", lambda path: library)
    with pytest.warns(UserWarning) as rec:
        diffusion._pin_blas_threads()
    assert [str(w.message).split("'")[0] for w in rec] == ["numpy", "scipy"]
