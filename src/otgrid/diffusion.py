"""Implicit diffusion on weighted grids and its weight derivative.

The kernel is K = M^{-S} for M = Id - (eps/4S) * sum_a L_a(w) / h_a^2,
where L_a is the axis-a part of the weighted graph Laplacian and
h_a = 1/(n_a - 1) is the mesh size of a grid discretizing [0,1]^d.  One
application of K means S successive solves against a factorization of M
computed once at assembly.  M is symmetric positive definite and banded,
and its band is factored in the narrower of two vertex orders, both fixed
by the grid's shape.  In row-major order the widest coupling is along
axis 0, prod(dims[1:]) vertices apart.  Sorting the vertices by coordinate
sum, row-major within a sum, numbers them by level sets from a corner, as
Cuthill & McKee (1969) do; an edge joins consecutive levels, so the band
spans at most two of them, floor(3n^2/4 + n/2) at an n^3 cube, the grid
graph's bandwidth (FitzGerald 1974), against n^2.  Row-major order wins
ties, so square 2-D grids, and those whose first axis is the longest,
keep it.  Assembly writes M straight into LAPACK's upper band storage
from the edge list of ``grids.edge_vertices``, relabelled by position in
the chosen order: the axis-a edge (i, j), i < j, puts -(eps/4S) w_e / h_a^2
at M[i, j] and adds as much to the diagonal entries of i and j, which
start at 1.  No sparse M is formed (``grids.build_laplacian`` gives the
same M to tests).  M is factored once by LAPACK's banded Cholesky
(dpbtrf), and every solve, of a vector or of a column block, is one
dpbtrs call against that factor; on a reordered grid the right-hand side
is gathered into the factor's order and the result scattered back, so
every other vector the operator sees is in grid order.  M has unit row
sums, so K is stochastic (K 1 = 1) and, being symmetric, mass-preserving.

K approximates the lattice heat kernel exp(t' L) at the diffusion time
t' = eps (n-1)^2 / 4 in cell units (unit weights, n vertices per axis).
Its induced cost -eps log K is the squared geodesic distance of Varadhan's
formula only for distances up to about t' cells: along an axis
-log K(d) ~ t' phi(d/t') with phi(x) = x asinh(x/2) - sqrt(4 + x^2) + 2
= x^2/4 - x^4/192 + ..., which is sub-quadratic in the far tail.

An application takes a vector or an (F, N) block of one vector per row
and returns K v in the same layout, on one of two paths.  Its input must
be finite with N entries per row; anything else is a ValueError that
names N and the shape, on either path.  By default it
is S successive banded solves of the block's transpose, LAPACK's column
layout.  On a grid of at most DENSE_MAX vertices (read at assembly), the
first request for a gradient accumulator forms Minv = M^-1 with one
N-column solve and K = Minv^S by matrix products; from then on an
application is one product v K.  Only
differentiated operators pay for K: a forward-only caller
(interpolation, color transfer) makes few enough applications per
assembly that its N^3 products need not pay off (a 30x30 interpolation
and a 10^3 color transfer ran slower with them), so it stays on the
solves.  M is an M-matrix, so Minv is entrywise nonnegative and every
entry of K, a product of nonnegative factors, is positive and accurate
to relative rounding (no eigendecomposition, whose cancellation gives
negative entries).  Where a lower bound on the entries of K falls near
the underflow range (tiny eps, where the products would lose terms that
the solves keep), K is not formed and the solves stay.

The derivative of a scalar through one application of K to x, with
downstream gradient g, has a closed form.  With x_l = M^-l x and
g_l = M^-l g, the derivative with respect to the weight of edge (i, j) on
axis a is

    -(eps/4S) / h_a^2 * sum_{k=1..S} (g_k[i] - g_k[j]) * (x_(S+1-k)[i] - x_(S+1-k)[j])

(the leading minus is pinned by finite differences; see the tests).  For
a block of vectors (one per frame) the derivative is the sum over them.
On the solve path the states x_l are not taped: ``adjoint_weights(x, g)``
rebuilds them by one chain of S solves on x, just before one chain of S
solves on g gives every g_k and, as its last state, K g, the input
adjoint (K is symmetric).  That is sweep-level checkpointing
(Griewank & Walther 2008, *Evaluating Derivatives*, ch. 12): one more
S-solve chain per differentiated application buys a tape S times
smaller.  On the dense path the sum is the edge quadratic form
G_ii + G_jj - G_ij - G_ji of

    G = sum_{k=1..S} Minv^k A Minv^(S+1-k),   A = g x^T,

the adjoint of the Frechet derivative of X -> X^-S (Higham 2008,
*Functions of Matrices*, ch. 3).  G is linear in A, so the weight gradient
of any number of applications follows from their summed A.  Each pull
adds its g^T x into A in place, by one BLAS gemm with no N x N
temporary.  The edge form needs only G + G^T = X T(S) X, where X = Minv,
A_s = A + A^T and T(m) = sum_{k<m} X^k A_s X^(m-1-k) is symmetric; T(S)
is built by doubling over the bits of S, as a matrix power is:

    T(2m) = Y + Y^T,  Y = P T(m);    T(m+1) = (Y + Y^T) / 2,  Y = X T(m) + A_s P

with P = X^m: one product per doubling and per squaring of P, three per
added one, and one for X T(S), whose row dots with rows of X give the
entries of X T(S) X that the edge form reads.  That is 11 N x N products
at S = 20 instead of the 2S = 40 of the sum term by term.
``DiffusionOperator.gradient_accumulator`` hides which of the two paths
runs.

Importing this module runs numpy's and scipy's bundled OpenBLAS on one
thread for the whole process: OpenBLAS splits a product's sums by thread,
so a result's bytes, and the speed of the small products here, would
otherwise depend on OPENBLAS_NUM_THREADS or the core count.  A build
without that bundled library, or whose library lacks the setter, is left
unpinned with a UserWarning that names the package.
"""

from __future__ import annotations

import ctypes
import glob
import warnings

import numpy as np
import scipy
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .grids import GridSpec, check_weights, edge_count, edge_vertices, field_sizes, field_slices


def _pin_blas_threads():
    """Run numpy's and scipy's bundled OpenBLAS on one thread (module
    docstring); warn, naming the package, where there is no setter."""
    for pkg, setter in ((np, "scipy_openblas_set_num_threads64_"),
                        (scipy, "scipy_openblas_set_num_threads")):
        pinned = False
        # the wheel's libraries sit beside the package, in numpy.libs or scipy.libs
        for path in glob.glob(pkg.__path__[0] + ".libs/libscipy_openblas*.so"):
            set_threads = getattr(ctypes.CDLL(path), setter, None)
            if set_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
                pinned = True
        if not pinned:
            warnings.warn("%s's BLAS thread count is not pinned (no bundled OpenBLAS with %s),"
                          " so results may depend on it" % (pkg.__name__, setter))


_pin_blas_threads()

# Largest grid whose differentiated K is applied as a dense matrix.  One
# desk-style evaluation (S = 20, 30 sweeps, 7 frames, one BLAS thread, a
# shared 2-core box) took 0.67-0.77 s dense against 1.74-1.97 s on the
# banded solves at 25^2, 1.36-1.59 s against 2.54-3.07 s at 30^2 and
# 2.09-2.17 s against 2.85-3.26 s at 32^2 = 1,024 vertices, but 3.4-3.6 s
# against 2.9-3.1 s at 36^2: the crossover lies between 32^2 and 36^2.
DENSE_MAX = 1024
# Each entry of a product of two N x N factors sums N partial products, and
# one that underflows loses at most the smallest normal float.  An entry at
# least DENSE_MAX/eps times that float has so lost at most relative
# rounding.  Only a K whose lower bound, from the entries of Minv, clears
# it is formed.
_KERNEL_FLOOR = DENSE_MAX * np.finfo(np.float64).tiny / np.finfo(np.float64).eps


class AssemblyError(ValueError):
    """Positive, finite weights that give no factor of M in float64: an entry
    of M overflows, or its Cholesky factorization fails."""


def _kernel_input(x, n: int) -> np.ndarray:
    """``x`` as float64: a finite vector of ``n`` entries, or a block of rows
    of ``n`` entries each, else ValueError; the one rule of every kernel
    application."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ValueError("kernel input must be a vector or rows of N = %d entries, got shape %r"
                         % (n, x.shape))
    if not np.isfinite(x).all():
        raise ValueError("non-finite input to kernel application")
    return x


def _band_order(spec: GridSpec, i: np.ndarray, j: np.ndarray):
    """The narrower band of M's two vertex orders: ``(perm, ri, rj, kd)``.

    ``perm`` is None for row-major order, else the vertices sorted by
    coordinate sum, row-major within a sum; ``ri`` and ``rj`` are the
    positions of the edge ends ``i`` and ``j`` in that order, and ``kd`` is
    the band's height above the diagonal, the widest gap over the edges.
    Row-major order wins ties.
    """
    rowmajor_kd = spec.num_vertices // spec.dims[0]
    perm = np.argsort(np.indices(spec.dims).sum(axis=0), axis=None, kind="stable")
    rank = np.empty_like(perm)
    rank[perm] = np.arange(perm.size)
    ri, rj = rank[i], rank[j]
    kd = int((rj - ri).max())
    if kd < rowmajor_kd:
        return perm, ri, rj, kd
    return None, i, j, rowmajor_kd


class DiffusionOperator:
    """The banded Cholesky factor of M, and kernel and adjoint applications.

    The factor is fixed at construction, which raises ValueError when the
    weight vector has the wrong length or a non-positive entry, and its
    subclass AssemblyError when M has an entry that overflows or is not
    positive definite in float64; M itself is not
    kept.  ``kernel`` is None until the first ``gradient_accumulator`` call
    forms the dense K, read-only, on a grid of at most DENSE_MAX vertices
    whose K stays clear of underflow.
    """

    def __init__(self, spec: GridSpec, w, epsilon: float, substeps: int):
        if not 0 < epsilon < np.inf:  # NaN fails here too
            raise ValueError("epsilon must be finite and > 0, got %r" % (epsilon,))
        if substeps < 1:
            raise ValueError("substeps must be >= 1")
        w = check_weights(spec, w)
        self.spec = spec
        self.epsilon = float(epsilon)
        self.substeps = int(substeps)
        self.c = self.epsilon / (4.0 * self.substeps)
        n = spec.num_vertices
        self._i, self._j = i, j = edge_vertices(spec)
        # 1 / h_a^2 = (n_a - 1)^2 of each edge's axis
        inv_h2 = np.repeat([float((n_a - 1) ** 2) for n_a in spec.dims], field_sizes(spec))
        # the edge ends' positions ri < rj in the factor's vertex order
        self._perm, ri, rj, kd = _band_order(spec, i, j)
        # an entry that overflows fails the finiteness checks below
        with np.errstate(over="ignore"):
            self._coeff = self.c * inv_h2
            scaled = w * inv_h2
            # M = Id - c L(scaled) in upper band storage: M[ri, rj] at band[kd + ri - rj, rj]
            band = np.zeros((kd + 1, n), order="F")
            band[kd + ri - rj, rj] = -self.c * scaled
            # degrees summed axis by axis; a vertex is the lower end of at most
            # one edge per axis, and the upper end of at most one
            deg = np.zeros(n)
            for sl in field_slices(spec):
                deg[ri[sl]] += scaled[sl]
                deg[rj[sl]] += scaled[sl]
            band[kd] = 1.0 + self.c * deg
        if not np.isfinite(self._coeff).all():
            raise AssemblyError("diffusion matrix has non-finite entries: epsilon %r too large"
                                " for this grid" % self.epsilon)
        # LAPACK's Cholesky passes NaN and inf through without complaint; the
        # diagonal entry bounds its row
        if not np.isfinite(band[kd]).all():
            raise AssemblyError("diffusion matrix has non-finite entries: weights too large")
        self._cholesky, info = dpbtrf(band, overwrite_ab=1)
        if info != 0:
            raise AssemblyError("diffusion matrix factorization failed: LAPACK info %d" % info)
        self._minv = self.kernel = None
        # K is formed, where allowed, by the first gradient_accumulator()
        self._kernel_pending = n <= DENSE_MAX

    @property
    def num_vertices(self) -> int:
        return self.spec.num_vertices

    def solve(self, b: np.ndarray) -> np.ndarray:
        """One backward-Euler substep: solve M x = b for a vector or an
        (N, k) block in grid order, by the banded Cholesky factor; ``b`` is
        not changed.  On a grid factored in coordinate-sum order, one
        dpbtrs call solves a Fortran copy of ``b`` gathered into that order
        in place, and its result is scattered back.  ValueError unless
        ``b`` has N rows, or where LAPACK rejects it."""
        if np.shape(b)[:1] != (self.num_vertices,):
            raise ValueError("solve needs N = %d rows, got shape %r"
                             % (self.num_vertices, np.shape(b)))
        perm = self._perm
        if perm is None:
            x, info = dpbtrs(self._cholesky, b)
        else:
            bp = np.take(np.asarray(b, dtype=np.float64), perm, axis=0,
                         out=np.empty(np.shape(b), order="F"))
            xp, info = dpbtrs(self._cholesky, bp, overwrite_b=1)
            x = np.empty_like(xp)
            x[perm] = xp
        if info != 0:
            raise ValueError("banded solve of a %r block failed: LAPACK info %d"
                             % (np.shape(b), info))
        return x

    def apply(self, v) -> np.ndarray:
        """K v for a vector or an (F, N) block of one vector per row, in the
        layout of ``v``: v K with a dense K (K is symmetric), else S solves
        of the transpose."""
        v = _kernel_input(v, self.num_vertices)
        if self.kernel is not None:
            return v @ self.kernel
        x = v.T
        for _ in range(self.substeps):
            x = self.solve(x)
        return x.T

    def adjoint_input(self, g: np.ndarray) -> np.ndarray:
        """Pull a gradient back through the kernel; K is symmetric, so K g."""
        return self.apply(g)

    def adjoint_weights(self, x, g):
        """Both vector-Jacobian products of <g, K x> from two solve chains.

        ``x`` and ``g`` are vectors or (F, N) blocks of the same shape.  One
        chain of S solves rebuilds the states M^-l x, and one more pulls g
        back.  Returns ``(K g, dw)``: the gradient pulled back to x and the
        per-edge weight gradient, summed over the rows.
        """
        x, g = np.asarray(x, dtype=np.float64), np.asarray(g, dtype=np.float64)
        if x.shape != g.shape:
            raise ValueError("input %r and gradient %r differ in shape" % (x.shape, g.shape))
        x, g = _kernel_input(x, self.num_vertices), _kernel_input(g, self.num_vertices)
        xt, gt, states = x.T, g.T, []
        for _ in range(self.substeps):
            xt = self.solve(xt)
            states.append(xt.T)
        i, j = self._i, self._j
        acc = np.zeros(len(i))
        for xk in reversed(states):
            gt = self.solve(gt)
            gk = gt.T  # rows as in x; np.take gathers along them, the fast direction
            dg = np.take(gk, j, axis=-1) - np.take(gk, i, axis=-1)
            dg *= np.take(xk, j, axis=-1) - np.take(xk, i, axis=-1)
            acc += dg.reshape(-1, len(i)).sum(axis=0)
        return gt.T, -self._coeff * acc

    def gradient_accumulator(self):
        """A fresh sum of weight gradients over many kernel applications.

        ``pull(g, x)`` returns K g for the application of K to x (any block
        of rows, one vector per row) with downstream gradient g, and adds
        that application's weight gradient; ``finalize()``, called once,
        returns the summed per-edge gradient.  The first call forms the
        dense K where the operator allows one, so applications after it,
        the forward passes to be differentiated included, use it.
        """
        if self._kernel_pending:
            self._kernel_pending = False
            minv = self.solve(np.eye(self.num_vertices))
            # K >= Minv * min(diag Minv)^(S-1) entrywise (the path that
            # waits at its end).  Below the floor the products would lose
            # terms that the solves keep, and crawl through subnormals.
            if minv.min() * np.diagonal(minv).min() ** (self.substeps - 1) >= _KERNEL_FLOOR:
                self._minv = minv
                self.kernel = np.linalg.matrix_power(minv, self.substeps)
                self.kernel.flags.writeable = False
        if self.kernel is None:
            return _ChainGradient(self)
        return _DenseGradient(self)

    def dense_kernel(self) -> np.ndarray:
        """K as a dense matrix: the formed, read-only K once the operator
        has one, else an N-column block through S banded solves (small N
        only)."""
        if self.kernel is not None:
            return self.kernel
        return self.apply(np.eye(self.num_vertices))


class _ChainGradient:
    """Solve path: per application, one S-solve chain rebuilds the states of
    x and one more pulls g back; their dw are summed."""

    def __init__(self, op: DiffusionOperator):
        self._op = op
        self._dw = np.zeros(edge_count(op.spec))

    def pull(self, g, x):
        kg, dw = self._op.adjoint_weights(x, g)
        self._dw += dw
        return kg

    def finalize(self) -> np.ndarray:
        return self._dw


class _DenseGradient:
    """Dense path: each pull adds its g^T x into A = sum g x^T in place, and
    G(A) is formed once in ``finalize``."""

    def __init__(self, op: DiffusionOperator):
        n = op.num_vertices
        self._op = op
        self._a = np.zeros((n, n))

    def pull(self, g, x):
        kg = self._op.apply(g)
        g, x = np.asarray(g, dtype=np.float64), np.asarray(x, dtype=np.float64)
        if x.shape != g.shape:
            raise ValueError("input %r and gradient %r differ in shape" % (x.shape, g.shape))
        x = _kernel_input(x, self._op.num_vertices)  # finite, as on the solve path
        # A^T += x^T g, written through A.T, the Fortran view of A: dgemm
        # adds into c in place only when c is Fortran-contiguous (else it
        # returns a copy), and x.T and g.T are Fortran views of the rows
        dgemm(1.0, x.T, g.T, beta=1.0, c=self._a.T, trans_b=1, overwrite_c=1)
        return kg

    def finalize(self) -> np.ndarray:
        # drop the operator, so that K is freed before the products unless
        # a caller still holds it
        op, self._op = self._op, None
        x, spec, coeff, substeps, i, j = op._minv, op.spec, op._coeff, op.substeps, op._i, op._j
        del op
        # T(m) by doubling over the bits of S (module docstring), from
        # T(1) = A_s and P = X; t, p and w are reused buffers, and the
        # last update of P is skipped
        a, self._a = self._a, None
        a += a.T
        t = a.copy()
        p = x.copy()
        w = np.empty_like(a)
        bits = bin(substeps)[3:]
        for n, bit in enumerate(bits, 1):
            np.matmul(p, t, out=w)
            np.add(w, w.T, out=t)
            if bit == "1" or n < len(bits):
                np.matmul(p, p, out=w)
                p, w = w, p
            if bit == "1":
                np.matmul(x, t, out=w)
                np.matmul(a, p, out=t)
                w += t
                np.add(w, w.T, out=t)
                t *= 0.5
                if n < len(bits):
                    np.matmul(p, x, out=w)
                    p, w = w, p
        # the edge form needs only the diagonal of H = G + G^T = (X T) X and
        # its entries H[i, j] at the edges: row dots of X T with rows of X.
        # The edges of one axis join vertices a fixed step apart.
        np.matmul(x, t, out=w)
        diag = np.einsum("ij,ij->i", w, x)
        across = np.empty(len(i))
        for sl in field_slices(spec):
            step = j[sl.start] - i[sl.start]
            across[sl] = np.einsum("ij,ij->i", w[:-step], x[step:])[i[sl]]
        return -coeff * (0.5 * (diag[i] + diag[j]) - across)


def assemble(spec: GridSpec, w, epsilon: float, substeps: int) -> DiffusionOperator:
    """Build and factorize the diffusion operator for weights ``w``."""
    return DiffusionOperator(spec, w, epsilon, substeps)
