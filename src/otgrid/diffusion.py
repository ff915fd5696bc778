"""Implicit diffusion on weighted grids and its weight derivative.

The kernel is K = M^{-S} for M = Id - (eps/4S) * sum_a L_a(w) / h_a^2,
where L_a is the axis-a part of the weighted graph Laplacian and
h_a = 1/(n_a - 1) is the mesh size of a grid discretizing [0,1]^d.  One
application of K means S successive sparse solves against a factorization
of M computed once at assembly.  M has unit row sums, so K is stochastic
(K 1 = 1) and, being symmetric, mass-preserving.

K approximates the lattice heat kernel exp(t' L) at the diffusion time
t' = eps (n-1)^2 / 4 in cell units (unit weights, n vertices per axis).
Its induced cost -eps log K is the squared geodesic distance of Varadhan's
formula only for distances up to about t' cells: along an axis
-log K(d) ~ t' phi(d/t') with phi(x) = x asinh(x/2) - sqrt(4 + x^2) + 2
= x^2/4 - x^4/192 + ..., which is sub-quadratic in the far tail.

Because each solve is recorded, the derivative of any scalar through a
kernel application has a closed form: with v_l the l-th intermediate
state of the forward solve chain and g_l = M^(l-S) g the matching states
of the chain run on the downstream gradient g, the derivative with
respect to the weight of edge (i, j) on axis a is

    -(eps/4S) / h_a^2 * sum_l (g_l[i] - g_l[j]) * (v_l[i] - v_l[j])

(the leading minus is pinned by finite differences; see the tests).  The
last state of the g-chain is M^-S g = K g, the input adjoint (K is
symmetric), so one chain of S solves yields both vector-Jacobian products.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .grids import GridSpec, build_laplacian, edge_count, field_shape, field_slices

DENSE_GUARD = 4096


def _finite(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("non-finite input to kernel application")
    return x


class DiffusionOperator:
    """Sparse factorized M with kernel and adjoint applications.

    Immutable after construction; a lock serializes the underlying
    triangular solves so concurrent callers are safe.
    """

    def __init__(self, spec: GridSpec, w, epsilon: float, substeps: int):
        if epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if substeps < 1:
            raise ValueError("substeps must be >= 1")
        w = np.asarray(w, dtype=np.float64)
        self.spec = spec
        self.epsilon = float(epsilon)
        self.substeps = int(substeps)
        self.c = self.epsilon / (4.0 * self.substeps)
        # per-axis coefficient c / h_a^2 with h_a = 1/(n_a - 1)
        self.axis_coeff = np.array(
            [self.c * (n - 1) ** 2 for n in spec.dims], dtype=np.float64
        )
        scaled = w.copy()
        for a, sl in enumerate(field_slices(spec)):
            scaled[sl] *= (spec.dims[a] - 1) ** 2
        lap = build_laplacian(spec, scaled)
        n = spec.num_vertices
        self.matrix = (sp.identity(n, format="csr") - self.c * lap).tocsr()
        try:
            self._lu = splu(self.matrix.tocsc())
        except RuntimeError as exc:  # singular / not SPD: corrupted weights
            raise ValueError("diffusion matrix factorization failed: %s" % exc) from exc
        self._lock = threading.Lock()

    @property
    def num_vertices(self) -> int:
        return self.spec.num_vertices

    def solve(self, b: np.ndarray) -> np.ndarray:
        """One backward-Euler substep: solve M x = b."""
        with self._lock:
            return self._lu.solve(b)

    def apply(self, v, record: bool = False):
        """Apply the kernel: u = M^{-S} v via S solves.

        Returns ``(u, states)``; ``states`` is None unless ``record`` is set,
        else the (S, N) array whose row l is M^{-(l+1)} v, so the last row
        equals ``u``.
        """
        v = _finite(v)
        states = np.empty((self.substeps, v.shape[0]), dtype=np.float64) if record else None
        x = v
        for l in range(self.substeps):
            x = self.solve(x)
            if record:
                states[l] = x
        return x, states

    def adjoint_input(self, g: np.ndarray) -> np.ndarray:
        """Pull a gradient back through the kernel; K is symmetric, so K g."""
        return self.apply(g)[0]

    def adjoint_weights(self, states: np.ndarray, g: np.ndarray):
        """Both vector-Jacobian products of <g, K v> from one solve chain.

        ``states`` is the recorded (S, N) array of K v.  Returns ``(K g, dw)``:
        the gradient pulled back to v and the per-edge weight gradient.
        """
        n = self.num_vertices
        if states.shape != (self.substeps, n):
            raise ValueError(
                "tape shape %r does not match operator (S=%d, N=%d)"
                % (states.shape, self.substeps, n)
            )
        g = _finite(g)
        dims = self.spec.dims
        d = self.spec.d
        acc = [np.zeros(field_shape(self.spec, a)) for a in range(d)]
        gcur = g
        for k in range(1, self.substeps + 1):
            gcur = self.solve(gcur)
            gv = gcur.reshape(dims)
            vv = states[self.substeps - k].reshape(dims)
            for a in range(d):
                acc[a] += np.diff(gv, axis=a) * np.diff(vv, axis=a)
        out = np.empty(edge_count(self.spec))
        for a, sl in enumerate(field_slices(self.spec)):
            out[sl] = (-self.axis_coeff[a]) * acc[a].ravel()
        return gcur, out

    def dense_kernel(self) -> np.ndarray:
        """K as a dense matrix. Small-N diagnostic only."""
        n = self.num_vertices
        if n > DENSE_GUARD:
            raise ValueError("dense kernel limited to N <= %d, got %d" % (DENSE_GUARD, n))
        return self.apply(np.eye(n))[0]

    def dense_cost(self) -> np.ndarray:
        """-eps * log K, the induced pairwise cost. Small-N diagnostic only."""
        with np.errstate(divide="ignore"):
            return -self.epsilon * np.log(self.dense_kernel())


def assemble(spec: GridSpec, w, epsilon: float, substeps: int) -> DiffusionOperator:
    """Build and factorize the diffusion operator for weights ``w``."""
    return DiffusionOperator(spec, w, epsilon, substeps)
