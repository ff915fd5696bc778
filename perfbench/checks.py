"""Output checks that do not compare against stored program output.

Each check returns a list of problems; an empty list means the output
passed.  The references are built here from the documented method, not
from otgrid: the diffusion matrix M = Id - (eps/4S) sum_a (n_a-1)^2 L_a at
unit weights, its kernel K = M^-S, and the fixed-iteration barycenter loop
of ``otgrid.barycenter``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


def unit_diffusion_matrix(dims, epsilon, substeps):
    """Sparse M for unit edge weights on a grid with ``dims`` vertices per axis."""
    c = epsilon / (4.0 * substeps)
    lap = sp.csr_matrix((int(np.prod(dims)),) * 2)
    for a, n in enumerate(dims):
        path = sp.diags([np.ones(n - 1), -np.r_[1.0, 2.0 * np.ones(n - 2), 1.0],
                         np.ones(n - 1)], [-1, 0, 1])
        factors = [sp.identity(m) for m in dims]
        factors[a] = path * (n - 1) ** 2
        term = factors[0]
        for f in factors[1:]:
            term = sp.kron(term, f)
        lap = lap + term
    return (sp.identity(lap.shape[0]) - c * lap).tocsc()


def dense_kernel(dims, epsilon, substeps):
    """K = M^-S as a dense matrix (small grids)."""
    m = unit_diffusion_matrix(dims, epsilon, substeps).toarray()
    k = np.eye(m.shape[0])
    for _ in range(substeps):
        k = np.linalg.solve(m, k)
    return k


def kernel_columns(dims, epsilon, substeps, vertices):
    """K e_v for each vertex index v, as rows of the result."""
    lu = splu(unit_diffusion_matrix(dims, epsilon, substeps))
    x = np.zeros((int(np.prod(dims)), len(vertices)))
    x[list(vertices), range(len(vertices))] = 1.0
    for _ in range(substeps):
        x = lu.solve(x)
    return x.T


def barycenter_l2_fit(kernel, frames, iters):
    """Sum over frames i of ||b(t_i) - h_i||^2, b the documented barycenter.

    The endpoints are the first and last frame, t_i = i/(P-1), and each
    barycenter runs ``iters`` sweeps from v = 1:
    u_r = a_r/(K v_r), b = prod_r (K u_r)^lam_r, v_r = b/(K u_r).
    """
    frames = np.asarray(frames, dtype=np.float64)
    ends = frames[[0, -1]]
    total = 0.0
    for i, t in enumerate(np.linspace(0.0, 1.0, len(frames))):
        lam = np.array([1.0 - t, t])
        v = np.ones_like(ends)
        for _ in range(iters):
            u = ends / (v @ kernel.T)
            ku = u @ kernel.T
            b = np.exp(lam @ np.log(ku))
            v = b / ku
        diff = b - frames[i]
        total += float(diff @ diff)
    return total


# -- desk-learn --------------------------------------------------------------


def check_learn_log(text, reference, rel_tol=1e-9):
    """The CSV log of ``otgrid learn`` started from unit weights.

    Iteration 0 must carry the reference objective, the objective must not
    increase, and the log must end with a status line.
    """
    problems = []
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    if not rows or not lines[-1].startswith("# status="):
        return ["learn log has no iteration rows or no status line"]
    values = [float(r[1]) for r in rows]
    if int(rows[0][0]) != 0:
        problems.append("learn log does not start at iteration 0")
    err = abs(values[0] - reference) / abs(reference)
    if not err <= rel_tol:
        problems.append("iteration-0 objective %.17g differs from the dense reference "
                        "%.17g by %.3g relative" % (values[0], reference, err))
    if any(b > a for a, b in zip(values, values[1:])):
        problems.append("objective increased: %s" % values)
    return problems


def check_weights(fields):
    """Learned weight fields must be finite and strictly positive."""
    problems = []
    for a, f in enumerate(fields):
        if not np.isfinite(f).all() or not (f > 0).all():
            problems.append("learned weights on axis %d are not finite and positive" % a)
    return problems


def check_directional_derivative(f_plus, f_minus, h, grad_dot_d, rel_tol=1e-6):
    """Central difference (f(x+hd) - f(x-hd)) / 2h against grad . d."""
    fd = (f_plus - f_minus) / (2.0 * h)
    err = abs(fd - grad_dot_d) / max(abs(fd), abs(grad_dot_d), 1e-300)
    if err <= rel_tol:
        return []
    return ["directional derivative %.12g against grad.d %.12g (%.3g relative)"
            % (fd, grad_dot_d, err)]


# -- row-interp-50 -------------------------------------------------------------


def check_dirac_interpolation(frames, k0, k1, axis, rel_tol=1e-9):
    """Frames between Diracs at r0, r1 against normalize(k0^(1-t) k1^t).

    ``frames`` are the grid-shaped outputs at t = linspace(0, 1, P) and
    k0 = K r0, k1 = K r1 flattened.  For Dirac endpoints every u_r is a
    scaled Dirac, so this holds exactly whatever the sweep count.  Each
    frame must also carry unit mass, and its argmax must move strictly
    monotonically along ``axis`` from r0 toward r1.
    """
    problems = []
    log0, log1 = np.log(k0), np.log(k1)
    positions = []
    for i, t in enumerate(np.linspace(0.0, 1.0, len(frames))):
        f = np.asarray(frames[i])
        mass = float(f.sum())
        if abs(mass - 1.0) > 1e-12:
            problems.append("frame %d has mass %.17g" % (i, mass))
        flat = f.ravel()
        if not (flat > 0).all():
            problems.append("frame %d has entries <= 0" % i)
            continue
        pred = (1.0 - t) * log0 + t * log1
        pred -= np.log(np.sum(np.exp(pred - pred.max()))) + pred.max()
        err = float(np.abs(np.log(flat) - pred).max())
        if not err <= rel_tol:
            problems.append("frame %d differs from the kernel prediction by a log-ratio "
                            "of %.3g" % (i, err))
        positions.append(int(np.unravel_index(np.argmax(f), f.shape)[axis]))
    if len(positions) == len(frames):
        steps = np.diff(positions) * np.sign(positions[-1] - positions[0])
        if not (steps > 0).all():
            problems.append("argmax does not advance strictly: %s" % positions)
    return problems


# -- color-transfer-16 ---------------------------------------------------------


def histogram_mean(mass):
    """Mean color (0..255 scale) of an (n, n, n) histogram at its bin centers."""
    centers = (np.indices(mass.shape) + 0.5) / mass.shape[0] * 255.0
    return (centers * mass).reshape(3, -1).sum(axis=1)


def check_color_transfer(out, src, target_mass, max_share=0.1):
    """The recolored image's mean must move onto the palette's mean.

    Barycentric projection carries the source mean onto the target mean, so
    the output mean must lie within ``max_share`` of the source-to-target
    distance from the target mean.
    """
    if out.shape != src.shape or out.dtype != np.uint8:
        return ["output image is %r %s, expected %r uint8" % (out.shape, out.dtype, src.shape)]
    target = histogram_mean(target_mass)
    out_mean = out.reshape(-1, 3).mean(axis=0)
    src_mean = src.reshape(-1, 3).mean(axis=0)
    gap = np.linalg.norm(src_mean - target)
    miss = np.linalg.norm(out_mean - target)
    if miss <= max_share * gap:
        return []
    return ["output mean %s is %.1f from the palette mean %s (source mean %s, gap %.1f)"
            % (np.round(out_mean, 1).tolist(), miss, np.round(target, 1).tolist(),
               np.round(src_mean, 1).tolist(), gap)]
