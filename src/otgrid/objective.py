"""The learning functional: data fit over interpolated frames + penalties.

For a sequence of observed histograms h_1..h_P with timestamps t_i, every
frame is compared against the displacement interpolation of the sequence
endpoints at its own timestamp.  At t = 0 and 1 that barycenter is K h_1
and K h_P in closed form, so the endpoint frames are reconstructed by one
kernel application and contribute a diffusion-blur floor, not zero.
The total over all sequences is

    E(w) = sum_seq sum_i loss(interp(h_1, h_P, t_i), h_i)
         + lambda_c * sum_e (w_e - 1)^2
         + lambda_s * ||D w||^2

optimized in the log domain: the caller supplies wlog, the gradient is
returned with respect to wlog (chain rule g = dE/dw * w).

The interior frames of a sequence share its endpoints, so they are one
barycenter call with one weight row (1 - t_i, t_i) per frame and one
backward pass; sequences run one after another.  Reduction order is fixed
and documented for bit-reproducibility: frame values accumulate in index
order into a per-sequence subtotal, subtotals then accumulate in sequence
order, regularizers are added last.  The weight gradients of all kernel
applications go, sequence by sequence, into one gradient accumulator that
is finalized once per evaluation.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import tensorio
from .barycenter import (DegeneracyWarning, _guard, barycenter, barycenter_backward,
                         check_distributions)
from .diffusion import AssemblyError, assemble
from .grids import GridSpec, parallel_difference
from .tensorio import LOSS_KINDS


@dataclass(frozen=True)
class Sequence:
    """Observed frames (P, N) plus timestamps in [0, 1]."""

    frames: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 2:
            raise ValueError("a sequence needs at least two frames")
        check_distributions(frames, "frames")
        ts = np.asarray(self.timestamps, dtype=np.float64)
        if ts.shape != (frames.shape[0],):
            raise ValueError("need one timestamp per frame")
        if not np.isfinite(ts).all():
            raise ValueError("timestamps have non-finite entries")
        if ts[0] != 0.0 or ts[-1] != 1.0 or np.any(np.diff(ts) <= 0):
            raise ValueError("timestamps must increase from 0 to 1")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "timestamps", ts)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


def default_timestamps(num_frames: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, num_frames)


@dataclass(frozen=True)
class Objective:
    grid: GridSpec
    sequences: tuple
    epsilon: float
    substeps: int
    sinkhorn_iters: int
    loss: str = "l2"
    lambda_c: float = 0.0
    lambda_s: float = 1.0

    def __post_init__(self):
        if self.loss not in LOSS_KINDS:
            raise ValueError("unknown loss kind %r" % (self.loss,))
        if not (self.lambda_c >= 0 and self.lambda_s >= 0):  # NaN fails here too
            raise ValueError("regularizer coefficients must be >= 0")
        n = self.grid.num_vertices
        for seq in self.sequences:
            if seq.frames.shape[1] != n:
                raise ValueError("sequence frame length does not match the grid")
        object.__setattr__(self, "sequences", tuple(self.sequences))


@dataclass(frozen=True)
class ObjectiveParts:
    data_fit: float
    reg_constant: float
    reg_smooth: float


# --- losses --------------------------------------------------------------


def loss(kind: str, recon, obs):
    """Reconstruction loss and its gradient with respect to ``recon``:
    ``(value, grad)``.  KL is evaluated as sum(obs log(obs/recon) - obs + recon),
    the only order that stays finite when observations carry zeros."""
    recon = np.asarray(recon, dtype=np.float64)
    obs = np.asarray(obs, dtype=np.float64)
    diff = recon - obs
    if kind == "l1":
        return float(np.abs(diff).sum()), np.sign(diff)
    if kind == "l2":
        return float(diff @ diff), 2.0 * diff
    if kind == "kl":
        if np.any(recon <= 0):
            raise ValueError("KL needs a strictly positive reconstruction")
        pos = obs > 0
        val = float(np.sum(obs[pos] * np.log(obs[pos] / recon[pos])))
        val += float(np.sum(diff))
        return val, 1.0 - obs / recon
    raise ValueError("unknown loss kind %r" % (kind,))


# --- regularizers ----------------------------------------------------------


def reg_constant(w):
    """Pull toward the unweighted grid: sum (w_e - 1)^2 and its gradient."""
    w = np.asarray(w, dtype=np.float64)
    diff = w - 1.0
    return float(diff @ diff), 2.0 * diff


def reg_smooth(spec: GridSpec, w):
    """Neighborhood smoothness ||D w||^2 and its gradient 2 D(D w)."""
    dw = parallel_difference(spec, w)
    return float(dw @ dw), 2.0 * parallel_difference(spec, dw)


# --- full objective ---------------------------------------------------------


def _sequence_term(acc, iters: int, seq: Sequence, kind: str) -> float:
    """Data fit of one sequence: every frame against the barycenter of the
    endpoints at its timestamp, on the operator ``acc.op``, with the weight
    gradient added into ``acc``.  The endpoint frames are K a in closed form,
    one application of the (2, N) endpoint block, clamped at the divide
    floor as the sweeps clamp K u_r, and pulled back as one block; the
    interior frames are one recorded barycenter call with rows
    (1 - t_i, t_i).  A two-frame sequence makes no barycenter call."""
    op = acc.op
    t, ends = seq.timestamps[1:-1], seq.frames[[0, -1]]
    clamps = [0]
    recon = np.empty_like(seq.frames)
    recon[[0, -1]] = _guard(op.apply(ends), clamps)
    if clamps[0]:
        warnings.warn("endpoint reconstruction clamped %d near-zero entries" % clamps[0],
                      DegeneracyWarning)
    tape = None
    if len(t):
        recon[1:-1], tape = barycenter(op, ends, np.stack([1.0 - t, t], axis=1), iters,
                                       record=True)
    sub_val = 0.0
    gbar = np.empty_like(recon)
    for i in range(seq.num_frames):
        val, gbar[i] = loss(kind, recon[i], seq.frames[i])
        sub_val += val
    if tape is not None:
        barycenter_backward(tape, gbar[1:-1], acc)
    acc.pull(gbar[[0, -1]], ends)
    return sub_val


def evaluate_with_grad(obj: Objective, wlog, threads: int = 1, with_parts: bool = False):
    """Objective value and gradient with respect to log-weights.

    One operator is assembled and factorized per evaluation, and every
    sequence reaches it through one weight-gradient accumulator, ``acc.op``;
    frame values are reduced in the fixed documented order.  ``threads`` is
    accepted for compatibility and has no effect.

    The value is +inf, with a NaN gradient, wherever the total or gradient
    is not finite: where the weights cannot be assembled (exp gives 0 or
    inf, or M overflows or fails to factor), which makes the data fit +inf,
    or where a regularizer overflows, even under a zero coefficient.  A
    line search backs off from such a point.  The parts are as computed.
    """
    wlog = np.asarray(wlog, dtype=np.float64)
    if not np.isfinite(wlog).all():
        raise ValueError("non-finite log-weights")
    with np.errstate(over="ignore"):  # an inf weight fails assembly
        w = np.exp(wlog)
    data_fit, dw_data = np.inf, np.full_like(wlog, np.nan)
    try:
        acc = (assemble(obj.grid, w, obj.epsilon, obj.substeps).gradient_accumulator()
               if w.min() > 0 else None)
    except AssemblyError:
        acc = None
    if acc is not None:
        data_fit = 0.0
        for seq in obj.sequences:
            data_fit += _sequence_term(acc, obj.sinkhorn_iters, seq, obj.loss)
        dw_data = acc.finalize()

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is caught below
        fc, fc_grad = reg_constant(w)
        fs, fs_grad = reg_smooth(obj.grid, w)
        total = data_fit + obj.lambda_c * fc + obj.lambda_s * fs
        grad = (dw_data + obj.lambda_c * fc_grad + obj.lambda_s * fs_grad) * w
    if not (np.isfinite(total) and np.isfinite(grad).all()):
        total, grad = np.inf, np.full_like(wlog, np.nan)
    return (total, grad, ObjectiveParts(data_fit, fc, fs)) if with_parts else (total, grad)


# --- sequence files ---------------------------------------------------------


@dataclass(frozen=True)
class Manifest:
    """The ``manifest.json`` of a sequence directory."""

    dims: tuple[int, ...]
    frames: tuple[str, ...]  # file names in the sequence directory, one per frame
    timestamps: tuple[float, ...]

    def __post_init__(self):
        if not self.dims:
            raise ValueError("dims must list at least one axis")
        for a, n in enumerate(self.dims):
            if n < 2:
                raise ValueError("dims[%d] must be at least 2, got %d" % (a, n))
        if len(self.frames) < 2:
            raise ValueError("frames must list at least 2 frames, got %d" % len(self.frames))
        for k, name in enumerate(self.frames):
            if name in ("", ".", "..") or name != os.path.basename(name):
                raise ValueError("frames[%d] must be a file name in the sequence directory, "
                                 "got %r" % (k, name))
        if len(self.timestamps) != len(self.frames):
            raise ValueError("timestamps must have one entry per frame: %d for %d frames"
                             % (len(self.timestamps), len(self.frames)))


def save_sequence(dirpath, spec: GridSpec, seq: Sequence) -> None:
    """One GMLT tensor per frame (grid-shaped) plus a manifest."""
    os.makedirs(dirpath, exist_ok=True)
    names = []
    for i in range(seq.num_frames):
        name = "frame_%03d.gmlt" % i
        tensorio.write_tensor(os.path.join(dirpath, name),
                              seq.frames[i].reshape(spec.dims))
        names.append(name)
    manifest = Manifest(spec.dims, tuple(names), tuple(float(t) for t in seq.timestamps))
    with open(os.path.join(dirpath, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=1)
        fh.write("\n")


def load_sequence(dirpath):
    """Read a sequence directory back; returns (GridSpec, Sequence).  Every
    error names the directory, or the file it read, once; a ValueError keeps
    its type."""
    doc = tensorio.read_json(os.path.join(dirpath, "manifest.json"))  # names its file
    try:
        manifest = tensorio.parse_object(Manifest, doc)
        spec = GridSpec(manifest.dims)
        frames = []
        for name in manifest.frames:
            t = tensorio.read_tensor(os.path.join(dirpath, name))
            if t.shape != spec.dims:
                raise ValueError("frame %s has shape %r, expected %r"
                                 % (name, t.shape, spec.dims))
            frames.append(t.ravel())
        seq = Sequence(np.stack(frames), np.asarray(manifest.timestamps, dtype=np.float64))
    except ValueError as exc:
        raise type(exc)("%s: %s" % (dirpath, exc)) from exc
    return spec, seq
