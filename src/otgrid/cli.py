"""Command-line entry point.

Subcommands: gen (synthetic ground-truth data), learn (fit edge weights to
observed sequences), interp (displacement interpolation under stored
weights), transfer (histogram-based color transfer), export, info.

Exit codes: 0 success, 2 configuration/usage problem, 3 I/O or file-format
problem.  argparse's own usage failures also exit with 2.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import color as colorlib
from . import tensorio
from .diffusion import assemble
from .grids import GridSpec, edge_count, load_weights, save_weights
from .lbfgs import minimize
from .objective import Objective, evaluate_with_grad, load_sequence, save_sequence
from .synthetic import MetricPattern, forward_sequence, render_metric
from .tensorio import (ConfigError, RunConfig, TensorFormatError, parse_object, read_config,
                       read_json)


class UsageError(ValueError):
    pass


def _grid_of(cfg: RunConfig) -> GridSpec:
    return GridSpec((cfg.n,) * cfg.d)


def _load_histogram(path, spec: GridSpec) -> np.ndarray:
    t = tensorio.read_tensor(path)
    if t.shape != spec.dims:
        raise UsageError(
            "%s: histogram shape %r does not match the %r grid" % (path, t.shape, spec.dims)
        )
    h = t.ravel()
    if np.any(h < 0):
        raise UsageError("%s: histogram has negative entries" % (path,))
    with np.errstate(over="ignore"):
        total = h.sum()
    if not np.isfinite(total):  # finite entries whose sum overflows float64
        h = h / h.max()
        total = h.sum()
    if total <= 0:
        raise UsageError("%s: histogram has no mass" % (path,))
    return h / total


def cmd_gen(args) -> int:
    cfg = read_config(args.config)
    spec = _grid_of(cfg)
    pattern = parse_object(MetricPattern, read_json(args.pattern))
    w = render_metric(spec, pattern)
    r0, r1 = pattern.endpoints.histograms(spec)
    seq = forward_sequence(
        spec, w, r0, r1, cfg.frames, cfg.epsilon, cfg.substeps, cfg.sinkhorn_iters
    )
    save_weights(args.out, spec, w)
    save_sequence(args.out, spec, seq)
    print("gen: wrote %d frames and %d weight fields to %s"
          % (cfg.frames, spec.d, args.out))
    return 0


def cmd_learn(args) -> int:
    cfg = read_config(args.config)
    spec = _grid_of(cfg)
    if args.threads < 1:
        raise UsageError("--threads must be >= 1")

    sequences = []
    for path in args.sequence:
        sspec, seq = load_sequence(path)
        if sspec != spec:
            raise UsageError(
                "%s: sequence grid %r does not match config grid %r"
                % (path, sspec.dims, spec.dims)
            )
        sequences.append(seq)

    obj = Objective(
        grid=spec,
        sequences=tuple(sequences),
        epsilon=cfg.epsilon,
        substeps=cfg.substeps,
        sinkhorn_iters=cfg.sinkhorn_iters,
        loss=cfg.loss,
        lambda_c=cfg.lambda_c,
        lambda_s=cfg.lambda_s,
    )

    m = edge_count(spec)
    if cfg.init.mode == "constant":
        x0 = np.zeros(m)  # weights start at exp(0) = 1: the Euclidean grid
    else:
        rng = np.random.default_rng(cfg.seed)
        x0 = rng.uniform(np.log(cfg.init.low), np.log(cfg.init.high), size=m)

    latest = None  # the ObjectiveParts of the newest evaluation

    def fun(x):
        nonlocal latest
        value, grad, parts = evaluate_with_grad(
            obj, x, threads=args.threads, with_parts=True
        )
        if latest is None:
            _log_row(log, 0, value, parts, float(np.abs(grad).max()), 0.0)
        latest = parts
        return value, grad

    def on_iteration(rec, _x):
        _log_row(log, rec.iteration, rec.value, latest, rec.grad_inf, rec.elapsed)

    with open(args.log or os.devnull, "w", encoding="utf-8", newline="") as log:
        log.write("iteration,objective,data_fit,reg_constant,reg_smooth,grad_inf,elapsed\n")
        result = minimize(fun, x0, cfg.lbfgs, callback=on_iteration)
        log.write("# status=%s\n" % result.status)

    save_weights(args.out, spec, np.exp(result.x))
    print("learn: %s after %d iterations, objective %.12g"
          % (result.status, len(result.history), result.value))
    return 0


def _log_row(fh, iteration, value, parts, grad_inf, elapsed):
    fh.write("%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.6f\n"
             % (iteration, value, parts.data_fit, parts.reg_constant,
                parts.reg_smooth, grad_inf, elapsed))
    fh.flush()


def cmd_interp(args) -> int:
    cfg = read_config(args.config)
    spec = _grid_of(cfg)
    if args.steps < 2:
        raise UsageError("--steps must be >= 2")
    w = load_weights(args.weights, spec)
    r0 = _load_histogram(args.from_, spec)
    r1 = _load_histogram(args.to, spec)
    seq = forward_sequence(
        spec, w, r0, r1, args.steps, cfg.epsilon, cfg.substeps, cfg.sinkhorn_iters
    )
    save_sequence(args.out, spec, seq)
    print("interp: wrote %d frames to %s" % (args.steps, args.out))
    return 0


def cmd_transfer(args) -> int:
    cfg = read_config(args.config)
    if cfg.d != 3:
        raise ConfigError("transfer needs a 3-D (color) config, got d=%d" % cfg.d)
    spec = _grid_of(cfg)
    n = cfg.n
    w = load_weights(args.weights, spec)
    src = colorlib.read_ppm(args.source_image)
    target = colorlib.ColorHistogram(n, _load_histogram(args.target_hist, spec).reshape(spec.dims))
    source_hist = colorlib.image_to_histogram(src, n)

    op = assemble(spec, w, cfg.epsilon, cfg.substeps)
    tmap, defined = colorlib.barycentric_map(op, source_hist, target, cfg.sinkhorn_iters)
    del op  # free the banded factor before the per-pixel stages
    tmap = colorlib.fill_nearest(tmap, defined)
    out = colorlib.apply_color_map(src, tmap, n)
    if args.bilateral:
        out = colorlib.bilateral_smooth(out, src)
    colorlib.write_ppm(args.out, out)
    print("transfer: wrote %s (%dx%d)" % (args.out, out.shape[1], out.shape[0]))
    return 0


def cmd_export(args) -> int:
    t = tensorio.read_tensor(args.input)
    if args.format == "pgm":
        if t.ndim != 2:
            raise UsageError("pgm export needs a 2-D tensor, got %d-D" % t.ndim)
        tensorio.export_pgm(t, args.out)
    else:
        tensorio.export_csv(t, args.out)
    print("export: wrote %s" % args.out)
    return 0


def cmd_info(args) -> int:
    t = tensorio.read_tensor(args.input)
    print("dims: %s" % (" x ".join(str(n) for n in t.shape)))
    with np.errstate(over="ignore"):  # finite entries may sum past float64: print inf
        print("sum: %.17g" % t.sum())
    print("min: %.17g" % t.min())
    print("max: %.17g" % t.max())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="otgrid",
                                description="Learn and use grid ground metrics "
                                            "for displacement interpolation.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic weighted-grid sequence")
    g.add_argument("--config", required=True)
    g.add_argument("--pattern", required=True, help="JSON metric pattern (+ optional endpoints)")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    l = sub.add_parser("learn", help="fit edge weights to observed sequences")
    l.add_argument("--config", required=True)
    l.add_argument("--sequence", required=True, action="append",
                   help="sequence directory; repeat for joint fits")
    l.add_argument("--out", required=True)
    l.add_argument("--log", default=None, help="CSV iteration log")
    l.add_argument("--threads", type=int, default=1)
    l.set_defaults(func=cmd_learn)

    i = sub.add_parser("interp", help="interpolate between two histograms")
    i.add_argument("--weights", required=True)
    i.add_argument("--from", dest="from_", required=True, metavar="FROM")
    i.add_argument("--to", required=True)
    i.add_argument("--steps", type=int, required=True)
    i.add_argument("--config", required=True)
    i.add_argument("--out", required=True)
    i.set_defaults(func=cmd_interp)

    t = sub.add_parser("transfer", help="color-transfer a PPM image")
    t.add_argument("--weights", required=True)
    t.add_argument("--config", required=True)
    t.add_argument("--source-image", required=True)
    t.add_argument("--target-hist", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--bilateral", action="store_true")
    t.set_defaults(func=cmd_transfer)

    e = sub.add_parser("export", help="convert a tensor to pgm or csv")
    e.add_argument("--input", required=True)
    e.add_argument("--format", choices=("pgm", "csv"), required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_export)

    n = sub.add_parser("info", help="print tensor metadata")
    n.add_argument("--input", required=True)
    n.set_defaults(func=cmd_info)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError, UsageError, shape mismatches
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (TensorFormatError, colorlib.PpmFormatError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
