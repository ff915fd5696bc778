"""The three benchmark workloads: inputs from a seed, the command, its checks.

Each workload writes its inputs under its own directory in ``setup``,
names the ``otgrid`` command that one operation runs (``argv``), and checks
that command's outputs against references computed in ``prepare`` with
``checks``.  ``run_checks`` holds checks on the program that do not depend
on one command's output; a problem there fails every operation of the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tracemalloc

import numpy as np

import checks


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def _cli(argv):
    from otgrid import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError("otgrid %s exited with %d" % (argv[0], code))


class Workload:
    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed % 2**32)
        self.seed = seed
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)

    def path(self, *names):
        return os.path.join(self.dir, *names)

    def setup(self):
        raise NotImplementedError

    def prepare(self):
        """Reference computations for the checks; runs after set-up, untimed."""

    def run_checks(self, measure_memory=False):
        """Problems with the program found outside one command's output."""
        return []

    def install_counters(self):
        """Set up what ``items`` counts; runs only when commands are untraced."""

    def items(self):
        """Work items of the last command, the numerator of items_per_s."""
        raise NotImplementedError


class DeskLearn(Workload):
    """``otgrid learn`` on the ac7 desk case, capped at one L-BFGS iteration.

    The seed picks one of four orientations of the case (which axis the
    mass crosses the obstacle on, and in which direction) and the direction
    of the finite-difference check.  The four orientations are mirror images
    of each other, so every seed does the same work.
    """

    n = 20
    epsilon = 1.2e-2
    substeps = 20
    iters = 30
    frames = 7
    lambda_s = 0.03
    max_iters = 1

    def setup(self):
        start, stop = [9.5, 2.0], [9.5, 17.0]
        if self.seed % 2:
            start, stop = stop, start
        if self.seed % 4 >= 2:
            start, stop = start[::-1], stop[::-1]
        _write_json(self.path("config.json"), {
            "d": 2, "n": self.n, "epsilon": self.epsilon, "substeps": self.substeps,
            "sinkhorn_iters": self.iters, "frames": self.frames, "loss": "l2",
            "lambda_c": 0.0, "lambda_s": self.lambda_s,
            "lbfgs": {"max_iters": self.max_iters}, "init": {"mode": "constant"},
        })
        _write_json(self.path("pattern.json"), {
            "base": 1.0, "smooth_radius": 1,
            "regions": [{"factor": 0.05, "shape": "disk", "center": [9.5, 9.5],
                         "radius": 3.5}],
            "endpoints": {"start": start, "stop": stop, "sigma": 1.5},
        })
        _cli(["gen", "--config", self.path("config.json"),
              "--pattern", self.path("pattern.json"), "--out", self.path("truth")])
        self._evals = [0]

    def argv(self, out):
        return ["learn", "--config", self.path("config.json"),
                "--sequence", self.path("truth"), "--out", os.path.join(out, "weights"),
                "--log", os.path.join(out, "log.csv"), "--threads", "1"]

    def _objective(self):
        from otgrid.objective import Objective, load_sequence

        spec, seq = load_sequence(self.path("truth"))
        return seq, Objective(
            grid=spec, sequences=(seq,), epsilon=self.epsilon, substeps=self.substeps,
            sinkhorn_iters=self.iters, loss="l2", lambda_c=0.0, lambda_s=self.lambda_s)

    def prepare(self):
        # unit weights: the smoothness term ||D 1||^2 is zero, so the
        # iteration-0 objective is the data fit alone
        seq, _ = self._objective()
        kernel = checks.dense_kernel((self.n, self.n), self.epsilon, self.substeps)
        self.reference = checks.barycenter_l2_fit(kernel, seq.frames, self.iters)

    def install_counters(self):
        """Count the CLI's objective evaluations (one counter, no timing)."""
        from otgrid import cli, objective

        evals = self._evals

        def counted(*args, **kwargs):
            evals[0] += 1
            return objective.evaluate_with_grad(*args, **kwargs)

        cli.evaluate_with_grad = counted

    def items(self):
        """Objective evaluations since the last call."""
        done, self._evals[0] = self._evals[0], 0
        return done

    def check(self, out):
        from otgrid.grids import GridSpec, axis_fields, load_weights

        with open(os.path.join(out, "log.csv"), encoding="utf-8") as fh:
            problems = checks.check_learn_log(fh.read(), self.reference)
        spec = GridSpec((self.n, self.n))
        w = load_weights(os.path.join(out, "weights"), spec)
        return problems + checks.check_weights(axis_fields(spec, w))

    def run_checks(self, measure_memory=False):
        from otgrid.grids import edge_count
        from otgrid.objective import evaluate_with_grad

        _, obj = self._objective()
        x0 = np.zeros(edge_count(obj.grid))
        d = self.rng.standard_normal(x0.size)
        d /= np.linalg.norm(d)
        h = 1e-5
        if measure_memory:
            tracemalloc.start()
        _, grad = evaluate_with_grad(obj, x0)
        if measure_memory:
            self.eval_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        f_plus = evaluate_with_grad(obj, x0 + h * d)[0]
        f_minus = evaluate_with_grad(obj, x0 - h * d)[0]
        return checks.check_directional_derivative(f_plus, f_minus, h, float(grad @ d))


class RowInterp(Workload):
    """``otgrid interp`` between Diracs at the two ends of a 49-cell grid line.

    The seed picks the line (one of 50 rows or 50 columns) and the direction
    of travel.  Every line needs the same solves.
    """

    n = 50
    epsilon = 1.2e-2
    substeps = 50
    iters = 3
    steps = 10

    def setup(self):
        from otgrid.grids import GridSpec, constant_weights, save_weights
        from otgrid.tensorio import write_tensor

        line = int(self.rng.integers(self.n))
        self.axis = int(self.rng.integers(2))
        ends = [0, self.n - 1]
        if self.rng.integers(2):
            ends.reverse()
        self.vertices = []
        for name, e in zip(("from", "to"), ends):
            pos = [line, line]
            pos[self.axis] = e
            field = np.zeros((self.n, self.n))
            field[tuple(pos)] = 1.0
            write_tensor(self.path(name + ".gmlt"), field)
            self.vertices.append(int(np.ravel_multi_index(pos, field.shape)))
        spec = GridSpec((self.n, self.n))
        save_weights(self.path("weights"), spec, constant_weights(spec))
        _write_json(self.path("config.json"), {
            "d": 2, "n": self.n, "epsilon": self.epsilon, "substeps": self.substeps,
            "sinkhorn_iters": self.iters})

    def argv(self, out):
        return ["interp", "--weights", self.path("weights"),
                "--from", self.path("from.gmlt"), "--to", self.path("to.gmlt"),
                "--steps", str(self.steps), "--config", self.path("config.json"),
                "--out", out]

    def prepare(self):
        self.k0, self.k1 = checks.kernel_columns(
            (self.n, self.n), self.epsilon, self.substeps, self.vertices)

    def items(self):
        return self.steps

    def check(self, out):
        from otgrid.tensorio import read_tensor

        frames = [read_tensor(os.path.join(out, "frame_%03d.gmlt" % i))
                  for i in range(self.steps)]
        return checks.check_dirac_interpolation(frames, self.k0, self.k1, self.axis)


class ColorTransfer(Workload):
    """``otgrid transfer --bilateral`` of a 320x240 image onto a palette.

    The source is a textured color ramp with pixel noise; the palette is the
    histogram of another ramp a ~0.35 color-space gap away.  The seed moves
    both ramps' base colors, the texture phase and the noise.
    """

    n = 16
    epsilon = 1e-3
    substeps = 20
    iters = 30
    width, height = 320, 240

    def _ramp(self, base, w, h):
        yy, xx = np.meshgrid(np.linspace(0.0, 40.0, h), np.linspace(0.0, 48.0, w),
                             indexing="ij")
        phase = self.rng.uniform(0.0, 2 * np.pi, 2)
        tex = 10.0 * np.sin(xx / 3.0 + phase[0]) * np.cos(yy / 4.0 + phase[1])
        base = np.asarray(base) + self.rng.uniform(-10.0, 10.0, 3)
        img = np.stack([base[0] + 2.2 * xx + tex, base[1] + 2.8 * yy + tex,
                        base[2] + 1.1 * (xx + yy) + tex], axis=-1)
        img += self.rng.normal(0.0, 3.0, img.shape)
        return np.clip(np.rint(img), 0, 255).astype(np.uint8)

    def setup(self):
        from otgrid.color import image_to_histogram, write_ppm
        from otgrid.grids import GridSpec, constant_weights, save_weights
        from otgrid.tensorio import write_tensor

        self.source = self._ramp((40, 50, 45), self.width, self.height)
        palette = self._ramp((130, 110, 75), 160, 120)
        self.palette = image_to_histogram(palette, self.n).mass
        write_ppm(self.path("source.ppm"), self.source)
        write_tensor(self.path("palette.gmlt"), self.palette)
        spec = GridSpec((self.n,) * 3)
        save_weights(self.path("weights"), spec, constant_weights(spec))
        _write_json(self.path("config.json"), {
            "d": 3, "n": self.n, "epsilon": self.epsilon, "substeps": self.substeps,
            "sinkhorn_iters": self.iters})

    def argv(self, out):
        return ["transfer", "--weights", self.path("weights"),
                "--config", self.path("config.json"),
                "--source-image", self.path("source.ppm"),
                "--target-hist", self.path("palette.gmlt"),
                "--out", os.path.join(out, "out.ppm"), "--bilateral"]

    def items(self):
        return self.width * self.height

    def check(self, out):
        from otgrid.color import read_ppm

        img = read_ppm(os.path.join(out, "out.ppm"))
        return checks.check_color_transfer(img, self.source, self.palette)


WORKLOADS = {
    "desk-learn": DeskLearn,
    "row-interp-50": RowInterp,
    "color-transfer-16": ColorTransfer,
}
