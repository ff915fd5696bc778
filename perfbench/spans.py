"""In-memory span tracing of otgrid, installed from outside the package.

``Tracer.install`` replaces each traced public function at every place it
is bound (the defining module and every otgrid module that imported it by
name), and the traced ``DiffusionOperator`` methods on the class itself, so
every caller goes through the wrapper.  ``uninstall`` puts the originals
back.  A span is (op, name, start, end, parent); the stack of open spans
gives the parent, which is exact because the traced commands run on one
thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
import warnings
from collections import Counter

# (module, attribute, span name).  ``read_ppm`` and ``write_ppm`` share a span.
FUNCTIONS = (
    ("otgrid.cli", "main", "cli.main"),
    ("otgrid.tensorio", "read_tensor", "tensorio.read"),
    ("otgrid.tensorio", "write_tensor", "tensorio.write"),
    ("otgrid.synthetic", "forward_sequence", "synthetic.forward_sequence"),
    ("otgrid.grids", "build_laplacian", "grids.laplacian"),
    ("otgrid.barycenter", "barycenter", "barycenter.forward"),
    ("otgrid.barycenter", "barycenter_backward", "barycenter.backward"),
    ("otgrid.barycenter", "sinkhorn_scalings", "barycenter.scalings"),
    ("otgrid.objective", "evaluate_with_grad", "objective.eval"),
    ("otgrid.lbfgs", "minimize", "lbfgs.minimize"),
    ("otgrid.color", "image_to_histogram", "color.histogram"),
    ("otgrid.color", "barycentric_map", "color.map"),
    ("otgrid.color", "fill_nearest", "color.fill"),
    ("otgrid.color", "apply_color_map", "color.apply_map"),
    ("otgrid.color", "bilateral_smooth", "color.bilateral"),
    ("otgrid.color", "read_ppm", "color.ppm"),
    ("otgrid.color", "write_ppm", "color.ppm"),
)

# DiffusionOperator methods; construction is where M is assembled and factorized.
METHODS = (
    ("__init__", "diffusion.factorize"),
    ("solve", "diffusion.solve"),
    ("apply", "diffusion.apply"),
    ("adjoint_input", "diffusion.adjoint_input"),
    ("adjoint_weights", "diffusion.adjoint_weights"),
)

# (metric, kind, span name): calls, inclusive seconds or self seconds per op.
SPAN_METRICS = (
    ("cli.self_s", "self", "cli.main"),
    ("tensorio.read_s", "incl", "tensorio.read"),
    ("tensorio.write_s", "incl", "tensorio.write"),
    ("synthetic.forward_sequence_s", "incl", "synthetic.forward_sequence"),
    ("grids.laplacian_s", "incl", "grids.laplacian"),
    ("diffusion.factorize_calls", "calls", "diffusion.factorize"),
    ("diffusion.factorize_s", "incl", "diffusion.factorize"),
    ("diffusion.solve_calls", "calls", "diffusion.solve"),
    ("diffusion.solve_s", "incl", "diffusion.solve"),
    ("diffusion.apply_calls", "calls", "diffusion.apply"),
    ("diffusion.apply_s", "self", "diffusion.apply"),
    ("diffusion.adjoint_input_calls", "calls", "diffusion.adjoint_input"),
    ("diffusion.adjoint_weights_calls", "calls", "diffusion.adjoint_weights"),
    ("diffusion.adjoint_weights_s", "self", "diffusion.adjoint_weights"),
    ("barycenter.forward_calls", "calls", "barycenter.forward"),
    ("barycenter.forward_s", "incl", "barycenter.forward"),
    ("barycenter.backward_calls", "calls", "barycenter.backward"),
    ("barycenter.backward_s", "incl", "barycenter.backward"),
    ("barycenter.scalings_s", "incl", "barycenter.scalings"),
    ("objective.eval_calls", "calls", "objective.eval"),
    ("objective.eval_s", "self", "objective.eval"),
    ("lbfgs.self_s", "self", "lbfgs.minimize"),
    ("color.histogram_s", "incl", "color.histogram"),
    ("color.map_s", "self", "color.map"),
    ("color.fill_s", "incl", "color.fill"),
    ("color.apply_map_s", "incl", "color.apply_map"),
    ("color.bilateral_s", "incl", "color.bilateral"),
    ("color.ppm_s", "incl", "color.ppm"),
)

# Metrics counted by hooks rather than read off spans.
COUNT_METRICS = (
    "diffusion.solve_columns",
    "tensorio.bytes_written",
    "lbfgs.iterations",
    "lbfgs.evals",
    "barycenter.degeneracy_warnings",
)


class Tracer:
    """Spans and counts of the traced commands, kept in memory."""

    def __init__(self):
        self.spans = []  # (op, name, start, end, parent index or -1)
        self.counts = Counter()  # (op, counter name) -> value
        self.op = 0
        self._stack = []
        self._restore = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        before, after = _BEFORE.get(name), _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.op, name, start, end, parent)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def count(self, key, value=1):
        self.counts[(self.op, key)] += value

    # -- installation ----------------------------------------------------

    def install(self):
        """Route every call of the traced functions and methods through spans."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        from otgrid.diffusion import DiffusionOperator

        for modname, attr, name in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), attr)
            wrapped = self._wrap(name, orig)
            for mname, mod in list(sys.modules.items()):
                if mname != "otgrid" and not mname.startswith("otgrid."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for attr, name in METHODS:
            orig = DiffusionOperator.__dict__[attr]
            self._restore.append((DiffusionOperator, attr, orig))
            setattr(DiffusionOperator, attr, self._wrap(name, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []

    @contextlib.contextmanager
    def recording(self, op):
        """Trace the enclosed calls as op ``op`` and count DegeneracyWarnings."""
        from otgrid.barycenter import DegeneracyWarning

        self.op = op
        self.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield
        finally:
            self.uninstall()
        self.count("barycenter.degeneracy_warnings",
                   sum(issubclass(w.category, DegeneracyWarning) for w in caught))

    # -- reduction -------------------------------------------------------

    def op_metrics(self, op):
        """Per-layer metrics of one traced op, keyed by metric name."""
        calls = Counter()
        incl = Counter()
        child = Counter()
        for op_i, name, start, end, parent in self.spans:
            if op_i != op:
                continue
            calls[name] += 1
            incl[name] += end - start
        for op_i, name, start, end, parent in self.spans:
            if op_i == op and parent >= 0:
                child[self.spans[parent][1]] += end - start
        out = {}
        for metric, kind, name in SPAN_METRICS:
            if kind == "calls":
                out[metric] = calls[name]
            elif kind == "incl":
                out[metric] = incl[name]
            else:
                out[metric] = incl[name] - child[name]
        for key in COUNT_METRICS:
            out[key] = self.counts[(op, key)]
        return out

    def write(self, path):
        """Write every span as CSV: op, name, start and end (s), parent row."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        t0 = min((s[2] for s in self.spans), default=0.0)
        rows = ["op,name,start_s,end_s,parent"]
        rows.extend("%d,%s,%.9f,%.9f,%d" % (op, name, start - t0, end - t0, parent)
                    for op, name, start, end, parent in self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows))
            fh.write("\n")


# -- hooks: the traced calls pass these arguments positionally -------------


def _before_solve(tracer, args):
    b = args[1]
    tracer.count("diffusion.solve_columns", 1 if b.ndim == 1 else b.shape[1])
    return args


def _before_minimize(tracer, args):
    f = args[0]

    def counted(x):
        tracer.count("lbfgs.evals")
        return f(x)

    return (counted,) + tuple(args[1:])


def _after_minimize(tracer, args, result):
    tracer.count("lbfgs.iterations", len(result.history))


def _after_write(tracer, args, result):
    tracer.count("tensorio.bytes_written", os.path.getsize(args[0]))


_BEFORE = {"diffusion.solve": _before_solve, "lbfgs.minimize": _before_minimize}
_AFTER = {"lbfgs.minimize": _after_minimize, "tensorio.write": _after_write}
