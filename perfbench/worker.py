"""One workload in one process: set up, then run otgrid commands and check them.

Started by ``run.py``, which passes its ``time.monotonic()`` at the start as
``--started``; set-up time runs from there to the end of input generation.
Prints a JSON result as its last line.  ``--mode measure`` times untraced commands;
``--mode trace`` alternates an untraced and a traced command per round and
reports per-layer metrics of the traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback


def run_command(wl, k, tracer):
    """Run one otgrid command; returns (wall seconds, exit code or None, problems)."""
    from otgrid import cli

    out = wl.path("op%d" % k)
    os.makedirs(out, exist_ok=True)
    argv = wl.argv(out)
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.recording(k):
                    code = cli.main(argv)
    except Exception:  # a crashing command is a failed operation, not a crashed run
        traceback.print_exc()
    wall = time.perf_counter() - start
    problems = []
    if code == 0:
        try:
            problems = wl.check(out)
        except Exception as exc:  # unreadable output fails the check
            problems = ["output could not be checked: %r" % (exc,)]
    shutil.rmtree(out, ignore_errors=True)
    return wall, code, problems


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.setup()
    setup_s = time.monotonic() - args.started
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wl.prepare()
    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
    else:
        wl.install_counters()

    walls = {False: [], True: []}
    rates, layers = [], []
    attempted = failed = wrong = 0
    problems = []
    start = time.perf_counter()
    k = 0
    while True:
        for traced in ((False, True) if tracer else (False,)):
            wall, code, found = run_command(wl, k, tracer if traced else None)
            items = wl.items()
            attempted += 1
            if code == 0 and not found:
                walls[traced].append(wall)
                if traced:
                    layers.append(tracer.op_metrics(k))
                else:
                    rates.append(items / wall)
            else:
                failed += 1
                wrong += bool(found)
                problems.extend("op %d: %s" % (k, p) for p in found)
                if code != 0:
                    problems.append("op %d: the command exited with %r" % (k, code))
            k += 1
        if time.perf_counter() - start >= args.seconds:
            break

    found = wl.run_checks(measure_memory=tracer is not None)
    if found:
        problems.extend("run: %s" % p for p in found)
        wrong, failed = attempted, attempted
    for p in problems:
        print("check failed: %s" % p, file=sys.stderr)

    result = {"setup_s": setup_s, "attempted": attempted, "failed": failed, "wrong": wrong,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "command_s": walls[False], "items_per_s": rates}
    if tracer is not None:
        per_layer = {}
        for name in layers[0] if layers else ():
            per_layer[name] = statistics.median(m[name] for m in layers)
        if walls[True] and walls[False]:
            per_layer["trace.overhead_s"] = (statistics.median(walls[True])
                                             - statistics.median(walls[False]))
        per_layer["objective.eval_peak_mb"] = getattr(wl, "eval_peak_mb", 0.0)
        result["per_layer"] = per_layer
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
