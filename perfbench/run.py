"""otgrid benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload desk-learn --seed 1 --seconds 20 --trace 0

Each run sets the workload up in several fresh processes (``setup_s`` is the
median of their start-to-ready times), then runs the workload's otgrid
command in one more process for ``--seconds`` and checks every output.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Traces are written to ``perfbench-out/traces``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("desk-learn", "row-interp-50", "color-transfer-16")
SETUP_PROCESSES = 4  # set-up-only processes; the measuring process adds a fifth sample
DEADLINE_S = 170  # the whole run, set-up processes included


def _child(args, mode, workdir, env, deadline):
    """Run worker.py to its end and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", workdir, "--started", repr(time.monotonic())]
    if mode == "trace":
        cmd += ["--trace-file", os.path.join(
            os.getcwd(), "perfbench-out", "traces", "%s-seed%d.csv" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("%s process for %s exited with %s"
                           % (mode, args.workload, proc.returncode))
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "otgrid", "cli.py")):
        print("perfbench: no otgrid sources under %s; run from the repository root" % src,
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    work = os.path.join(root, "perfbench-out", "work", "%s-%d" % (args.workload, os.getpid()))
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [_child(args, "setup", os.path.join(work, "setup%d" % i), env, deadline)
                  for i in range(SETUP_PROCESSES)]
        mode = "trace" if args.trace else "measure"
        res = _child(args, mode, os.path.join(work, mode), env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = res["per_layer"]
    else:
        setup = [r["setup_s"] for r in setups] + [res["setup_s"]]
        values = {"setup_s": statistics.median(setup), "peak_rss_mb": res["peak_rss_mb"]}
        if res["command_s"]:  # empty only when every command failed
            values["command_s"] = statistics.median(res["command_s"])
            values["items_per_s"] = statistics.median(res["items_per_s"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    print(json.dumps({"correct": res["wrong"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
