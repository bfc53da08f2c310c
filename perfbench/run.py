"""The dualis benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; dualis is imported from ``src/``.
Each round runs in a fresh interpreter (``child.py``), one operation after
another with one client and no threads of the benchmark's own.  Rounds
repeat until their measured phases add up to ``--seconds`` (at least one).

``--trace 0`` prints the end-to-end metrics: per-round medians of wall and
CPU time of the measured phase, peak resident memory, and set-up time (the
median of at least ``SETUP_SAMPLES`` interpreter starts).  ``--trace 1``
runs the span pass for ``--seconds`` and one counting pass, and prints the
per-layer metrics.  Every round checks its outputs; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, "out")
WORKLOADS = ("battery", "large-objects", "exact-linalg")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, every child included

CRITERIA = [f"c{i:02d}" for i in range(1, 13)]
LINALG_OPS = [f"linalg.{op}.{tag}.n{n}.cpu_s"
              for op in ("rank", "kernel", "solve", "inverse")
              for tag in ("q", "fp101") for n in (20, 40, 80)]


def _span(kind, name):
    return lambda t: t[kind].get(name, 0)


# per-layer metric -> (unit, value from one span pass's totals).  Counting
# pass figures (fields.ops, combinat.hops) are filled in separately.
PER_LAYER = {
    **{f"suite.criterion.{c}.cpu_s": ("s", _span("total", f"suite.criterion.{c}"))
       for c in CRITERIA},
    "suite.criteria_cpu_s": ("s", lambda t: sum(t["total"].get(f"suite.criterion.{c}", 0.0)
                                                for c in CRITERIA)),
    "fields.ops": ("count", None),
    "linalg.calls": ("count", _span("calls", "linalg")),
    "linalg.cells": ("count", lambda t: t["cells"]),
    "linalg.self_cpu_s": ("s", _span("layer_self", "linalg")),
    **{name: ("s", _span("total", name[:-len(".cpu_s")])) for name in LINALG_OPS},
    "algebra.self_cpu_s": ("s", _span("layer_self", "algebra")),
    "algebra.assoc.calls": ("count", _span("calls", "algebra.assoc")),
    "algebra.assoc.self_cpu_s": ("s", _span("self", "algebra.assoc")),
    "algebra.morphism.calls": ("count", _span("calls", "algebra.morphism")),
    "algebra.morphism.self_cpu_s": ("s", _span("self", "algebra.morphism")),
    "coalgebra.validate.calls": ("count", _span("calls", "coalgebra.validate")),
    "coalgebra.validate.self_cpu_s": ("s", _span("self", "coalgebra.validate")),
    "coalgebra.self_cpu_s": ("s", _span("layer_self", "coalgebra")),
    "comodule.self_cpu_s": ("s", _span("layer_self", "comodule")),
    "finite_dual.self_cpu_s": ("s", _span("layer_self", "finite_dual")),
    "finite_dual.linrec.cpu_s": ("s", _span("total", "finite_dual.linrec")),
    "combinat.self_cpu_s": ("s", _span("layer_self", "combinat")),
    "combinat.posets.cpu_s": ("s", _span("total", "combinat.posets")),
    "combinat.hops": ("count", None),
    "idempotents.self_cpu_s": ("s", _span("layer_self", "idempotents")),
    "idempotents.factor.calls": ("count", _span("calls", "idempotents.factor")),
    "idempotents.factor.cpu_s": ("s", _span("total", "idempotents.factor")),
    "reflexivity.self_cpu_s": ("s", _span("layer_self", "reflexivity")),
    "reflexivity.decompose.calls": ("count", _span("calls", "reflexivity.decompose")),
    "randgen.self_cpu_s": ("s", _span("layer_self", "randgen")),
    "specdoc.parse.cpu_s": ("s", _span("total", "specdoc.parse")),
    "report.canonical.cpu_s": ("s", _span("total", "report.canonical")),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    pass


def _child(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one round in a fresh interpreter and return its JSON result."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("ran out of time before the next round")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
             mode, repr(spawned), WORKDIR],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} round of {workload} did not end in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} round of {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def _rounds(workload, seed, mode, seconds, deadline) -> list:
    rounds = []
    while not rounds or sum(r["wall_s"] for r in rounds) < seconds:
        rounds.append(_child(workload, seed, mode, deadline))
    return rounds


def measure(workload, seed, seconds, deadline):
    rounds = _rounds(workload, seed, "measure", seconds, deadline)
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_child(workload, seed, "setup", deadline)["setup_s"])
    values = {key: statistics.median(r[key] for r in rounds)
              for key in ("wall_s", "cpu_s", "peak_rss_mib")}
    values["setup_s"] = statistics.median(setups)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    return rounds, metrics


def traced(workload, seed, seconds, deadline):
    rounds = _rounds(workload, seed, "spans", seconds, deadline)
    counts = _child(workload, seed, "counts", deadline)
    totals = [r["trace"] for r in rounds]
    metrics = {}
    for name, (unit, value) in PER_LAYER.items():
        if value is None:
            v = counts["trace"][name]
        elif unit == "s":
            v = float(statistics.median(value(t) for t in totals))
        else:  # a count the rounds observed, not an average of two
            v = statistics.median_low(value(t) for t in totals)
        metrics[name] = {"value": v, "unit": unit}
    wall = statistics.median(r["wall_s"] for r in rounds)
    print(f"span pass: {len(rounds)} round(s), median wall_s {wall:.4f}; "
          f"counting pass wall_s {counts['wall_s']:.4f}")
    return rounds + [counts], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "dualis", "__init__.py")):
        print(f"error: no dualis sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    run = traced if args.trace else measure
    try:
        rounds, metrics = run(args.workload, args.seed, args.seconds, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    ops = [op for r in rounds for op in r["ops"]]
    failed = [(name, problem) for name, problem in ops if problem is not None]
    for name, problem in failed[:20]:
        print(f"FAILED {name}: {problem}")
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
