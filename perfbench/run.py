#!/usr/bin/env python3
"""gx1cycles benchmark: real CLI workloads, checked outputs, per-layer trace.

    python3 perfbench/run.py --workload search-3x1 --seed 1 --seconds 30 --trace 0

Runs passes of the workload until --seconds have elapsed (at least
MIN_PASSES).  Each pass is a fresh interpreter (worker.py) that sets up,
makes the workload's CLI calls one after another (closed loop, one
client) and checks every output.  With --trace 0 the last stdout line
reports the end-to-end metrics as medians over passes; with --trace 1
it alternates untraced and traced passes and reports the per-layer
metrics.  Exits 1 when any output check fails, and without a result
when the program cannot run at all.  See README.md in this directory.
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
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from plan import WORKLOADS, make_plan  # noqa: E402
from tracing import PER_LAYER, RATIO_BASES  # noqa: E402

MIN_PASSES = 3
PASS_TIMEOUT_S = 150

# (name, unit, better) of every end-to-end metric
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),     # items of the workload's work unit per second
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


class PassError(RuntimeError):
    """A worker did not produce a result (the program could not run)."""


def run_pass(plan, trace, spans_path=None, deep=False):
    """One fresh-interpreter pass; returns the worker's result."""
    req = {"calls": plan["calls"], "setup_family": plan["setup_family"],
           "trace": trace, "spans_path": spans_path, "deep": deep}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                              input=json.dumps(req), capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassError(f"pass did not finish within {PASS_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    # both clocks are CLOCK_MONOTONIC, shared by the two processes
    result["setup_s"] = result["ready_at"] - spawned
    result["wall_s"] = sum(c["wall_s"] for c in result["calls"])
    result["work"] = sum(c["work"] for c in plan["calls"])
    return result


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, first):
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "active_backend": first["active_backend"],
        "report_backends": first["report_backends"],
        "kernel_importable": first["kernel_importable"],
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "argv": [["gx1cycles"] + c["argv"] for c in first["calls"]],
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _line(name, value, unit, note=""):
    return f"  {name:<30} {value:>14.6g} {unit:<12} {note}"


def end_to_end(passes, work_unit):
    """Medians over passes, and a printable line per metric."""
    series = {
        "wall_s": [p["wall_s"] for p in passes],
        "work_per_s": [p["work"] / p["wall_s"] for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
        "peak_rss_mb": [p["rss_kb"] / 1024 for p in passes],
    }
    metrics, lines = {}, []
    for name, unit, _better in END_TO_END:
        values = series[name]
        q1, q3 = _quartiles(values)
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        lines.append(_line(name, metrics[name]["value"], work_unit if name == "work_per_s" else unit,
                           f"median of {len(values)} passes (q1 {q1:.6g}, q3 {q3:.6g})"))
    return metrics, lines


def per_layer(untraced, traced):
    """Medians over traced passes of each layer metric, plus set-up and overhead."""
    metrics, lines = {}, []
    values = {name: [p["layers"].get(name, 0) for p in traced] for name, _, _ in PER_LAYER}
    values["setup.import_s"] = [p["import_s"] for p in untraced + traced]
    values["setup.engine_s"] = [p["engine_s"] for p in untraced + traced]
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    values["trace.traced_wall_s"] = [traced_wall]
    values["trace.untraced_wall_s"] = [untraced_wall]
    values["trace.overhead"] = [traced_wall / untraced_wall - 1]
    for name, unit, _better in PER_LAYER:
        metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
        base = RATIO_BASES.get(name)
        note = f"= {base[0]} / {base[1]}" if base else ""
        if name == "trace.overhead":
            note += " - 1"
        lines.append(_line(name, metrics[name]["value"], unit, note))
    return metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the benchmark itself")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "gx1cycles")):
        print(f"perfbench: no gx1cycles sources under {SRC}", file=sys.stderr)
        return 2
    plan = make_plan(args.workload, args.seed, smoke=args.smoke)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")

    untraced, traced = [], []
    deadline = time.monotonic() + args.seconds
    try:
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            while not traced or time.monotonic() < deadline:
                untraced.append(run_pass(plan, False, deep=not untraced))
                traced.append(run_pass(plan, True, spans_path))
        else:
            while len(untraced) < MIN_PASSES or time.monotonic() < deadline:
                untraced.append(run_pass(plan, False, deep=not untraced))
    except PassError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    # the first pass had the deep checks; every output is deterministic
    for p in passes[1:]:
        for first, c in zip(passes[0]["calls"], p["calls"]):
            if not c["problems"] and c["digest"] != first.get("digest"):
                c["problems"] = ["output differs from the first pass"]
    calls = [c for p in passes for c in p["calls"]]
    failures = [c for c in calls if c["problems"]]
    for c in failures[:10]:
        print(f"FAILED gx1cycles {' '.join(c['argv'])}: {'; '.join(c['problems'][:3])}",
              file=sys.stderr)

    if args.trace:
        metrics, lines = per_layer(untraced, traced)
    else:
        metrics, lines = end_to_end(untraced, plan["work_unit"])
    prov = provenance(args, passes[0])
    lines.append(_line("fail_share", len(failures) / len(calls), "share",
                       f"{len(failures)} failed of {len(calls)} calls"))
    print(f"perfbench {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, backend {prov['active_backend']}")
    print("\n".join(lines))
    print("provenance " + json.dumps(prov))
    print(json.dumps({"correct": not failures, "attempted": len(calls),
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
