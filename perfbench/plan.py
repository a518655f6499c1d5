"""Workload plans: the CLI calls one pass of a workload makes.

A plan is generated from the workload name and the seed only; the
program under test sees nothing but the resulting argv lists.  Every
call carries a `check` record telling checks.py what a correct output
looks like, and `work` is fixed by the input (never counted by the
program), so an algorithm that does less work for the same input reads
as faster.
"""

from __future__ import annotations

import os
import random

WORKLOADS = ("search-3x1", "search-collatz", "oracle", "nodes")

# Bound queries draw node rows from [2, _BOUND_ROWS).  Deeper rows are left
# out because of a defect in `bound_C`: from row ~451 on (k > 2e38) about
# half of the nodes make it divide by a zero that `_LogEvaluator.tight`
# returns, so `gx1cycles bound` exits with ZeroDivisionError.
# test_perfbench.py::test_bound_on_deep_node_known_defect reproduces it;
# widen this to the whole stream once it is fixed.
_BOUND_ROWS = 450

# Nodes of the two families whose bound C is a few hundred, so that
# `search-node` searches a range of that many starts: (family, k1, k2).
_SEARCH_NODES = (("collatz", 7, 5), ("collatz", 17, 12), ("collatz", 24, 17),
                 ("3x1", 12, 7), ("3x1", 17, 10), ("3x1", 29, 17))


def _threads():
    return min(2, os.cpu_count() or 1)


def _call(argv, check, work=0, name=None):
    return {"argv": argv, "check": check, "work": work, "name": name}


def _search_3x1(rng, smoke):
    half = 500 if smoke else 40_000
    offset = rng.randint(-half // 10, half // 10)
    lo, hi = offset - half, offset + half
    argv = ["search", "--family", "3x1", "--lo", str(lo), "--hi", str(hi),
            "--max-steps", "100000", "--format", "json"]
    check = {"kind": "search", "family": "3x1", "lo": lo, "hi": hi,
             "all_enter": True}
    return [_call(argv, check, work=hi - lo + 1, name="search")], "starts/s"


def _search_collatz(rng, smoke):
    width, max_steps = (100, 200) if smoke else (3000, 1000)
    lo = rng.randint(1, 400)
    hi = lo + width - 1
    argv = ["search", "--family", "collatz", "--lo", str(lo), "--hi", str(hi),
            "--max-steps", str(max_steps), "--threads", str(_threads()),
            "--format", "json"]
    check = {"kind": "search", "family": "collatz", "lo": lo, "hi": hi,
             "all_enter": False}
    return [_call(argv, check, work=hi - lo + 1, name="search")], "starts/s"


def sequences(d, max_period):
    """Branch sequences the oracle covers: sum of d^p for 1 <= p <= P."""
    return sum(d ** p for p in range(1, max_period + 1))


def _oracle(rng, smoke):
    variant = rng.randint(1, 6)
    p_perm, p_3x1 = (6, 10) if smoke else (13, 21)
    calls = []
    for family, d, period in ((f"perm:{variant}", 3, p_perm), ("3x1", 2, p_3x1)):
        argv = ["oracle", "--family", family, "--max-period", str(period)]
        check = {"kind": "oracle", "family": family, "max_period": period}
        calls.append(_call(argv, check, work=sequences(d, period)))
    return calls, "sequences/s"


def _nodes(rng, smoke):
    m = 50 if smoke else 3000
    calls = [
        _call(["nodes", "--family", "collatz", "--max-nodes", str(m), "--format", "json"],
              {"kind": "nodes", "family": "collatz", "rows": m}, work=m, name="g"),
        # the 3x+1 stream carries one extra seed (1/2) before it aligns
        _call(["nodes", "--family", "3x1", "--max-nodes", str(m + 1), "--format", "json"],
              {"kind": "nodes", "family": "3x1", "rows": m + 1, "reciprocal_of": "g"},
              work=m + 1, name="t"),
        _call(["nodes", "--family", "collatz", "--check-paper"], {"kind": "check_paper"}),
        _call(["nodes", "--family", "3x1", "--check-paper"], {"kind": "check_paper"}),
    ]
    # bound queries on emitted nodes; the counts are read from the named
    # call's output when the pass runs.  For a mod-2 mapping two counts are
    # read per branch, so 3x+1 takes (x/2 uses, (3x+1)/2 uses) = (k2, k1).
    for _ in range(5):
        source, family, counts = rng.choice((("g", "collatz", "{k1},{k2}"),
                                             ("t", "3x1", "{k2},{k1}")))
        row = rng.randrange(2, min(m, _BOUND_ROWS))
        calls.append(_call(["bound", "--family", family, "--counts", counts,
                            "--format", "json"],
                           {"kind": "bound", "node_from": [source, row]}))
    family, k1, k2 = rng.choice(_SEARCH_NODES)
    calls.append(_call(["search-node", "--family", family, "--k1", str(k1),
                        "--k2", str(k2), "--format", "json"],
                       {"kind": "search_node", "family": family, "k1": k1, "k2": k2}))
    return calls, "nodes/s"


_MAKERS = {"search-3x1": _search_3x1, "search-collatz": _search_collatz,
           "oracle": _oracle, "nodes": _nodes}

# mapping resolved and Engine built during set-up, per workload
SETUP_FAMILY = {"search-3x1": "3x1", "search-collatz": "collatz",
                "oracle": "collatz", "nodes": "collatz"}


def make_plan(workload, seed, smoke=False):
    """The calls of one pass of `workload`, drawn from `seed`."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    calls, work_unit = _MAKERS[workload](rng, smoke)
    return {"workload": workload, "seed": seed, "smoke": smoke, "calls": calls,
            "work_unit": work_unit, "setup_family": SETUP_FAMILY[workload]}
