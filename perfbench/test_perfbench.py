"""Tests of the benchmark itself: smoke runs, output checks, trace derivation.

Run with the package sources importable, from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import plan
import run
import tracing
import worker
from gx1cycles import COLLATZ_FAMILY, bound_C, generate_nodes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _cli_text(argv):
    import gx1cycles.cli as cli

    code, text, error = worker._run_cli(cli, argv)
    assert code == 0 and error is None, error
    return text


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(plan.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert spec["paths"] == ["perfbench"]


def test_plan_depends_only_on_seed():
    for workload in plan.WORKLOADS:
        assert plan.make_plan(workload, 7) == plan.make_plan(workload, 7)
    assert plan.make_plan("search-3x1", 1) != plan.make_plan("search-3x1", 2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_smoke_run_prints_every_metric_with_unit(workload, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        expected = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        expected = {name: unit for name, unit, _ in run.END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in result["metrics"]:
        assert name in proc.stdout.split("\n", 1)[1]      # the readable lines too


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _search_case():
    call = plan.make_plan("search-3x1", 5, smoke=True)["calls"][0]
    return call["check"], json.loads(_cli_text(call["argv"]))


def test_search_check_accepts_real_output_and_catches_corruption():
    spec, rep = _search_case()
    assert checks.check_call(spec, json.dumps(rep), {}) == []

    dropped = dict(rep, cycles=rep["cycles"][1:])
    assert checks.check_call(spec, json.dumps(dropped), {})

    tallies = dict(rep["tallies"], entered=rep["tallies"]["entered"] - 1,
                   step_cutoff=rep["tallies"]["step_cutoff"] + 1)
    assert checks.check_call(spec, json.dumps(dict(rep, tallies=tallies)), {})

    hits = dict(rep["hits"])
    first = next(iter(hits))
    hits[first] += 1
    assert checks.check_call(spec, json.dumps(dict(rep, hits=hits)), {})

    bad = json.loads(json.dumps(rep))
    bad["cycles"][-1]["elements"][0] += 1
    assert checks.check_call(spec, json.dumps(bad), {})


def test_deep_search_check_catches_a_tally_moved_between_cutoffs():
    call = plan.make_plan("search-collatz", 1, smoke=True)["calls"][0]
    spec, rep = call["check"], json.loads(_cli_text(call["argv"]))
    assert checks.check_call(spec, json.dumps(rep), {}, deep=True) == []
    t = rep["tallies"]
    moved = dict(t, step_cutoff=t["step_cutoff"] - 1, magnitude_cutoff=t["magnitude_cutoff"] + 1)
    bad = json.dumps(dict(rep, tallies=moved))
    assert checks.check_call(spec, bad, {}) == []      # sums still agree
    assert checks.check_call(spec, bad, {}, deep=True)


@pytest.mark.parametrize("family", ["perm:1", "perm:4", "3x1"])
def test_oracle_check_catches_a_dropped_cycle(family):
    period = 13 if family.startswith("perm") else 12
    spec = {"kind": "oracle", "family": family, "max_period": period}
    cat = json.loads(_cli_text(["oracle", "--family", family, "--max-period", str(period)]))
    assert checks.check_call(spec, json.dumps(cat), {}) == []
    for i in range(len(cat["cycles"])):
        dropped = dict(cat, cycles=cat["cycles"][:i] + cat["cycles"][i + 1:])
        assert checks.check_call(spec, json.dumps(dropped), {}), i
    # visiting fewer sequences for the same cycles is not a failure
    fewer = dict(cat, meta=dict(cat["meta"], sequences=cat["meta"]["sequences"] // 3))
    assert checks.check_call(spec, json.dumps(fewer), {}) == []


def test_nodes_checks_catch_corruption():
    calls = plan.make_plan("nodes", 2, smoke=True)["calls"]
    outputs = {}
    for call in calls:
        text = _cli_text(worker._resolve(call, outputs))
        if call["name"]:
            outputs[call["name"]] = text
        assert checks.check_call(call["check"], text, outputs) == [], call["argv"]

    g_spec, t_spec = calls[0]["check"], calls[1]["check"]
    t = json.loads(outputs["t"])
    row = t["rows"][10]
    swapped = dict(row, k1=row["k2"], k2=row["k1"])
    bad = dict(t, rows=t["rows"][:10] + [swapped] + t["rows"][11:])
    assert checks.check_call(t_spec, json.dumps(bad), outputs)
    g = json.loads(outputs["g"])
    assert checks.check_call(g_spec, json.dumps(dict(g, rows=g["rows"][:-1])), outputs)
    assert checks.check_call({"kind": "check_paper"}, "40/41 reference checks passed\n", {})

    bound = next(c for c in calls if c["check"]["kind"] == "bound")
    text = json.loads(_cli_text(worker._resolve(bound, outputs)))
    assert checks.check_call(bound["check"], json.dumps(dict(text, ln_C=text["ln_C"] + 1e-3)),
                             outputs)


def test_unreadable_output_is_a_failure():
    spec, _ = _search_case()
    assert checks.check_call(spec, "not json", {})


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, None, 0, "cli", 0.0, 10.0, None),
        (2, 1, 0, "search", 1.0, 9.0, {"n": 100}),
        (3, 2, 0, "search.discover", 2.0, 5.0, None),     # two pool threads
        (4, 2, 0, "search.discover", 4.0, 6.0, None),     # overlapping
        (5, 2, 0, "search.tally", 7.0, 8.0, {"n": 25}),
        (6, 3, 0, "walk.brent", 2.0, 3.0, {"n": 40, "backend": "pure"}),
    ]
    m = tracing.derive(spans)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["search.self_s"] == pytest.approx(8.0 - 4.0 - 1.0)
    assert m["search.first_pass_ratio"] == pytest.approx(0.75)
    assert m["walk.brent.ns_per_step"] == pytest.approx(1e9 / 40)
    assert m["walk.tally.ns_per_step"] == 0
    assert set(m) <= {name for name, _, _ in tracing.PER_LAYER}


def test_tracer_restores_every_patched_name():
    import gx1cycles
    import gx1cycles.cli

    before = {(id(o), a): o.__dict__[a] for o, a, _, _ in tracing._patch_table(gx1cycles)}
    tracer = tracing.Tracer()
    with tracer.installed(gx1cycles):
        with tracer.cli_call(0):
            worker._run_cli(gx1cycles.cli, ["search", "--family", "3x1", "--lo", "-20",
                                            "--hi", "20", "--format", "json"])
    after = {(id(o), a): o.__dict__[a] for o, a, _, _ in tracing._patch_table(gx1cycles)}
    assert before == after
    names = {s[3] for s in tracer.spans}
    assert {"cli", "search", "search.discover", "walk.brent", "member_table"} <= names
    m = tracing.derive(tracer.spans)
    assert m["search.starts"] == 41 and m["walk.brent.calls"] == 41


@pytest.mark.xfail(raises=ZeroDivisionError, strict=True,
                   reason="bound_C divides by a zero returned by _LogEvaluator.tight for "
                          "many nodes with k > 2e38; plan._BOUND_ROWS keeps bound "
                          "queries below them until this is fixed")
def test_bound_on_deep_node_known_defect():
    node = generate_nodes(COLLATZ_FAMILY, max_nodes=452)[451]
    result = bound_C(COLLATZ_FAMILY, (node.k1, node.k2))
    assert result.ln_C == pytest.approx(node.ln_c)
