"""Output checks: each CLI call's output is checked after the pass.

`check_call` returns a list of problems; an empty list means the output
is correct.  The checks use the library only as an independent
reference (bundled catalogs, `verify_catalog`, `reciprocity_check`) and
never time anything.  A deep check also re-classifies every start of a
search with a plain walk; run.py asks for it on the first pass of a run
and requires every later pass to print the same output.
"""

from __future__ import annotations

import json
import math
import os
import re

from gx1cycles import (MappingDef, Node, available_backends, bound_C,
                       canonicalize, mapping_from_name, node_family,
                       reciprocity_check, search_range, verify_catalog)
from gx1cycles.reference import load_bundled_catalog

_HERE = os.path.dirname(os.path.abspath(__file__))
TALLY_KEYS = {"entered", "step_cutoff", "magnitude_cutoff"}


def _expected_oracle():
    with open(os.path.join(_HERE, "expected_oracle.json"), encoding="utf-8") as fh:
        raw = json.load(fh)["cycles"]
    return {name: {tuple(p) for p in pairs} for name, pairs in raw.items()}


def _pairs(cycles, max_period=None):
    return {(c["period"], c["min"]) for c in cycles
            if max_period is None or c["period"] <= max_period}


def _same_mapping(a: MappingDef, b: MappingDef):
    return a.d == b.d and tuple(a.branches) == tuple(b.branches)


def _check_mapping(rep, family, problems):
    mapping = MappingDef.from_json(rep["mapping"])
    if not _same_mapping(mapping, mapping_from_name(family)):
        problems.append(f"output mapping is not {family}")
    return mapping


def _check_cycles(mapping, cycles, problems):
    result = verify_catalog(mapping, {"cycles": cycles})
    for failure in result.failures():
        problems.append(f"cycle fails verification: {failure.message}")
    for c in cycles:
        if c["min"] != min(c["elements"]) or c["period"] != len(c["elements"]):
            problems.append(f"cycle {c['min']}: period/min fields disagree with elements")


def _check_search_tallies(rep, lo, hi, problems, kept_only=False):
    """Tallies cover the range; hits cover the entered starts, or only the
    kept cycles' share of them for a node-guided search."""
    if rep["range"] != [lo, hi]:
        problems.append(f"range {rep['range']} != {[lo, hi]}")
    tallies = rep["tallies"]
    if set(tallies) != TALLY_KEYS:
        problems.append(f"tally keys {sorted(tallies)}")
    if sum(tallies.values()) != hi - lo + 1:
        problems.append(f"tallies sum to {sum(tallies.values())}, range has {hi - lo + 1}")
    if any(v < 0 for v in tallies.values()):
        problems.append("negative tally")
    hits = {int(k): v for k, v in rep["hits"].items()}
    if (sum(hits.values()) > tallies.get("entered", 0) if kept_only
            else sum(hits.values()) != tallies.get("entered")):
        problems.append(f"hits sum to {sum(hits.values())}, entered is {tallies.get('entered')}")
    mins = {c["min"] for c in rep["cycles"]}
    if not set(hits) <= mins:
        problems.append(f"hits name cycles not in the report: {sorted(set(hits) - mins)}")


def _backends_agree(rep, mapping, problems):
    """Re-run the search on the other backend when both are available."""
    backends = available_backends()
    if len(backends) < 2:
        return
    other = "pure" if rep["backend"] == "compiled" else "compiled"
    again = search_range(mapping, rep["range"][0], rep["range"][1],
                         max_steps=rep["cutoffs"]["max_steps"],
                         max_magnitude=int(rep["cutoffs"]["max_magnitude"]),
                         backend=other).to_json()
    mine = {k: v for k, v in rep.items() if k != "backend"}
    theirs = json.loads(json.dumps({k: v for k, v in again.items() if k != "backend"}))
    if mine != theirs:
        problems.append(f"backends disagree: {rep['backend']} vs {other}")


def _reference_tallies(mapping, rep):
    """(tallies, hits) of the report's range by a plain walk of each start.

    A start is entered when an iterate with index <= max_steps is a member
    of one of the report's cycles, and a magnitude cutoff when an iterate
    exceeds the cutoff first; the search defines its classes this way.
    """
    d = mapping.d
    ms = [m for m, _ in mapping.branches]
    rs = [r for _, r in mapping.branches]
    member = {v: c["min"] for c in rep["cycles"] for v in c["elements"]}
    max_steps = rep["cutoffs"]["max_steps"]
    max_mag = int(rep["cutoffs"]["max_magnitude"])
    tallies = dict.fromkeys(TALLY_KEYS, 0)
    hits = {}
    for x in range(rep["range"][0], rep["range"][1] + 1):
        outcome = "step_cutoff"
        for _ in range(max_steps + 1):
            if abs(x) > max_mag:
                outcome = "magnitude_cutoff"
                break
            if x in member:
                outcome = "entered"
                hits[member[x]] = hits.get(member[x], 0) + 1
                break
            b = x % d
            x = (ms[b] * x - rs[b]) // d
        tallies[outcome] += 1
    return tallies, hits


def _check_search(spec, text, _outputs, deep=False):
    problems = []
    rep = json.loads(text)
    mapping = _check_mapping(rep, spec["family"], problems)
    _check_search_tallies(rep, spec["lo"], spec["hi"], problems)
    _check_cycles(mapping, rep["cycles"], problems)
    bundled = load_bundled_catalog(spec["family"])["cycles"]
    unknown = _pairs(rep["cycles"]) - _pairs(bundled)
    if unknown:
        problems.append(f"cycles not in the bundled catalog: {sorted(unknown)}")
    # a start on a cycle closes it at once, so such a cycle must be reported
    missed = {(c["period"], c["min"]) for c in bundled
              if any(spec["lo"] <= v <= spec["hi"] for v in c["elements"])} - _pairs(rep["cycles"])
    if missed:
        problems.append(f"cycles with a start in the range are missing: {sorted(missed)}")
    if spec["all_enter"] and rep["tallies"].get("entered") != spec["hi"] - spec["lo"] + 1:
        problems.append("some start did not enter a cycle")
    if deep and not problems:
        tallies, hits = _reference_tallies(mapping, rep)
        if tallies != rep["tallies"] or hits != {int(k): v for k, v in rep["hits"].items()}:
            problems.append(f"a plain walk of every start gives tallies {tallies}")
    if not problems:
        _backends_agree(rep, mapping, problems)
    return problems


def _check_oracle(spec, text, _outputs):
    problems = []
    cat = json.loads(text)
    family, period = spec["family"], spec["max_period"]
    mapping = _check_mapping(cat, family, problems)
    _check_cycles(mapping, cat["cycles"], problems)
    # how many sequences the oracle visited is not checked: an enumeration
    # that skips sequences (Lyndon words) is correct if its cycles are
    meta = cat.get("meta", {})
    if meta.get("max_period") != period:
        problems.append(f"max_period {meta.get('max_period')} != {period}")
    got = _pairs(cat["cycles"])
    if any(p > period for p, _ in got):
        problems.append("cycle longer than the period bound")
    expected = _expected_oracle().get(family)
    if expected is not None and got != {p for p in expected if p[0] <= period}:
        problems.append(f"cycle set differs from the expected one: missing "
                        f"{sorted({p for p in expected if p[0] <= period} - got)}, "
                        f"extra {sorted(got - expected)}")
    for name in ("collatz", "3x1"):
        bundled = load_bundled_catalog(name)
        if not _same_mapping(mapping, MappingDef.from_json(bundled["mapping"])):
            continue
        if name == "collatz":
            # the bundled Collatz catalog is the oracle at period <= 12
            top = min(period, bundled["meta"]["max_period"])
            if _pairs(cat["cycles"], top) != _pairs(bundled["cycles"], top):
                problems.append(f"collatz oracle differs from the bundled catalog at period <= {top}")
        elif not _pairs(bundled["cycles"], period) <= got:
            problems.append("3x1 oracle misses a bundled cycle")
    return problems


def _rows_to_nodes(family, rows):
    fam = node_family(family)
    return [Node(fam, r["i"], r["j"], r["side"], r["k1"], r["k2"], r["lambda"], r["ln_C"])
            for r in rows]


def _check_nodes(spec, text, outputs):
    problems = []
    obj = json.loads(text)
    rows = obj["rows"]
    if obj["family"] != spec["family"]:
        problems.append(f"family {obj['family']} != {spec['family']}")
    if len(rows) != spec["rows"]:
        problems.append(f"{len(rows)} rows, expected {spec['rows']}")
    for r in rows:
        if r["k"] != r["k1"] + r["k2"] or r["side"] not in ("PP", "PG"):
            problems.append(f"malformed row {r}")
            break
    source = spec.get("reciprocal_of")
    if source is not None:
        collatz = json.loads(outputs[source])["rows"]
        report = reciprocity_check(_rows_to_nodes("collatz", collatz),
                                   _rows_to_nodes(obj["family"], rows))
        if not report.ok:
            problems.extend(report.mismatches[:5])
        if report.pairs_checked != min(len(collatz), len(rows) - 1):
            problems.append(f"reciprocity compared {report.pairs_checked} pairs")
    return problems


_PAPER_LINE = re.compile(r"^(\d+)/(\d+) reference checks passed$")


def _check_paper(_spec, text, _outputs):
    lines = text.strip().splitlines()
    match = _PAPER_LINE.match(lines[-1]) if lines else None
    if not match or match.group(1) != match.group(2) or int(match.group(2)) == 0:
        return [f"--check-paper did not pass: {lines[-1] if lines else 'no output'}"]
    return []


def _node_row(outputs, node_from):
    source, index = node_from
    return json.loads(outputs[source])["rows"][index]


def _check_bound(spec, text, outputs):
    problems = []
    obj = json.loads(text)
    row = _node_row(outputs, spec["node_from"])
    if obj["k_growth"] != row["k1"]:
        problems.append(f"k_growth {obj['k_growth']} != k1 {row['k1']}")
    if not obj["C"] > 0 or abs(math.log(obj["C"]) - obj["ln_C"]) > 1e-6:
        problems.append(f"C {obj['C']} and ln C {obj['ln_C']} disagree")
    if row["ln_C"] is None or abs(obj["ln_C"] - row["ln_C"]) > 2e-7:
        problems.append(f"ln C {obj['ln_C']} != node table ln C {row['ln_C']}")
    return problems


def _check_search_node(spec, text, _outputs):
    problems = []
    rep = json.loads(text)
    mapping = _check_mapping(rep, spec["family"], problems)
    lo, hi = rep["range"]
    limit = int(bound_C(spec["family"], (spec["k1"], spec["k2"])).C)
    if [lo, hi] not in ([1, limit], [-limit, -1]):
        problems.append(f"range {rep['range']} is not [1, C] or [-C, -1] for C = {limit}")
    _check_search_tallies(rep, lo, hi, problems, kept_only=True)
    _check_cycles(mapping, rep["cycles"], problems)
    for c in rep["cycles"]:
        pair = canonicalize(mapping, c["elements"]).counts.as_pair()
        if pair != (spec["k1"], spec["k2"]):
            problems.append(f"kept cycle {c['min']} has counts {pair}")
    return problems


_CHECKS = {"oracle": _check_oracle, "nodes": _check_nodes,
           "check_paper": _check_paper, "bound": _check_bound,
           "search_node": _check_search_node}


def check_call(spec, text, outputs, deep=False):
    """Problems found in one call's output text (empty when correct).

    `outputs` maps the names of earlier calls of the pass to their text.
    `deep` adds the plain-walk re-classification of searches.
    """
    try:
        if spec["kind"] == "search":
            return _check_search(spec, text, outputs, deep)
        return _CHECKS[spec["kind"]](spec, text, outputs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
