"""Bounded exhaustive searches over start values.

A search classifies every start in a range as entering a known cycle,
exceeding the step budget, or exceeding the magnitude cutoff.  Discovery
runs Brent detection with a memoized member set (an early exit only:
the final report is a pure function of the range, the cutoffs and the
discovered catalog, so it is identical across runs and thread counts).
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ._backend import ENTERED, MAG_CUTOFF, NEW_CYCLE, STEP_CUTOFF, Engine
from .cycles import Cycle, CycleCatalog, canonicalize
from .mappings import DEFAULT_MAX_MAGNITUDE, DEFAULT_MAX_STEPS, MappingDef
from .nodes import Node, bound_C, lambda_exact

_BLOCK = 4096


@dataclass(frozen=True)
class SearchReport:
    """Outcome of searching every start in [lo, hi]."""

    mapping: MappingDef
    lo: int
    hi: int
    max_steps: int
    max_magnitude: int
    catalog: CycleCatalog
    tallies: dict[str, int]
    hits: dict[int, int]            # cycle min_element -> starts entering it
    backend: str = field(default="pure", compare=False)   # perfbench reads it
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def range_size(self) -> int:
        return max(0, self.hi - self.lo + 1)

    def to_json(self) -> dict:
        return {
            "mapping": self.mapping.to_json(),
            "range": [self.lo, self.hi],
            "cutoffs": {"max_steps": self.max_steps,
                        "max_magnitude": str(self.max_magnitude)},
            "tallies": dict(self.tallies),
            "hits": {str(k): v for k, v in sorted(self.hits.items())},
            "backend": self.backend,
            "cycles": [c.to_json() for c in self.catalog.cycles],
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")


def _chunks(seq, size):
    it = iter(seq)
    while True:
        block = list(itertools.islice(it, size))
        if not block:
            return
        yield block


# perfbench traces this name, and reads `starts` as its second argument
def _discover_block(engine, mapping, starts, max_steps, max_magnitude,
                    base_members, base_mins):
    members = engine.member_table(base_members.items())
    mins = list(base_mins)
    tallies = Counter()
    hits = Counter()
    new_cycles: dict[int, Cycle] = {}
    deferred = []
    for s in starts:
        code, _steps, payload = engine.walk_brent(s, max_steps, max_magnitude, members)
        if code == ENTERED:
            tallies["entered"] += 1
            hits[mins[payload]] += 1
        elif code == NEW_CYCLE:
            cyc = canonicalize(mapping, payload)
            cid = len(mins)
            mins.append(cyc.min_element)
            for v in cyc.elements:
                members[v] = cid
            new_cycles[cyc.min_element] = cyc
            tallies["entered"] += 1
            hits[cyc.min_element] += 1
        elif code == STEP_CUTOFF:
            deferred.append(s)
        else:
            tallies["magnitude_cutoff"] += 1
    return tallies, hits, new_cycles, deferred


# perfbench traces this name, and reads `starts` as its second argument
def _tally_block(engine, starts, max_steps, max_magnitude, members, mins):
    tallies = Counter()
    hits = Counter()
    for s in starts:
        code, _steps, cid = engine.walk_tally(s, max_steps, max_magnitude, members)
        if code == ENTERED:
            tallies["entered"] += 1
            hits[mins[cid]] += 1
        elif code == MAG_CUTOFF:
            tallies["magnitude_cutoff"] += 1
        else:
            tallies["step_cutoff"] += 1
    return tallies, hits


def search_range(mapping: MappingDef, lo: int, hi: int,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 max_magnitude: int = DEFAULT_MAX_MAGNITUDE,
                 threads: int = 1) -> SearchReport:
    """Classify every start in [lo, hi] and catalog the cycles entered.

    One code path serves every thread count: the range is streamed in
    blocks of _BLOCK starts, and each wave of `threads` blocks runs on
    the pool against the members known when the wave starts.  A wave is
    merged, in block order, only after all of its blocks have returned.
    Starts whose Brent walk runs out of budget before confirming a cycle
    are re-classified, on the same pool, against the final member set,
    so a start counts as "entered" exactly when its orbit touches a
    catalog cycle within max_steps applications.
    """
    if lo > hi:
        raise ValueError(f"empty range: lo {lo} > hi {hi}")
    if max_steps < 0 or max_magnitude <= 0:
        raise ValueError("cutoffs must be positive")
    threads = max(1, threads)
    engine = Engine(mapping)

    members: dict[int, int] = {}
    mins: list[int] = []
    cycles: dict[int, Cycle] = {}
    tallies = Counter({"entered": 0, "step_cutoff": 0, "magnitude_cutoff": 0})
    hits = Counter()
    deferred: list[int] = []

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for wave in _chunks(_chunks(range(lo, hi + 1), _BLOCK), threads):
            results = list(pool.map(
                lambda blk: _discover_block(engine, mapping, blk, max_steps,
                                            max_magnitude, members, mins), wave))
            for btallies, bhits, bnew, bdeferred in results:
                tallies.update(btallies)
                hits.update(bhits)
                for mn, cyc in bnew.items():
                    if mn not in cycles:
                        cycles[mn] = cyc
                        cid = len(mins)
                        mins.append(mn)
                        for v in cyc.elements:
                            members[v] = cid
                deferred.extend(bdeferred)
        if deferred:
            final = engine.member_table(members.items())
            for btallies, bhits in pool.map(
                    lambda blk: _tally_block(engine, blk, max_steps, max_magnitude,
                                             final, mins),
                    _chunks(deferred, _BLOCK)):
                tallies.update(btallies)
                hits.update(bhits)

    catalog = CycleCatalog(
        mapping, tuple(cycles.values()),
        provenance=f"bounded search over [{lo}, {hi}]",
        meta={"max_steps": max_steps, "max_magnitude": max_magnitude})
    report = SearchReport(mapping, lo, hi, max_steps, max_magnitude, catalog,
                          dict(tallies), dict(hits))
    assert sum(report.tallies.values()) == report.range_size
    return report


def search_node(mapping: MappingDef, node: Node, constant=None,
                signed: str | None = None,
                max_steps: int = DEFAULT_MAX_STEPS,
                max_magnitude: int = DEFAULT_MAX_MAGNITUDE,
                threads: int = 1) -> SearchReport:
    """Search the start range allowed by the node's bound C and keep only
    cycles whose branch counts equal the node's (k1, k2).

    The sign of the range defaults to positive; for the 3x+1 family the
    displacement term is positive, so PP nodes can only close on positive
    integers and PG nodes on negative ones.  Pass signed="positive",
    "negative" or "both" to override.
    """
    bound = bound_C(node.family, (node.k1, node.k2), constant=constant)
    limit = int(bound.C)
    meta = {"node": node.label, "k1": node.k1, "k2": node.k2,
            "C": bound.C, "ln_C": bound.ln_C}
    if signed is None:
        if node.family.name == "3x1":
            signed = "positive" if node.side == "PP" else "negative"
        else:
            signed = "positive"
    if limit < 1:
        report = SearchReport(mapping, 1, 0, max_steps, max_magnitude,
                              CycleCatalog(mapping, ()),
                              {"entered": 0, "step_cutoff": 0, "magnitude_cutoff": 0},
                              {}, meta=dict(meta, empty="bound C below 1"))
        return report
    if signed == "positive":
        lo, hi = 1, limit
    elif signed == "negative":
        lo, hi = -limit, -1
    elif signed == "both":
        lo, hi = -limit, limit
    else:
        raise ValueError(f"signed must be positive/negative/both, got {signed!r}")
    full = search_range(mapping, lo, hi, max_steps=max_steps,
                        max_magnitude=max_magnitude, threads=threads)
    want = (node.k1, node.k2)
    kept = tuple(c for c in full.catalog.cycles
                 if c.counts.k1 is not None and c.counts.as_pair() == want)
    catalog = CycleCatalog(mapping, kept,
                           provenance=f"node-guided search for counts {want} in [{lo}, {hi}]")
    hits = {mn: n for mn, n in full.hits.items()
            if mn in {c.min_element for c in kept}}
    return SearchReport(mapping, lo, hi, max_steps, max_magnitude, catalog,
                        full.tallies, hits, meta=meta)


@dataclass(frozen=True)
class ProfileRecord:
    start: int
    step: int | None            # step of nearest return, None if cut off at once
    counts: tuple[int, ...] | None
    lam: float | None


@dataclass(frozen=True)
class LambdaProfile:
    """Nearest-return statistics over sampled starts (evidence, not proof)."""

    mapping: MappingDef
    horizon: int
    records: tuple[ProfileRecord, ...]

    def by_counts(self) -> Counter:
        return Counter(r.counts for r in self.records if r.counts is not None)

    def histogram(self, bin_width: float = 0.05) -> dict[float, int]:
        out: Counter = Counter()
        for r in self.records:
            if r.lam is not None:
                out[round(r.lam // bin_width * bin_width, 10)] += 1
        return dict(sorted(out.items()))


def lambda_profile(mapping: MappingDef, sample_starts, horizon: int,
                   max_magnitude: int = DEFAULT_MAX_MAGNITUDE) -> LambdaProfile:
    """For each start, the branch counts at its nearest return.

    Walks `horizon` steps and finds the earliest step whose value is
    closest to the start; the ratio product of the branch counts up to
    that step is the trajectory's lambda.  Cycle members return exactly
    (distance 0 at their period).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    records = []
    for start in sample_starts:
        counts = [0] * mapping.d
        x = start
        best = None          # (distance, step, counts snapshot)
        for j in range(1, horizon + 1):
            x, b = mapping.apply(x)
            if abs(x) > max_magnitude:
                break
            counts[b] += 1
            dist = abs(x - start)
            if best is None or dist < best[0]:
                best = (dist, j, tuple(counts))
                if dist == 0:
                    break
        if best is None:
            records.append(ProfileRecord(start, None, None, None))
            continue
        _, step, snap = best
        records.append(ProfileRecord(start, step, snap,
                                     float(lambda_exact(mapping, snap))))
    return LambdaProfile(mapping, horizon, tuple(records))
