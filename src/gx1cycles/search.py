"""Bounded exhaustive searches over start values.

A search classifies every start in a range as entering a known cycle,
exceeding the step budget, or exceeding the magnitude cutoff.  Discovery
runs Brent detection with early exits on known cycle members and on
starts the search has already classified (the range memo, an array of
the outcomes of the starts nearest the pivot); starts are taken in order
of increasing distance from 0, so most walks stop after a few steps.
The final report is a pure function of the range, the cutoffs and the
discovered catalog, so it is identical across runs; search_range's
docstring argues why.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field

from ._backend import ENTERED, MAG_CUTOFF, MEMO_HIT, NEW_CYCLE, STEP_CUTOFF, Engine
from .cycles import CycleCatalog, canonicalize
from .mappings import DEFAULT_MAX_MAGNITUDE, DEFAULT_MAX_STEPS, MappingDef
from .nodes import Node, bound_C, node_family

_MEMO_CAP = 1 << 17     # memo entries, 8 bytes each: at most 1 MiB per search


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


def _pivot(lo, hi):
    """0 if it is in [lo, hi], otherwise the endpoint nearest 0."""
    return min(max(0, lo), hi)


def _by_distance(lo, hi):
    """[lo, hi] in order of increasing distance from the pivot, the lower
    start first at equal distance: 0, -1, 1, -2, 2, ... clipped to [lo, hi]."""
    p = _pivot(lo, hi)
    yield p
    for k in range(1, max(p - lo, hi - p) + 1):
        if p - k >= lo:
            yield p - k
        if p + k <= hi:
            yield p + k


class _Search:
    """State of one search: member table, cycles and range memo.

    The memo has one int64 entry per start of a window [base, base + n),
    the first n starts of _by_distance.  An entry is
      -1                          -- unknown;
      (cid << shift | t) << 2 | c -- final: code c (ENTERED, STEP_CUTOFF
                                     or MAG_CUTOFF) at step t, cycle id
                                     cid for ENTERED, else 0;
      -2 - seen                   -- pending: a deferred start, where seen
                                     is the number of cycles registered
                                     when the first start of its chain
                                     was deferred.
    t is at most max_steps < 2^shift, so an entry fits in 63 bits when
    the range size and max_steps together need at most 61 bits;
    otherwise the memo is empty and every walk is a plain one.

    reach is the largest |v| over the window's ends and every registered
    member, and far the walk_brent argument that Engine.far derives from
    it: no iterate beyond far is one of them.
    """

    def __init__(self, mapping, lo, hi, max_steps, max_magnitude):
        self.mapping = mapping
        self.max_steps = max_steps
        self.max_magnitude = max_magnitude
        self.engine = Engine(mapping)
        self.members = self.engine.member_table(())
        self.cycles = []
        self.outcomes = [0] * 4         # outcome code -> starts
        self.hits: Counter = Counter()  # cycle id -> starts entering it
        self.work: Counter = Counter()  # steps walked and memo hits
        self.shift = max_steps.bit_length()
        self.mask = (1 << self.shift) - 1
        size = hi - lo + 1
        n = min(_MEMO_CAP, size) if self.shift + size.bit_length() <= 61 else 0
        p = _pivot(lo, hi)
        right = min(hi - p, n - 1 - min(p - lo, n // 2))
        self.base = p + right - n + 1
        self.memo = array("q", [-1]) * n
        self.reach = max(abs(self.base), abs(self.base + n - 1)) if n else 0
        self.far = self.engine.far(self.reach, max_magnitude)

    def register(self, cycle):
        """Cycle id of a newly closed cycle."""
        cid = len(self.cycles)
        for v in cycle.elements:
            self.members[v] = cid
        self.cycles.append(cycle)
        self.reach = max(self.reach, -cycle.min_element, max(cycle.elements))
        self.far = self.engine.far(self.reach, self.max_magnitude)
        return cid

    def final(self, code, steps, cid):
        """Entry of a final outcome (STEP_CUTOFF itself is a step cutoff)."""
        if code != ENTERED:
            cid = 0
        return ((cid << self.shift | steps) << 2) | code


# perfbench traces this name, and reads `starts` as its second argument
def _discover_block(run, starts):
    """Brent-walk every start; returns the deferred starts, each with the
    number of cycles registered when the first start of its chain was
    deferred."""
    walk, mapping, outcomes, hits = run.engine.walk_brent, run.mapping, run.outcomes, run.hits
    members, memo, base, size = run.members, run.memo, run.base, len(run.memo)
    max_steps, max_magnitude, far = run.max_steps, run.max_magnitude, run.far
    mask, cid_shift = run.mask, run.shift + 2
    walked = memo_hits = 0
    deferred = []
    for s in starts:
        code, steps, payload = walk(s, max_steps, max_magnitude, members, memo, base, far)
        walked += steps
        if code == MEMO_HIT:
            memo_hits += 1
            if payload < -1:
                deferred.append((s, -2 - payload))
                entry = payload
            elif steps + (payload >> 2 & mask) <= max_steps:
                # the reached start's outcome, `steps` later; past the
                # budget it is a step cutoff
                entry = payload + (steps << 2)
            else:
                entry = STEP_CUTOFF
        elif code == STEP_CUTOFF:
            seen = len(run.cycles)
            deferred.append((s, seen))
            entry = -2 - seen
        elif code == NEW_CYCLE:
            cid = run.register(canonicalize(mapping, payload))
            far = run.far
            # Brent touched no member and no cutoff before it closed the
            # cycle, so this walk stops where the orbit first enters it
            steps = run.engine.walk_tally(s, max_steps, max_magnitude, members)[1]
            walked += steps
            entry = run.final(ENTERED, steps, cid)
        else:
            entry = run.final(code, steps, payload)
        if entry >= 0:
            outcomes[entry & 3] += 1
            if entry & 3 == ENTERED:
                hits[entry >> cid_shift] += 1
        if 0 <= s - base < size:
            memo[s - base] = entry
    run.work["steps"] += walked
    run.work["memo_hits"] += memo_hits
    return deferred


# perfbench traces this name, and reads `starts` as its second argument
def _tally_block(run, starts):
    """Walk every deferred start (s, cycles registered when it was
    deferred) against the final member table, unless no cycle was
    registered since: then it is a step cutoff with no walk."""
    walk, members, memo, base, size = (run.engine.walk_tally, run.members,
                                       run.memo, run.base, len(run.memo))
    max_steps, max_magnitude = run.max_steps, run.max_magnitude
    outcomes, hits, mask, cid_shift = run.outcomes, run.hits, run.mask, run.shift + 2
    cycles, cutoff = len(run.cycles), run.final(STEP_CUTOFF, max_steps, 0)
    walked = memo_hits = skips = 0
    for s, seen in starts:
        if seen == cycles:
            skips += 1
            entry = cutoff
        else:
            code, steps, payload = walk(s, max_steps, max_magnitude, members, memo, base)
            walked += steps
            if code == MEMO_HIT:
                memo_hits += 1
                if steps + (payload >> 2 & mask) <= max_steps:   # as in _discover_block
                    entry = payload + (steps << 2)
                else:
                    entry = STEP_CUTOFF
            else:
                entry = run.final(code, steps, payload)
        outcomes[entry & 3] += 1
        if entry & 3 == ENTERED:
            hits[entry >> cid_shift] += 1
        i = s - base
        if 0 <= i < size:
            memo[i] = entry
    run.work["steps"] += walked
    run.work["memo_hits"] += memo_hits
    run.work["tally_skips"] += skips


def search_range(mapping: MappingDef, lo: int, hi: int,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 max_magnitude: int = DEFAULT_MAX_MAGNITUDE) -> SearchReport:
    """Classify every start in [lo, hi] and catalog the cycles entered.

    A start is "entered" when an iterate with index <= max_steps is a
    member of a catalog cycle, a magnitude cutoff when an iterate with
    index <= max_steps exceeds max_magnitude first, and a step cutoff
    otherwise.  The catalog is every cycle that Brent detection closes,
    within both cutoffs, from some start in the range.

    Order.  Starts are taken in order of increasing distance from the
    pivot (0 if it is in the range, otherwise the endpoint nearest 0):
    0, -1, 1, -2, 2, ... clipped to [lo, hi], in one pass on one thread.
    A walk that closes a new cycle registers it in the member table at
    once, so every later walk can stop at its members.  Brent looks up
    every element of a cycle before it closes it, so a closed cycle is
    never one already registered.

    Memo.  An int64 array, capped at _MEMO_CAP entries for the starts
    nearest the pivot, holds each classified start's outcome (layout in
    _Search).  Every walk stops at its first iterate, after the start,
    that is a start with an entry.  If that start y was reached after j
    steps and entered cycle c, or exceeded the magnitude cutoff, at step
    t, the walked start has the same outcome at step j + t when
    j + t <= max_steps, and is a step cutoff otherwise; if y is a step
    cutoff, so is the walked start.  Starts outside the window are walked
    against the memo too, but are not recorded in it.

    Deferred starts.  A start is deferred when its Brent walk runs out of
    budget, or reaches a deferred start; it carries seen, the number of
    cycles registered when the first start of that chain was deferred.
    Deferred starts are then handled in the order they were deferred,
    against the final member table and the final memo entries.

    Skipped tally walks.  A deferred start whose seen is the final number
    of cycles is a step cutoff with no second walk.  If its Brent walk ran
    out of budget, it checked the start and iterates 1..max_steps against
    the magnitude cutoff and the member table, which was then already the
    final one, and stopped at none of them: by the definition above the
    start is a step cutoff.  (A memo entry filled later could only pass on
    a member or a magnitude that Brent would have seen itself.)  If it
    reached the deferred start y after j >= 1 steps, y was deferred
    earlier with the same seen, so y is a step cutoff by induction, and
    the walk checked iterates 1..j against the same final table: the
    start touches nothing up to step j + max_steps and is a step cutoff
    too.  Every other deferred start is walked again against the final
    table.  It stops at y's entry, which is final by then since y was
    handled first, or earlier at another final entry, a member or the
    magnitude cutoff, and takes that outcome shifted as above.

    Exactness.  An orbit is deterministic and, once it touches a cycle,
    stays in it.  So the first catalog cycle a start touches, and the
    step it first touches it, are those of any start on its orbit, shifted
    by the steps between them; the same holds for the first iterate past
    the magnitude cutoff.  Brent's detection step grows with the tail
    length, so a walk that stops at a start y would not have closed a
    cycle that y's walk could not close: the catalog is the same as with
    no memo.  For the same reason a deferred start is on no catalog
    cycle, so a walk that reaches it touched none before.  The report is
    therefore a pure function of the mapping, the range and the cutoffs.
    Beyond far (_Search) a walk jumps K steps at a time, but only when
    the jump's table row proves that none of the K iterates is past a
    cutoff, a member, a memo start or Brent's tortoise, and Brent moves
    the tortoise at most at the last of them (Engine.walk_brent); so
    every walk returns the outcome and step count of a step-by-step walk.

    A walk that closes a new cycle returns the cycle from the iterate
    where Brent closed it; the start's tail length then comes from a
    plain walk against the member table that now holds the cycle.

    meta["steps"] is the number of steps walked: the sum of the step
    counts the walks return (up to the memo hit; up to where Brent closed
    the cycle, plus the tail walk, for a new cycle), meta["memo_hits"]
    the number of walks that stopped at a memo entry, and
    meta["tally_skips"] the number of deferred starts not walked again.
    """
    if lo > hi:
        raise ValueError(f"empty range: lo {lo} > hi {hi}")
    if max_steps < 0 or max_magnitude <= 0:
        raise ValueError("cutoffs must be positive")
    run = _Search(mapping, lo, hi, max_steps, max_magnitude)
    _tally_block(run, _discover_block(run, _by_distance(lo, hi)))

    catalog = CycleCatalog(
        mapping, tuple(run.cycles),
        provenance=f"bounded search over [{lo}, {hi}]",
        meta={"max_steps": max_steps, "max_magnitude": max_magnitude})
    report = SearchReport(mapping, lo, hi, max_steps, max_magnitude, catalog,
                          {"entered": run.outcomes[ENTERED],
                           "step_cutoff": run.outcomes[STEP_CUTOFF],
                           "magnitude_cutoff": run.outcomes[MAG_CUTOFF]},
                          {run.cycles[cid].min_element: n for cid, n in run.hits.items()},
                          meta={"steps": run.work["steps"],
                                "memo_hits": run.work["memo_hits"],
                                "tally_skips": run.work["tally_skips"]})
    assert sum(report.tallies.values()) == report.range_size
    return report


def search_node(mapping: MappingDef, node: Node, constant=None,
                signed: str | None = None,
                max_steps: int = DEFAULT_MAX_STEPS,
                max_magnitude: int = DEFAULT_MAX_MAGNITUDE) -> SearchReport:
    """Search the start range allowed by the node's bound C and keep only
    cycles whose branch counts equal the node's (k1, k2).

    The family, its default constant and the sign convention all come
    from the mapping (node_family): a node of any other family, or a
    mapping without two slopes, raises ValueError before C is computed.
    The sign of the range defaults from the branch offsets.  A cycle with
    word w starts at B/(d^p - A), where, with positive multipliers,
    B = sum of -r_(w_i) * d^(i-1) * (product of m_(w_j) over j > i).  If
    every offset is <= 0 (3x+1, carnielli-T:d), B >= 0, so PP nodes
    (A < d^p) close on positive integers and PG nodes on negative ones;
    if every offset is >= 0 (3x-1), the reverse.  Mixed offsets (Collatz,
    the permutation variants) keep the positive default.  Pass
    signed="positive", "negative" or "both" to override.  A bound C
    beyond the float range raises ValueError: the integer range cannot
    be taken from it.
    """
    fam = node_family(mapping)
    if node.family != fam:
        raise ValueError(f"node {node.label} is of family {node.family.name!r}, "
                         f"not of the mapping's family {fam.name!r}")
    if signed is None:
        offsets = [r for _, r in mapping.branches]
        if all(r <= 0 for r in offsets):
            signed = "negative" if node.side == "PG" else "positive"
        elif all(r >= 0 for r in offsets):
            signed = "positive" if node.side == "PG" else "negative"
        else:
            signed = "positive"
    if signed not in ("positive", "negative", "both"):
        raise ValueError(f"signed must be positive/negative/both, got {signed!r}")
    bound = bound_C(fam, (node.k1, node.k2), constant=constant)
    if math.isinf(bound.C):
        raise ValueError(f"bound C = exp({bound.ln_C:.7f}) is beyond the float range; "
                         "its integer floor is not computed")
    limit = int(bound.C)
    meta = {"node": node.label, "k1": node.k1, "k2": node.k2,
            "C": bound.C, "ln_C": bound.ln_C}
    if limit < 1:
        return SearchReport(mapping, 1, 0, max_steps, max_magnitude,
                            CycleCatalog(mapping, ()),
                            {"entered": 0, "step_cutoff": 0, "magnitude_cutoff": 0},
                            {}, meta=dict(meta, empty="bound C below 1"))
    lo = 1 if signed == "positive" else -limit
    hi = -1 if signed == "negative" else limit
    full = search_range(mapping, lo, hi, max_steps=max_steps,
                        max_magnitude=max_magnitude)
    want = (node.k1, node.k2)
    kept = tuple(c for c in full.catalog.cycles if (c.counts.k1, c.counts.k2) == want)
    catalog = CycleCatalog(mapping, kept,
                           provenance=f"node-guided search for counts {want} in [{lo}, {hi}]")
    hits = {c.min_element: full.hits[c.min_element] for c in kept}
    return SearchReport(mapping, lo, hi, max_steps, max_magnitude, catalog,
                        full.tallies, hits, meta={**meta, **full.meta})
