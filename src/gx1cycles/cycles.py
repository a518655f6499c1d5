"""Cycles of generalized 3x+1 mappings: detection, canonical form,
catalogs, and the exact fixed-point enumeration oracle.

A cycle is stored in canonical rotation (numerically smallest element
first).  Because the published catalogs label cycles by the element of
least absolute value, every cycle also exposes min_abs_element.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ._backend import NEW_CYCLE, STEP_CUTOFF, Engine
from .mappings import (DEFAULT_MAX_MAGNITUDE, DEFAULT_MAX_STEPS, BranchCounts,
                       CutoffExceededError, MappingDef, json_int)


class NotAClosedCycleError(ValueError):
    """The element sequence is not a cycle of the mapping."""


class BudgetExceededError(ValueError):
    """Enumeration would visit more branch sequences than the budget allows."""


@dataclass(frozen=True)
class Cycle:
    """A cycle in canonical rotation with its branch data."""

    elements: tuple[int, ...]
    branches: tuple[int, ...]
    counts: BranchCounts

    @property
    def period(self) -> int:
        return len(self.elements)

    @property
    def min_element(self) -> int:
        return self.elements[0]

    @property
    def min_abs_element(self) -> int:
        return min(self.elements, key=lambda v: (abs(v), v))

    def to_json(self) -> dict:
        return {
            "elements": list(self.elements),
            "period": self.period,
            "min": self.min_element,
            "min_abs": self.min_abs_element,
            "counts": list(self.counts.counts),
        }

    def __str__(self):
        inner = ", ".join(str(v) for v in self.elements)
        return f"<{inner}>"


def canonicalize(mapping: MappingDef, raw_elements) -> Cycle:
    """Rotate a closed element sequence so its minimum comes first.

    Raises NotAClosedCycleError when the sequence is empty, has repeats,
    or is not closed under the mapping.
    """
    elems = [int(v) for v in raw_elements]
    if not elems:
        raise NotAClosedCycleError("empty element sequence")
    if len(set(elems)) != len(elems):
        raise NotAClosedCycleError("cycle elements must be pairwise distinct")
    i = elems.index(min(elems))
    elems = elems[i:] + elems[:i]
    branches = []
    for j, v in enumerate(elems):
        nxt, b = mapping.apply(v)
        if nxt != elems[(j + 1) % len(elems)]:
            raise NotAClosedCycleError(
                f"not closed: step from {v} gives {nxt}, "
                f"expected {elems[(j + 1) % len(elems)]}")
        branches.append(b)
    return Cycle(tuple(elems), tuple(branches),
                 BranchCounts.from_branches(mapping, branches))


def detect_cycle(mapping: MappingDef, start: int,
                 max_steps: int = DEFAULT_MAX_STEPS,
                 max_magnitude: int = DEFAULT_MAX_MAGNITUDE,
                 raise_on_cutoff: bool = False) -> Cycle | None:
    """The cycle the trajectory from `start` enters within the cutoffs.

    Uses constant-memory Brent pointer chasing, which ends on the cycle
    with its period; the elements are listed from there and rotated by
    canonicalize.  Returns None when a cutoff stops the walk
    first, or raises CutoffExceededError when raise_on_cutoff is set
    (distinguishing the step cutoff from the magnitude cutoff).
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    if max_magnitude <= 0:
        raise ValueError("max_magnitude must be positive")
    code, steps, payload = Engine(mapping).walk_brent(start, max_steps, max_magnitude, {})
    if code == NEW_CYCLE:
        return canonicalize(mapping, payload)
    if not raise_on_cutoff:
        return None
    if code == STEP_CUTOFF:
        raise CutoffExceededError(
            f"no cycle entered within {max_steps} steps (undecided)", "steps", steps)
    raise CutoffExceededError(
        f"|iterate| exceeded {max_magnitude} after {steps} steps (undecided)",
        "magnitude", steps)


@dataclass(frozen=True)
class CycleCatalog:
    """A set of cycles of one mapping, canonically sorted."""

    mapping: MappingDef
    cycles: tuple[Cycle, ...]
    provenance: str = ""
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(
            sorted(self.cycles, key=lambda c: (c.period, c.min_element))))
        seen = set()
        for c in self.cycles:
            if seen.intersection(c.elements):
                raise ValueError("catalog cycles must be pairwise disjoint")
            seen.update(c.elements)

    def __len__(self):
        return len(self.cycles)

    def min_elements(self) -> tuple[int, ...]:
        return tuple(c.min_element for c in self.cycles)

    def to_json(self) -> dict:
        out = {
            "mapping": self.mapping.to_json(),
            "provenance": self.provenance,
            "cycles": [c.to_json() for c in self.cycles],
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "CycleCatalog":
        mapping = MappingDef.from_json(obj["mapping"])
        cycles = tuple(canonicalize(mapping, _elements(c)) for c in obj["cycles"])
        return cls(mapping, cycles, provenance=obj.get("provenance", ""),
                   meta=obj.get("meta", {}))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "CycleCatalog":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _elements(entry) -> list[int]:
    """The elements of one cycle entry of a catalog file."""
    return [json_int(v, "cycle element") for v in entry["elements"]]


def load_raw_catalog(path) -> dict:
    """Catalog file contents without re-validation (for verify_catalog)."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def enumerate_cycles_exact(mapping: MappingDef, max_period: int,
                           budget: int = 10**7) -> CycleCatalog:
    """All cycles with period <= max_period, by exact fixed-point solving.

    A branch sequence w of length p acts as x -> (A*x + B)/d^p with
    integer A, B.  When its slope A/d^p is not 1, its only fixed point is
    B/(d^p - A), and that starts a cycle with branch word w iff it is an
    integer whose orbit takes the branches of w.  One Lyndon word is
    solved per necklace (rotation class) of branch sequences: the
    Fredricksen-Kessler-Maiorana recursion (Cattell et al., J. Algorithms
    37, 2000) walks the prenecklaces in lexicographic order, composing
    (A, B) incrementally, and solves only at the Lyndon nodes.  The catalog
    is still complete up to max_period, apart from unit-slope skips, and
    each cycle is found and canonicalized exactly once:

    * Read the branch word w of a p-cycle from one of its elements.  If
      slope(w) is not 1, w is primitive: w = u^k with k > 1 would make
      that element the fixed point of u, of period |u| < p.  So exactly
      one rotation of w is a Lyndon word, solved from exactly one element.
    * If slope(w) is 1 (also when slope(u) = -1 and w = u^2), every
      rotation of w has slope 1 and is skipped; the map of w is then the
      identity, so such cycles come in infinite families.  Skipping
      periodic words thus loses nothing that solving them would give.

    Lyndon words with slope exactly 1 are counted in
    meta["unit_slope_skipped"], one per necklace.  Requiring the orbit to
    take the branches of w, not only to close after p steps, matters when
    a multiplier shares a factor with d: then a fixed point of w can close
    on a cycle whose own word is a different one.  Once the orbit of the
    fixed point x0 takes the branches of the Lyndon word w, nothing else
    needs checking:

    * it closes: p steps along w apply the map of w, which fixes x0;
    * its p elements are distinct: a repeat would make the orbit periodic
      with a least period q < p dividing p, and its branch word then
      w = u^(p/q), but a Lyndon word is primitive.

    (canonicalize checks both again before a cycle enters the catalog.)

    The last level of the walk costs no call per leaf.  A prenecklace of
    length max_period - 1 and period q solves its children in its own
    loop: the child with letter low = w[max_period - q] keeps period q, so
    it is no Lyndon word; only the letters above low start a new period
    and make one (at the root every single letter does), and only those
    are composed and solved.

    meta["sequences"] is the number of prenecklaces the walk covers, the
    sum over p of (max_period - p + 1) * L_d(p) with L_d(p) Lyndon words
    of length p; BudgetExceededError is raised when it exceeds the budget.
    """
    if max_period < 0:
        raise ValueError("max_period must be >= 0")
    d = mapping.d
    # L[p] Lyndon words of length p, from d^p = sum of q*L[q] over q | p; the
    # DFS visits sum over p of (max_period - p + 1)*L[p] prenecklaces
    lyndon = [0] * (max_period + 1)
    prenecklaces = sequences = 0
    for p in range(1, max_period + 1):
        lyndon[p] = (d ** p - sum(q * lyndon[q] for q in range(1, p)
                                  if p % q == 0)) // p
        prenecklaces += lyndon[p]
        sequences += prenecklaces
        if sequences > budget:
            raise BudgetExceededError(
                f"enumeration to period {max_period} visits more than "
                f"{budget} branch sequences (the budget)")

    # tails[low]: the (b, m_b, r_b) of the letters b >= low
    tails = [[(b, *mapping.branches[b]) for b in range(low, d)] for low in range(d + 1)]
    last = max_period - 1
    word = [0] * (max_period + 1)   # word[1..depth]; word[0] is a sentinel
    found: list[Cycle] = []
    unit_slope = 0

    def solve(x: int, p: int):
        """Keep the cycle of the fixed point x if its orbit takes word[1..p]."""
        elems = []
        for i in range(1, p + 1):
            elems.append(x)
            x, b = mapping.apply(x)
            if b != word[i]:
                return
        found.append(canonicalize(mapping, elems))

    def visit(A: int, B: int, depth: int, period: int, dpow: int):
        nonlocal unit_slope
        if period == depth:
            den = dpow - A
            if den == 0:
                unit_slope += 1
            elif B % den == 0:
                solve(B // den, depth)
        low = word[depth + 1 - period]
        dnext = dpow * d
        if depth == last:
            # the children are leaves, solved in this loop: only the letters
            # above low make Lyndon words there (every letter at the root)
            for b, m, r in tails[low + 1 if depth else 0]:
                den = dnext - m * A
                if den == 0:
                    unit_slope += 1
                else:
                    Bb = m * B - r * dpow
                    if Bb % den == 0:
                        word[depth + 1] = b
                        solve(Bb // den, depth + 1)
            return
        for b, m, r in tails[low]:
            word[depth + 1] = b
            visit(m * A, m * B - r * dpow, depth + 1,
                  period if b == low else depth + 1, dnext)

    if max_period:
        visit(1, 0, 0, 1, 1)
    return CycleCatalog(
        mapping, tuple(found),
        provenance=f"exact enumeration of all branch sequences with period <= {max_period}",
        meta={"max_period": max_period, "sequences": sequences,
              "unit_slope_skipped": unit_slope})


@dataclass(frozen=True)
class CycleCheck:
    ok: bool
    period: int
    min_element: int | None
    counts: tuple[int, ...] | None
    message: str


@dataclass(frozen=True)
class CatalogVerification:
    checks: tuple[CycleCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[CycleCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def verify_catalog(mapping: MappingDef, catalog) -> CatalogVerification:
    """Re-walk every cycle of a catalog (CycleCatalog or raw JSON dict).

    Each entry is re-closed under the mapping and its period, minimum and
    branch counts recomputed; failures become report entries.  Only an
    element of a raw entry that is not an integer raises (ValueError).
    """
    if isinstance(catalog, CycleCatalog):
        entries = [list(c.elements) for c in catalog.cycles]
    else:
        entries = [_elements(c) for c in catalog["cycles"]]
    checks = []
    seen: set[int] = set()
    for elems in entries:
        try:
            cyc = canonicalize(mapping, elems)
        except NotAClosedCycleError as exc:
            checks.append(CycleCheck(False, len(elems), None, None, str(exc)))
            continue
        msg = "ok"
        ok = True
        if seen.intersection(cyc.elements):
            ok, msg = False, "shares elements with an earlier cycle"
        seen.update(cyc.elements)
        checks.append(CycleCheck(ok, cyc.period, cyc.min_element,
                                 cyc.counts.counts, msg))
    return CatalogVerification(tuple(checks))
