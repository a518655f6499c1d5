"""Trajectory walkers on arbitrary-precision integers.

An Engine holds one mapping's parameters and runs the two per-start
primitives of a search:

  * walk_brent -- Brent cycle detection with early exit on known cycle
    members, bounded by a step budget and a magnitude cutoff;
  * walk_tally -- plain forward walk classifying one start against a
    fixed member table.

Brent's method (BIT 20, 1980) ends with the period and an iterate on the
cycle.  walk_brent returns the cycle's elements from that iterate on and
does not rewind to the orbit's entry point: canonicalize rotates them,
and a walk_tally against a table that holds the cycle gives the tail
length.

A member table is a plain dict from cycle member to cycle id.  Walks
keep no state on the Engine.

Both walks also take an optional memo: a sequence `memo` of integer
entries, where memo[i] belongs to the start base + i.  From its first
step on (never at the start itself), a walk stops at an iterate that has
an entry, and returns (MEMO_HIT, j, entry) with j the steps walked up to
it.  walk_brent stops at every entry other than -1 (unknown); walk_tally
only at a final entry (>= 0).  Iterates are checked against the
magnitude cutoff, then the member table, then the memo.  With the
default empty memo both walks behave as plain walks.  The meaning of an
entry belongs to the caller (search_range).
"""

from __future__ import annotations

ENTERED = 0        # reached a known cycle member; payload = cycle id
NEW_CYCLE = 1      # Brent closed a cycle not in the member table; payload = its elements
STEP_CUTOFF = 2    # budget exhausted before any classification
MAG_CUTOFF = 3     # an iterate exceeded the magnitude cutoff
MEMO_HIT = 4       # reached a start with a memo entry; payload = the entry

_kernel = None     # no compiled walker; perfbench reads this name


class Engine:
    """Per-mapping walk executor."""

    # perfbench builds Engine(mapping) during its set-up
    def __init__(self, mapping):
        self.d = mapping.d
        self.ms = [m for m, _ in mapping.branches]
        self.rs = [r for _, r in mapping.branches]

    # perfbench traces this method through Engine.__dict__
    def member_table(self, items):
        """value -> cycle id lookup for known cycle members."""
        return dict(items)

    # perfbench traces this method through Engine.__dict__
    def walk_brent(self, start, max_steps, max_magnitude, members,
                   memo=(), base=0):
        """Classify one start, discovering a new cycle if the orbit closes.

        Returns (code, steps, payload):
          ENTERED     -- payload = cycle id, steps = first index touching it
          NEW_CYCLE   -- payload = the cycle's elements in orbit order from
                         the iterate where Brent closed it, steps = that
                         iterate's index (not the tail length: a walk_tally
                         against a table holding the cycle gives that)
          STEP_CUTOFF -- payload None, steps = max_steps
          MAG_CUTOFF  -- payload None, steps = index of the offending iterate
          MEMO_HIT    -- payload = memo entry (not -1), steps = its index
        """
        d, ms, rs = self.d, self.ms, self.rs
        neg, end = -max_magnitude, base + len(memo)

        x0 = start
        if x0 > max_magnitude or x0 < neg:
            return (MAG_CUTOFF, 0, None)
        if x0 in members:
            return (ENTERED, 0, members[x0])

        # Brent: teleport the tortoise to the hare at powers of two.
        power = 1
        lam = 0
        tortoise = hare = x0
        apps = 0
        while True:
            if apps == max_steps:
                return (STEP_CUTOFF, max_steps, None)
            b = hare % d
            hare = (ms[b] * hare - rs[b]) // d
            apps += 1
            if hare > max_magnitude or hare < neg:
                return (MAG_CUTOFF, apps, None)
            if hare in members:
                return (ENTERED, apps, members[hare])
            if base <= hare < end and memo[hare - base] != -1:
                return (MEMO_HIT, apps, memo[hare - base])
            lam += 1
            if tortoise == hare:
                break
            if power == lam:
                tortoise = hare
                power <<= 1
                lam = 0

        # hare is on the cycle and lam is its period: list the cycle from it
        elements = [hare]
        for _ in range(lam - 1):
            b = hare % d
            hare = (ms[b] * hare - rs[b]) // d
            elements.append(hare)
        return (NEW_CYCLE, apps, elements)

    # perfbench traces this method through Engine.__dict__
    def walk_tally(self, start, max_steps, max_magnitude, members,
                   memo=(), base=0):
        """Classify one start against a fixed member table.

        Returns (code, steps, payload); code is ENTERED, STEP_CUTOFF,
        MAG_CUTOFF or MEMO_HIT.  payload is the cycle id if ENTERED, the
        memo entry (>= 0) if MEMO_HIT, and -1 otherwise.
        """
        d, ms, rs = self.d, self.ms, self.rs
        neg, end = -max_magnitude, base + len(memo)

        x = start
        if x > max_magnitude or x < neg:
            return (MAG_CUTOFF, 0, -1)
        if x in members:
            return (ENTERED, 0, members[x])
        for j in range(1, max_steps + 1):
            b = x % d
            x = (ms[b] * x - rs[b]) // d
            if x > max_magnitude or x < neg:
                return (MAG_CUTOFF, j, -1)
            if x in members:
                return (ENTERED, j, members[x])
            if base <= x < end and memo[x - base] >= 0:
                return (MEMO_HIT, j, memo[x - base])
        return (STEP_CUTOFF, max_steps, -1)
