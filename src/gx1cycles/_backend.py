"""Trajectory walkers on arbitrary-precision integers.

An Engine holds one mapping's parameters and runs the two per-start
primitives of a search:

  * walk_brent -- Brent cycle detection with early exit on known cycle
    members, bounded by a step budget and a magnitude cutoff;
  * walk_tally -- plain forward walk classifying one start against a
    fixed member table.

A member table is a plain dict from cycle member to cycle id.  An Engine
is shared by every block of a search: search_range runs each wave of
`threads` blocks on a thread pool, and walks keep no state on the Engine.
"""

from __future__ import annotations

ENTERED = 0        # reached a known cycle member; payload = cycle id
NEW_CYCLE = 1      # Brent found a cycle not in the member table
STEP_CUTOFF = 2    # budget exhausted before any classification
MAG_CUTOFF = 3     # an iterate exceeded the magnitude cutoff

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
    def walk_brent(self, start, max_steps, max_magnitude, members):
        """Classify one start, discovering a new cycle if the orbit closes.

        Returns (code, steps, payload):
          ENTERED     -- payload = cycle id, steps = first index touching it
          NEW_CYCLE   -- payload = cycle elements in orbit order from the
                         orbit's entry point, steps = tail length (entry index)
          STEP_CUTOFF -- payload None, steps = max_steps
          MAG_CUTOFF  -- payload None, steps = index of the offending iterate
        """
        d, ms, rs = self.d, self.ms, self.rs
        lookup = members.get

        x0 = start
        if abs(x0) > max_magnitude:
            return (MAG_CUTOFF, 0, None)
        cid = lookup(x0, -1)
        if cid >= 0:
            return (ENTERED, 0, cid)
        if max_steps == 0:
            return (STEP_CUTOFF, 0, None)

        def step(x):
            b = x % d
            return (ms[b] * x - rs[b]) // d

        # Brent: teleport the tortoise to the hare at powers of two.
        power = 1
        lam = 1
        tortoise = x0
        hare = step(x0)
        apps = 1
        if abs(hare) > max_magnitude:
            return (MAG_CUTOFF, 1, None)
        cid = lookup(hare, -1)
        if cid >= 0:
            return (ENTERED, 1, cid)
        while tortoise != hare:
            if power == lam:
                tortoise = hare
                power <<= 1
                lam = 0
            if apps == max_steps:
                return (STEP_CUTOFF, max_steps, None)
            hare = step(hare)
            apps += 1
            if abs(hare) > max_magnitude:
                return (MAG_CUTOFF, apps, None)
            cid = lookup(hare, -1)
            if cid >= 0:
                return (ENTERED, apps, cid)
            lam += 1

        # Period is lam; locate the orbit's entry point into the cycle.
        ahead = x0
        for _ in range(lam):
            ahead = step(ahead)
        tail = x0
        mu = 0
        while tail != ahead:
            tail = step(tail)
            ahead = step(ahead)
            mu += 1
        elements = []
        y = tail
        for _ in range(lam):
            elements.append(y)
            y = step(y)
        return (NEW_CYCLE, mu, elements)

    # perfbench traces this method through Engine.__dict__
    def walk_tally(self, start, max_steps, max_magnitude, members):
        """Classify one start against a fixed member table.

        Returns (code, steps, cycle_id); code is ENTERED, STEP_CUTOFF or
        MAG_CUTOFF, and cycle_id is -1 unless ENTERED.
        """
        d, ms, rs = self.d, self.ms, self.rs
        lookup = members.get

        x = start
        if abs(x) > max_magnitude:
            return (MAG_CUTOFF, 0, -1)
        for j in range(max_steps):
            cid = lookup(x, -1)
            if cid >= 0:
                return (ENTERED, j, cid)
            b = x % d
            x = (ms[b] * x - rs[b]) // d
            if abs(x) > max_magnitude:
                return (MAG_CUTOFF, j + 1, -1)
        cid = lookup(x, -1)
        if cid >= 0:
            return (ENTERED, max_steps, cid)
        return (STEP_CUTOFF, max_steps, -1)
