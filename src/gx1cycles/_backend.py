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
keep no state on the Engine, except its K-step jump table: read-only,
fixed by the mapping, and built on the first walk that can use it.

Both walks also take an optional memo: a sequence `memo` of integer
entries, where memo[i] belongs to the start base + i.  From its first
step on (never at the start itself), a walk stops at an iterate that has
an entry, and returns (MEMO_HIT, j, entry) with j the steps walked up to
it.  walk_brent stops at every entry other than -1 (unknown); walk_tally
only at a final entry (>= 0).  Iterates are checked against the
magnitude cutoff, then the member table, then the memo.  With the
default empty memo both walks behave as plain walks.  The meaning of an
entry belongs to the caller (search_range).

K-step jumps.  The first K branches of x depend only on x mod d^K
(Terras 1976; Lagarias 1985), so a table of d^K rows gives T^K(x) with
one lookup, and bounds every iterate in between.  walk_brent takes an
optional `far`: no member or memo start lies beyond it.  Beyond it the
walk jumps K steps at a time while the bounds prove that none of the
skipped iterates could have stopped it or moved Brent's tortoise, so it
returns what the step-by-step walk returns.  K is the largest with
d^K <= 1024; there are no jumps when K < 2.
"""

from __future__ import annotations

ENTERED = 0        # reached a known cycle member; payload = cycle id
NEW_CYCLE = 1      # Brent closed a cycle not in the member table; payload = its elements
STEP_CUTOFF = 2    # budget exhausted before any classification
MAG_CUTOFF = 3     # an iterate exceeded the magnitude cutoff
MEMO_HIT = 4       # reached a start with a memo entry; payload = the entry

_kernel = None     # no compiled walker; perfbench reads this name
_JUMP_SPAN = 1024  # a jump table has D = d^K <= _JUMP_SPAN rows


class Engine:
    """Per-mapping walk executor."""

    # perfbench builds Engine(mapping) during its set-up
    def __init__(self, mapping):
        self.d = d = mapping.d
        self.ms = [m for m, _ in mapping.branches]
        self.rs = [r for _, r in mapping.branches]
        self.K = K = next(k for k in range(_JUMP_SPAN) if d ** (k + 1) > _JUMP_SPAN)
        self.D = d ** K
        self._jumps = None      # built by jump_table on first use

    def jump_table(self):
        """The K-step table (rows, up, cb), built on first use; None when
        K < 2.

        The first K branches of x depend only on x mod D, so with
        x = D*q + r, 0 <= r < D, the i-th iterate satisfies
        x_i * d^i = A_i*x + B_i for i <= K, where A_i (the product of the
        first i multipliers) and B_i are fixed by r.  rows[r] is
        (A_K, T^K(r), num, cb_r), hence T^K(x) = A_K*q + T^K(r) and
            num*|x| - cb_r <= |x_i| * D <= up*|x| + cb     (1 <= i <= K)
        with num the least and cb_r the largest of |A_i| d^(K-i) and
        |B_i| d^(K-i) over i, and up and cb the largest of |A_i| d^(K-i)
        and cb_r over every i and r.
        """
        if self._jumps is None and self.K >= 2:
            d, ms, rs = self.d, self.ms, self.rs
            # (A_k, B_k, T^k(r), num, up, cb_r) of r mod d^k, k = 1 first
            rows = [(ms[r], -rs[r], (ms[r] * r - rs[r]) // d,
                     abs(ms[r]), abs(ms[r]), abs(rs[r])) for r in range(d)]
            for k in range(1, self.K):
                # r = p + t*d^k takes the first k branches of its row p
                dk, level = d ** k, []
                for t in range(d):
                    for a, c, y, num, up, cb in rows:
                        x = a * t + y       # T^k(r)
                        b = x % d
                        a, c = ms[b] * a, ms[b] * c - rs[b] * dk
                        level.append((a, c, (ms[b] * x - rs[b]) // d, min(d * num, abs(a)),
                                      max(d * up, abs(a)), max(d * cb, abs(c))))
                rows = level
            self._jumps = ([(a, y, num, cb) for a, _, y, num, _, cb in rows],
                           max(row[4] for row in rows), max(row[5] for row in rows))
        return self._jumps

    def far(self, reach, max_magnitude):
        """walk_brent's far for reach, the largest |v| over the members and
        memo starts: min(max_magnitude, F) where F >= reach, and the next K
        iterates of every x beyond F lie beyond reach, since
        |T(x)| >= (min|m|*|x| - max|r|)/d.  Between reach and F a jump
        would seldom pass its guard, so the walk does not test for one."""
        low, off = min(abs(m) for m in self.ms), max(abs(r) for r in self.rs)
        far = reach
        for _ in range(self.K):
            far = max(reach, (self.d * far + off) // low)
        return min(max_magnitude, far)

    # perfbench traces this method through Engine.__dict__
    def member_table(self, items):
        """value -> cycle id lookup for known cycle members."""
        return dict(items)

    # perfbench traces this method through Engine.__dict__
    def walk_brent(self, start, max_steps, max_magnitude, members,
                   memo=(), base=0, far=None):
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

        far, if given, is at least |v| for every member and memo start v
        within max_magnitude (Engine.far gives such a value).  An iterate beyond far
        skips the member and memo tests.  From it the walk takes K steps
        per jump_table row while the row proves that none of the K
        iterates is past max_magnitude or within max(far, |tortoise|),
        the budget holds them all and the tortoise moves at none but the
        last.  The result is the same as without far.
        """
        d, ms, rs = self.d, self.ms, self.rs
        neg, end = -max_magnitude, base + len(memo)
        if far is None or far > max_magnitude:
            far = max_magnitude     # no jumps: the plain walk
        nfar = -far

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
        hi = None       # jump limits, set at the first iterate beyond far
        while True:
            if apps == max_steps:
                return (STEP_CUTOFF, max_steps, None)
            b = hare % d
            hare = (ms[b] * hare - rs[b]) // d
            apps += 1
            if hare > far or hare < nfar:
                if hare > max_magnitude or hare < neg:
                    return (MAG_CUTOFF, apps, None)
                lam += 1
                if tortoise == hare:
                    break
                if power == lam:
                    tortoise = hare
                    power <<= 1
                    lam = 0
                if hi is None:
                    K, D, last = self.K, self.D, max_steps - self.K
                    rows, up, cb = self.jump_table() or ((), 1, 0)
                    # |x| <= hi keeps x_1..x_K within max_magnitude
                    hi = (max_magnitude * D - cb) // up if rows else -1
                # jump while x_1..x_K all lie beyond far and the tortoise
                bar = (far if far > abs(tortoise) else abs(tortoise)) * D
                while apps <= last and lam + K <= power and -hi <= hare <= hi:
                    q, r = divmod(hare, D)
                    m, t, num, cb_r = rows[r]
                    if (hare if hare > 0 else -hare) * num - cb_r <= bar:
                        break
                    hare = m * q + t
                    apps += K
                    lam += K
                    if power == lam:
                        tortoise = hare
                        power <<= 1
                        lam = 0
                        bar = (far if far > abs(tortoise) else abs(tortoise)) * D
                continue
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
