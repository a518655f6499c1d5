"""Cross-validation on randomly generated mappings: the enumeration
oracle, the Brent detector, a plain walk and catalog verification must
agree with each other, including for negative multipliers."""

import itertools
from array import array
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import gx1cycles as gx
from gx1cycles import cycles, search
from gx1cycles._backend import NEW_CYCLE, Engine


@st.composite
def small_mappings(draw):
    d = draw(st.integers(2, 4))
    branches = []
    for i in range(d):
        m = draw(st.integers(-6, 6).filter(lambda v: v != 0))
        r = (i * m) % d + d * draw(st.integers(-2, 2))
        branches.append((m, r))
    return gx.validate(d, branches)


@given(small_mappings())
@settings(max_examples=60, deadline=None)
def test_oracle_cycles_replay_and_detect(mapping):
    cat = gx.enumerate_cycles_exact(mapping, 4)
    assert gx.verify_catalog(mapping, cat).ok
    for cyc in cat.cycles:
        found = gx.detect_cycle(mapping, cyc.min_element, max_steps=10**4,
                                max_magnitude=10**24)
        assert found is not None
        assert found.elements == cyc.elements


def _reference_cycles(mapping, max_period):
    """Solve every branch word of length <= max_period.

    Returns the cycles whose fixed point's orbit takes the word's branches,
    those whose fixed point merely closes after len(word) steps, and the
    number of Lyndon words (each smaller than all its proper rotations)
    with slope exactly 1.
    """
    taking, closing = set(), set()
    unit_lyndon = 0
    for p in range(1, max_period + 1):
        for word in itertools.product(range(mapping.d), repeat=p):
            affine = gx.compose_affine(mapping, word)
            if affine.slope == 1 and all(word < word[i:] + word[:i] for i in range(1, p)):
                unit_lyndon += 1
            x0 = affine.fixed_point()
            if x0 is None or x0.denominator != 1:
                continue
            x, elems, branches = int(x0), [], []
            for _ in range(p):
                elems.append(x)
                x, b = mapping.apply(x)
                branches.append(b)
            if x == x0 and len(set(elems)) == p:
                cyc = gx.canonicalize(mapping, elems)
                closing.add(cyc)
                if tuple(branches) == word:
                    taking.add(cyc)
    return taking, closing, unit_lyndon


@given(small_mappings(), st.integers(1, 5))
# every branch word has slope exactly 1, so nothing is solved
@example(gx.validate(2, [(2, 0), (2, 2)]), 5)
# the fixed point of Lyndon word (0, 3) closes on the cycle of word (0, 2)
@example(gx.validate(4, [(-2, 0), (6, 10), (-6, 4), (-3, -5)]), 4)
# word (0) has slope -1, so (-4, 4), of word (0, 0), is a unit-slope cycle
@example(gx.validate(4, [(-4, 0), (-2, -6), (-4, 4), (3, 1)]), 4)
# slopes -1 and 1: at period 1 the root letters give the cycle 0 of word (0)
# and the unit slope of (1); at periods 2 and 3 the level under the root
# holds Lyndon (0, 1) and (0, 0, 1) but also non-Lyndon words of slope 1:
# (0, 0), (1, 1), (0, 1, 0) and (1, 1, 1)
@example(gx.validate(2, [(-2, 0), (2, 0)]), 1)
@example(gx.validate(2, [(-2, 0), (2, 0)]), 2)
@example(gx.validate(2, [(-2, 0), (2, 0)]), 3)
@settings(max_examples=60, deadline=None)
def test_oracle_matches_brute_force_reference(mapping, max_period):
    calls = 0
    canonicalize = cycles.canonicalize

    def counted(*args):
        nonlocal calls
        calls += 1
        return canonicalize(*args)

    with mock.patch.object(cycles, "canonicalize", counted):
        cat = gx.enumerate_cycles_exact(mapping, max_period)
    assert calls == len(cat)
    taking, closing, unit_lyndon = _reference_cycles(mapping, max_period)
    assert set(cat.cycles) == taking
    assert cat.meta["unit_slope_skipped"] == unit_lyndon
    # a fixed point closing on a cycle of another word adds only cycles
    # whose own word has slope 1, which the oracle skips
    for cyc in closing - taking:
        assert gx.compose_affine(mapping, cyc.branches).slope == 1


def _plain_walk(mapping, start, max_magnitude, budget):
    """First event on the orbit of `start`, from a walk that remembers every value.

    Returns ("magnitude", j) when iterate j is the first beyond the cutoff,
    ("cycle", D, elements) when the orbit closes, or None when neither
    happens within `budget` steps.  Brent's detector sees the repeat
    x[mu] == x[mu + lam] once its tortoise sits at an index 2^k - 1 >= mu
    with 2^k >= lam, so D = 2^k - 1 + lam is the step at which it stops.
    Elements are in orbit order, minimum first.
    """
    seen = {}
    x = start
    for j in range(budget + 1):
        if abs(x) > max_magnitude:
            return ("magnitude", j)
        if x in seen:
            mu, lam = seen[x], j - seen[x]
            power = 1
            while power - 1 < mu or power < lam:
                power <<= 1
            elems = sorted(seen, key=seen.get)[mu:]
            i = elems.index(min(elems))
            return ("cycle", power - 1 + lam, tuple(elems[i:] + elems[:i]))
        seen[x] = j
        x, _ = mapping.apply(x)
    return None


def _expected(event, max_steps):
    """detect_cycle's outcome under a step cutoff, given the orbit's first event."""
    if event is not None and event[1] <= max_steps:
        return ("magnitude", event[1]) if event[0] == "magnitude" else ("cycle", event[2])
    return ("steps", max_steps)


_BOUNDARY_STARTS = st.sampled_from([2**63, -2**63, 2**127, -2**127]).flatmap(
    lambda c: st.integers(c - 64, c + 64))


@given(small_mappings(), st.integers(-300, 300) | _BOUNDARY_STARTS,
       st.integers(0, 2000))
# divergent collatz walks cross 2^63 and 2^127 before the cutoff at 2^130
@example(gx.collatz(), 8, 10**4)
@example(gx.collatz(), 27, 10**4)
@example(gx.collatz(), -100, 10**4)
@settings(max_examples=120, deadline=None)
def test_detect_cycle_matches_a_plain_walk(mapping, start, max_steps):
    max_magnitude = 2**130
    event = _plain_walk(mapping, start, max_magnitude, budget=max_steps)
    # the drawn step cutoff, and the cutoffs on either side of the event
    cutoffs = {max_steps}
    if event is not None:
        cutoffs |= {n for n in range(event[1] - 1, event[1] + 2) if n >= 0}
    for n in sorted(cutoffs):
        try:
            found = gx.detect_cycle(mapping, start, max_steps=n,
                                    max_magnitude=max_magnitude, raise_on_cutoff=True)
        except gx.CutoffExceededError as exc:
            assert (exc.kind, exc.steps) == _expected(event, n), n
        else:
            assert ("cycle", found.elements) == _expected(event, n), n


_FAMILIES = [gx.mapping_from_name(name) for name in (
    "collatz", "3x1", "matthews", "carnielli-T:3", "carnielli-T:5", "carnielli-L:3",
    *(f"perm:{i}" for i in range(1, 7)))]


@given(small_mappings() | st.sampled_from(_FAMILIES),
       st.integers(-300, 300) | _BOUNDARY_STARTS,
       st.integers(0, 3000),
       st.none() | st.integers(0, 300),
       st.none() | st.tuples(st.integers(-300, 300), st.integers(1, 400), st.integers(-3, 9)),
       st.booleans(),
       st.integers(0, 5000))
# jumps across a cycle far beyond reach: the tortoise must bound them
@example(gx.permutation_variant(3), 144, 10**5, None, None, False, 1)
@example(gx.matthews_4branch(), -513, 10**5, None, None, False, 1)
@example(gx.matthews_4branch(), 6, 10**5, None, None, False, 1)
# every |m| > d, so a K-step bound from reach lies below reach
@example(gx.validate(2, [(3, 0), (5, 1)]), 10, 1000, None, (-100, 200, 5), False, 0)
@example(gx.validate(2, [(3, 0), (5, 1)]), -7, 1000, None, (-100, 200, 5), False, 0)
@settings(max_examples=150, deadline=None)
def test_far_walk_matches_the_plain_walk(mapping, start, max_steps, cut, window,
                                         with_members, reach):
    """walk_brent with far returns what the step-by-step walk returns, for
    budgets that are not multiples of K, magnitude cutoffs at any step
    (inside a jump too), memo windows and member tables."""
    engine = Engine(mapping)
    max_magnitude = 2**130
    if cut is not None:
        # iterate `cut` is beyond the cutoff
        x = start
        for _ in range(cut):
            x, _ = mapping.apply(x)
        max_magnitude = max(1, abs(x) - 1)
    members = {}
    if with_members:
        for cid, cyc in enumerate(gx.enumerate_cycles_exact(mapping, 3).cycles):
            members.update(dict.fromkeys(cyc.elements, cid))
    memo, base = (), 0
    if window is not None:
        base, size, entry = window
        memo = array("q", [entry]) * size
        reach = max(reach, -base, base + size - 1)
    reach = max([reach] + [abs(v) for v in members])
    far = engine.far(reach, max_magnitude)
    assert min(reach, max_magnitude) <= far <= max_magnitude
    plain = engine.walk_brent(start, max_steps, max_magnitude, members, memo, base)
    for f in (reach, far):
        assert engine.walk_brent(start, max_steps, max_magnitude, members, memo, base,
                                 far=f) == plain, f


def test_negative_multiplier_mapping_end_to_end():
    mapping = gx.validate(2, [(1, 0), (-3, 1)])
    cat = gx.enumerate_cycles_exact(mapping, 4)
    assert {-2, 0} <= set(cat.min_elements())
    cyc = gx.detect_cycle(mapping, 1)
    assert cyc.elements == (-2, -1, 1)
    assert gx.lambda_exact(mapping, cyc.counts) == Fraction(9, 8)
    report = gx.search_range(mapping, -20, 20, max_steps=1000)
    assert cyc.elements in {c.elements for c in report.catalog.cycles}


def _reference_search(mapping, lo, hi, max_steps, max_magnitude):
    """search_range's report, built without it.

    The catalog is every cycle that a memo-free Brent walk closes from some
    start in the range; the tallies and hits come from a plain walk of each
    start against that catalog.
    """
    engine = Engine(mapping)
    found = {}
    for s in range(lo, hi + 1):
        code, _steps, payload = engine.walk_brent(s, max_steps, max_magnitude, {})
        if code == NEW_CYCLE:
            cyc = gx.canonicalize(mapping, payload)
            found[cyc.min_element] = cyc
    member = {v: c.min_element for c in found.values() for v in c.elements}
    tallies = {"entered": 0, "step_cutoff": 0, "magnitude_cutoff": 0}
    hits = {}
    for x in range(lo, hi + 1):
        outcome = "step_cutoff"
        for _ in range(max_steps + 1):
            if abs(x) > max_magnitude:
                outcome = "magnitude_cutoff"
                break
            if x in member:
                outcome = "entered"
                hits[member[x]] = hits.get(member[x], 0) + 1
                break
            x, _ = mapping.apply(x)
        tallies[outcome] += 1
    catalog = gx.CycleCatalog(mapping, tuple(found.values()),
                              provenance=f"bounded search over [{lo}, {hi}]")
    return gx.SearchReport(mapping, lo, hi, max_steps, max_magnitude, catalog, tallies, hits)


@given(small_mappings(), st.integers(-120, 60), st.integers(1, 180),
       st.sampled_from([0, 1, 200]) | st.integers(2, 12),
       st.sampled_from([10, 10**3, 10**9, 10**30]) | st.integers(10, 10**30),
       st.sampled_from([1, 3, 16, 1 << 17]))
# 3x+1 with a budget too small for Brent to close the 11-cycle from most starts
@example(gx.three_x_plus_one(), -150, 301, 25, 10**30, 16)
# collatz: magnitude cutoffs, step cutoffs and links to deferred starts
@example(gx.collatz(), 1, 180, 200, 10**30, 3)
@example(gx.matthews_4branch(), -90, 180, 60, 10**9, 1 << 17)
# wide ranges: many cycles closed mid-search, long tails and deferred tallies
@example(gx.matthews_4branch(), -2000, 4001, 1000, 10**30, 1 << 17)
@example(gx.collatz(), 1, 3000, 1000, 10**30, 1 << 17)
# a deferred start whose memo hit must shift the outcome by all its steps
@example(gx.validate(2, [(1, 0), (2, -4)]), 0, 4, 4, 10, 16)
# a memo hit on the start that closed a cycle must shift by its tail length
@example(gx.validate(2, [(1, 0), (1, 1)]), 1, 2, 2, 10, 1)
# starts deferred before a cycle is registered, which they then enter
@example(gx.matthews_4branch(), -40, 81, 8, 10**30, 1 << 17)
# max_steps too wide to pack into a memo entry: the search runs without a memo
@example(gx.collatz(), 1, 180, 2**60, 10**30, 1 << 17)
@example(gx.three_x_plus_one(), -150, 301, 2**60, 10**30, 1 << 17)
@example(gx.matthews_4branch(), -90, 271, 2**60, 10**30, 1 << 17)
@settings(max_examples=150, deadline=None)
def test_search_matches_a_memo_free_reference(mapping, lo, width, max_steps,
                                               max_magnitude, cap):
    hi = lo + width - 1
    with mock.patch.object(search, "_MEMO_CAP", cap):
        report = gx.search_range(mapping, lo, hi, max_steps=max_steps,
                                 max_magnitude=max_magnitude)
    reference = _reference_search(mapping, lo, hi, max_steps, max_magnitude)
    assert report == reference
    assert report.to_json() == reference.to_json()
