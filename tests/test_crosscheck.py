"""Cross-validation on randomly generated mappings: the enumeration
oracle, the Brent detector, a plain walk and catalog verification must
agree with each other, including for negative multipliers."""

import itertools
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import gx1cycles as gx
from gx1cycles import cycles


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
    and those whose fixed point merely closes after len(word) steps.
    """
    taking, closing = set(), set()
    for p in range(1, max_period + 1):
        for word in itertools.product(range(mapping.d), repeat=p):
            x0 = gx.compose_affine(mapping, word).fixed_point()
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
    return taking, closing


@given(small_mappings(), st.integers(1, 5))
# every branch word has slope exactly 1, so nothing is solved
@example(gx.validate(2, [(2, 0), (2, 2)]), 5)
# the fixed point of Lyndon word (0, 3) closes on the cycle of word (0, 2)
@example(gx.validate(4, [(-2, 0), (6, 10), (-6, 4), (-3, -5)]), 4)
# word (0) has slope -1, so (-4, 4), of word (0, 0), is a unit-slope cycle
@example(gx.validate(4, [(-4, 0), (-2, -6), (-4, 4), (3, 1)]), 4)
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
    taking, closing = _reference_cycles(mapping, max_period)
    assert set(cat.cycles) == taking
    # a fixed point closing on a cycle of another word adds only cycles
    # whose own word has slope 1, which the oracle skips
    for cyc in closing - taking:
        assert gx.cycle_affine(mapping, cyc).slope == 1


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


def test_negative_multiplier_mapping_end_to_end():
    mapping = gx.validate(2, [(1, 0), (-3, 1)])
    cat = gx.enumerate_cycles_exact(mapping, 4)
    assert {-2, 0} <= set(cat.min_elements())
    cyc = gx.detect_cycle(mapping, 1)
    assert cyc.elements == (-2, -1, 1)
    assert gx.lambda_exact(mapping, cyc.counts) == Fraction(9, 8)
    report = gx.search_range(mapping, -20, 20, max_steps=1000)
    assert cyc.elements in {c.elements for c in report.catalog.cycles}
