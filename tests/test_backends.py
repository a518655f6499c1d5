"""The walker and the backend name that reports carry."""

from array import array
from unittest import mock

import pytest

import gx1cycles as gx
from gx1cycles._backend import ENTERED, MAG_CUTOFF, MEMO_HIT, NEW_CYCLE, STEP_CUTOFF, Engine


def test_backend_names():
    assert gx.available_backends() == ("pure",)
    assert gx.active_backend() == "pure"
    assert gx.search_range(gx.collatz(), 1, 5).backend == "pure"


def test_huge_start_handled(g):
    engine = Engine(g)
    tables = engine.member_table([])
    big = 2**200
    code, steps, _ = engine.walk_brent(big, 100, 10**30, tables)
    assert code == MAG_CUTOFF and steps == 0
    assert engine.walk_tally(big, 100, 10**30, tables) == (MAG_CUTOFF, 0, -1)


def test_walk_tally_classifies_against_the_table(g):
    engine = Engine(g)
    table = engine.member_table([(44, 0), (59, 0)])
    assert engine.walk_tally(44, 0, 10**30, table) == (ENTERED, 0, 0)
    assert engine.walk_tally(0, 5, 10**30, table) == (STEP_CUTOFF, 5, -1)
    # 59 -> 79 in one step
    assert engine.walk_tally(59, 1, 10**30, engine.member_table([(79, 3)])) == (ENTERED, 1, 3)


# 3x+1 from 7: 7 -> 11 -> 17 -> 26 -> 13 -> 20 -> 10 -> 5 -> 8
@pytest.mark.parametrize("walk", ["walk_brent", "walk_tally"])
def test_walk_stops_at_the_first_recorded_iterate(t31, walk):
    engine = Engine(t31)
    walk = getattr(engine, walk)
    # window [10, 26]: 17 is iterate 2, 26 iterate 3, 13 iterate 4
    memo = array("q", [-1]) * 17
    memo[26 - 10] = 41
    memo[13 - 10] = 42
    assert walk(7, 100, 10**30, {}, memo, 10) == (MEMO_HIT, 3, 41)
    memo[17 - 10] = 43
    assert walk(7, 100, 10**30, {}, memo, 10) == (MEMO_HIT, 2, 43)
    # the step budget ends the walk before the recorded iterate
    assert walk(7, 1, 10**30, {}, memo, 10)[0] == STEP_CUTOFF
    # the member table and the magnitude cutoff are checked first
    assert walk(7, 100, 10**30, {17: 5}, memo, 10) == (ENTERED, 2, 5)
    assert walk(7, 100, 16, {}, memo, 10)[:2] == (MAG_CUTOFF, 2)


class _StrictMemo(list):
    """A memo that fails on a lookup outside its window."""

    def __getitem__(self, i):
        assert 0 <= i < len(self), f"memo index {i} looked up"
        return super().__getitem__(i)


@pytest.mark.parametrize("walk", ["walk_brent", "walk_tally"])
def test_cutoff_and_window_edges(t31, walk):
    walk = getattr(Engine(t31), walk)
    # an iterate equal to +-max_magnitude is within it, one past is not
    assert walk(17, 0, 17, {}) == walk(17, 0, 10**30, {})
    assert walk(17, 0, 16, {})[:2] == (MAG_CUTOFF, 0)
    assert walk(7, 100, 17, {})[:2] == (MAG_CUTOFF, 3)      # 26, not 17
    assert walk(7, 100, 16, {})[:2] == (MAG_CUTOFF, 2)
    # -17 -> -25 -> -37
    assert walk(-25, 0, 25, {}) == walk(-25, 0, 10**30, {})
    assert walk(-25, 0, 24, {})[:2] == (MAG_CUTOFF, 0)
    assert walk(-17, 100, 25, {})[:2] == (MAG_CUTOFF, 2)
    assert walk(-17, 100, 24, {})[:2] == (MAG_CUTOFF, 1)
    # 17, iterate 2 of 7, is the first value of the window
    assert walk(7, 100, 10**30, {}, _StrictMemo([5]), 17) == (MEMO_HIT, 2, 5)
    # 7 -> 11 -> 17 -> 26 -> 13: 11 and 17 lie just outside the window [12, 16]
    members = {1: 0, 2: 0}
    memo = _StrictMemo([-1] * 5)
    assert walk(7, 100, 10**30, members, memo, 12) == walk(7, 100, 10**30, members)


def test_only_walk_brent_stops_at_a_pending_entry(t31):
    engine = Engine(t31)
    memo = array("q", [-2, -2 - 3])          # 26 and 27: deferred
    assert engine.walk_brent(7, 100, 10**30, {}, memo, 26) == (MEMO_HIT, 3, -2)
    members = engine.member_table([(1, 0), (2, 0)])
    assert (engine.walk_tally(7, 100, 10**30, members, memo, 26)
            == engine.walk_tally(7, 100, 10**30, members))


@pytest.mark.parametrize("walk", ["walk_brent", "walk_tally"])
def test_own_entry_is_not_a_hit(t31, walk):
    walk = getattr(Engine(t31), walk)
    memo = array("q", [7])
    assert walk(7, 5, 10**30, {}, memo, 7) == walk(7, 5, 10**30, {})
    # 1 -> 2 -> 1: the start's entry is read only when the orbit returns to it
    assert walk(1, 5, 10**30, {}, array("q", [9]), 1) == (MEMO_HIT, 2, 9)


def test_empty_or_unknown_memo_is_a_plain_walk(t31, g):
    for mapping in (t31, g):
        engine = Engine(mapping)
        members = engine.member_table([(1, 0), (2, 0), (-1, 1)])
        unknown = array("q", [-1]) * 400
        for start in range(-150, 151):
            for max_steps in (0, 3, 200):
                plain = engine.walk_brent(start, max_steps, 10**9, members)
                assert engine.walk_brent(start, max_steps, 10**9, members, unknown, -200) == plain
                plain = engine.walk_tally(start, max_steps, 10**9, members)
                assert engine.walk_tally(start, max_steps, 10**9, members, unknown, -200) == plain
        assert engine.walk_brent(-5, 100, 10**9, {})[0] == NEW_CYCLE


def test_new_cycle_is_listed_from_where_brent_closed_it(t31):
    engine = Engine(t31)
    for start in range(-60, 61):
        code, steps, elements = engine.walk_brent(start, 1000, 10**9, {})
        assert code == NEW_CYCLE
        x = start
        for _ in range(steps):
            x, _ = t31.apply(x)
        assert elements[0] == x
        # closed and pairwise distinct, or canonicalize raises
        assert gx.canonicalize(t31, elements).period == len(elements)


@pytest.mark.parametrize("mapping", [
    *(gx.mapping_from_name(name) for name in (
        "collatz", "3x1", *(f"perm:{i}" for i in range(1, 7)),
        "carnielli-T:3", "carnielli-T:5", "carnielli-L:3", "matthews")),
    gx.validate(2, [(1, 0), (-3, 1)]),
], ids=str)
def test_jump_table_takes_k_steps_and_bounds_each(mapping):
    engine = Engine(mapping)
    K, D = engine.K, engine.D
    assert D == mapping.d ** K <= 1024 < D * mapping.d
    rows, up, cb = engine.jump_table()
    assert len(rows) == D and engine.jump_table() is engine.jump_table()
    for r, (m, t, num, cb_r) in enumerate(rows):
        for q in (-3, -1, 0, 1, 2**70):
            x = D * q + r
            for i in range(1, K + 1):
                x, _ = mapping.apply(x)
                assert num * abs(D * q + r) - cb_r <= abs(x) * D <= up * abs(D * q + r) + cb
            assert m * q + t == x


def test_no_jump_table_past_modulus_32():
    mapping = gx.carnielli_T(40)
    engine = Engine(mapping)
    assert engine.K == 1 and engine.jump_table() is None
    for start in range(-300, 301, 7):
        plain = engine.walk_brent(start, 1000, 10**9, {})
        assert engine.walk_brent(start, 1000, 10**9, {}, far=engine.far(50, 10**9)) == plain
    with mock.patch.object(Engine, "far", lambda self, reach, max_magnitude: max_magnitude):
        plain = gx.search_range(mapping, -300, 300, max_steps=1000)
    assert gx.search_range(mapping, -300, 300, max_steps=1000) == plain
