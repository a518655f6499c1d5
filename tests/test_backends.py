"""The walker and the backend name that reports carry."""

import gx1cycles as gx
from gx1cycles._backend import ENTERED, MAG_CUTOFF, STEP_CUTOFF, Engine


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
