from fractions import Fraction

import pytest

import gx1cycles as gx
from gx1cycles.cycles import (BudgetExceededError, CutoffExceededError,
                              NotAClosedCycleError)
from gx1cycles.reference import catalog_path, load_bundled_catalog


class TestCanonicalize:
    def test_rotates_to_minimum(self, g):
        cyc = gx.canonicalize(g, (7, 9, 6, 4, 5))
        assert cyc.elements == (4, 5, 7, 9, 6)
        assert cyc.min_element == 4

    def test_negative_cycle_minimum_first(self, t31):
        cyc = gx.canonicalize(t31, (-7, -10, -5))
        assert cyc.elements == (-10, -5, -7)
        assert cyc.min_abs_element == -5

    def test_singleton(self, g):
        cyc = gx.canonicalize(g, (1,))
        assert cyc.elements == (1,) and cyc.period == 1

    def test_not_closed_rejected(self, g):
        with pytest.raises(NotAClosedCycleError, match="not closed"):
            gx.canonicalize(g, (4, 5, 7))

    def test_repeats_rejected(self, g):
        with pytest.raises(NotAClosedCycleError, match="distinct"):
            gx.canonicalize(g, (4, 5, 4))

    def test_counts_computed(self, g):
        cyc = gx.canonicalize(g, (4, 5, 7, 9, 6))
        assert cyc.counts.as_pair() == (3, 2)


class TestDetectCycle:
    def test_collatz_12_cycle(self, g):
        cyc = gx.detect_cycle(g, 44)
        assert cyc.elements == (44, 59, 79, 105, 70, 93, 62, 83, 111, 74, 99, 66)
        assert cyc.counts.as_pair() == (7, 5)

    def test_3x1_11_cycle(self, t31):
        cyc = gx.detect_cycle(t31, -17)
        assert cyc.period == 11
        assert cyc.min_element == -136 and cyc.min_abs_element == -17

    def test_variant3_6_cycle(self, h):
        cyc = gx.detect_cycle(h, 8)
        assert cyc.elements == (4, 7, 11, 8, 6, 5)

    def test_start_off_cycle_finds_entered_cycle(self, t31):
        cyc = gx.detect_cycle(t31, 20)          # 20 -> 10 -> 5 -> 8 -> 4 -> 2 -> 1
        assert cyc.elements == (1, 2)

    def test_cutoff_returns_none(self, g):
        assert gx.detect_cycle(g, 100, max_steps=50, max_magnitude=10**4) is None

    def test_cutoff_kinds_distinguished(self, g):
        with pytest.raises(CutoffExceededError) as err:
            gx.detect_cycle(g, 100, max_steps=10**6, max_magnitude=10**4,
                            raise_on_cutoff=True)
        assert err.value.kind == "magnitude"
        with pytest.raises(CutoffExceededError) as err:
            gx.detect_cycle(g, 100, max_steps=10, max_magnitude=10**30,
                            raise_on_cutoff=True)
        assert err.value.kind == "steps"


class TestEnumerate:
    def test_collatz_period_5(self, g):
        cat = gx.enumerate_cycles_exact(g, 5)
        expected = {(1,), (0,), (-1,), (2, 3), (-3, -2),
                    (4, 5, 7, 9, 6), (-9, -6, -4, -5, -7)}
        assert {c.elements for c in cat.cycles} == expected

    def test_collatz_period_12_has_all_nine(self, g):
        cat = gx.enumerate_cycles_exact(g, 12)
        assert len(cat) == 9
        assert set(cat.min_elements()) == {-111, -9, -3, -1, 0, 1, 2, 4, 44}

    def test_3x1_period_3(self, t31):
        cat = gx.enumerate_cycles_exact(t31, 3)
        assert {c.elements for c in cat.cycles} == {(0,), (-1,), (1, 2), (-10, -5, -7)}

    def test_matthews_period_4(self, mat):
        cat = gx.enumerate_cycles_exact(mat, 4)
        p4 = [c for c in cat.cycles if c.period == 4]
        assert sorted(c.min_abs_element for c in p4) == [-333, -330, -261, -186, -137, -117]
        for c in p4:
            assert c.counts.counts == (1, 1, 1, 1)
            assert gx.compose_affine(mat, c.branches).slope == Fraction(255, 256)

    def test_catalog_sorted_canonically(self, g):
        cat = gx.enumerate_cycles_exact(g, 5)
        keys = [(c.period, c.min_element) for c in cat.cycles]
        assert keys == sorted(keys)

    def test_budget_guard(self, g):
        with pytest.raises(BudgetExceededError):
            gx.enumerate_cycles_exact(g, 20, budget=10**6)

    @pytest.mark.parametrize("name, period, visited",
                             [("collatz", 6, 331), ("3x1", 8, 167)])
    def test_budget_counts_visited_sequences(self, name, period, visited):
        # `visited` is the number of prenecklaces of lengths 1..period,
        # counted by brute force over all words
        mapping = gx.mapping_from_name(name)
        cat = gx.enumerate_cycles_exact(mapping, period, budget=visited)
        assert cat.meta["sequences"] == visited
        with pytest.raises(BudgetExceededError):
            gx.enumerate_cycles_exact(mapping, period, budget=visited - 1)

    def test_unit_slope_sequences_skipped_and_counted(self):
        # even -> x, odd -> x - 1: the one-step class-0 sequence has slope 1
        m = gx.validate(2, [(2, 0), (2, 2)])
        cat = gx.enumerate_cycles_exact(m, 2)
        assert cat.meta["unit_slope_skipped"] > 0

    def test_period_zero_is_empty(self, g):
        cat = gx.enumerate_cycles_exact(g, 0)
        assert len(cat) == 0

    def test_oracle_matches_search(self, g, t31):
        for mapping, period, lo, hi in ((g, 8, -2000, 2000), (t31, 11, -200, 200)):
            oracle = gx.enumerate_cycles_exact(mapping, period)
            report = gx.search_range(mapping, lo, hi, max_steps=10**4)
            searched = {c.elements for c in report.catalog.cycles if c.period <= period}
            in_range = {c.elements for c in oracle.cycles if lo <= c.min_element <= hi}
            assert searched == in_range


class TestCatalog:
    def test_round_trip(self, g, tmp_path):
        cat = gx.enumerate_cycles_exact(g, 5)
        path = tmp_path / "cat.json"
        cat.dump(path)
        again = gx.CycleCatalog.load(path)
        assert again == cat

    def test_oracle_reproduces_bundled_collatz_catalog(self, g):
        bundled = gx.CycleCatalog.load(catalog_path("collatz"))
        assert gx.enumerate_cycles_exact(g, 12) == bundled

    def test_disjointness_enforced(self, g):
        c1 = gx.canonicalize(g, (4, 5, 7, 9, 6))
        c2 = gx.canonicalize(g, (6, 4, 5, 7, 9))
        with pytest.raises(ValueError, match="disjoint"):
            gx.CycleCatalog(g, (c1, c2))

    def test_verify_bundled_collatz(self, g):
        raw = load_bundled_catalog("collatz")
        result = gx.verify_catalog(g, raw)
        assert result.ok and len(result.checks) == 9

    def test_verify_bundled_3x1(self, t31):
        raw = load_bundled_catalog("3x1")
        assert gx.verify_catalog(t31, raw).ok

    def test_verify_bundled_matthews(self, mat):
        raw = load_bundled_catalog("matthews")
        result = gx.verify_catalog(mat, raw)
        assert result.ok and len(result.checks) == 17

    def test_tampered_catalog_fails(self, g):
        raw = load_bundled_catalog("collatz")
        raw["cycles"][5]["elements"][2] += 1
        result = gx.verify_catalog(g, raw)
        assert not result.ok
        assert len(result.failures()) == 1

    def test_verify_recomputes_counts(self, t31):
        cat = gx.enumerate_cycles_exact(t31, 3)
        result = gx.verify_catalog(t31, cat)
        by_min = {c.min_element: c for c in result.checks}
        assert by_min[-10].counts == (1, 2)
