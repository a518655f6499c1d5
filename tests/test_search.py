import json
from fractions import Fraction

import pytest

import gx1cycles as gx
from gx1cycles import search
from gx1cycles.nodes import COLLATZ_FAMILY, THREE_X1_FAMILY


def _node(family, k1, k2):
    for n in gx.iter_nodes(family):
        if (n.k1, n.k2) == (k1, k2):
            return n
        if n.k > k1 + k2:
            raise AssertionError(f"({k1},{k2}) is not a node")


class TestSearchRange:
    def test_collatz_positive(self, g):
        report = gx.search_range(g, 1, 200, max_steps=10**4)
        assert report.catalog.min_elements() == (1, 2, 4, 44)
        assert report.tallies == {"entered": 20, "step_cutoff": 0,
                                  "magnitude_cutoff": 180}
        assert report.hits == {1: 1, 2: 2, 4: 5, 44: 12}

    def test_collatz_negative_with_zero(self, g):
        report = gx.search_range(g, -200, 0, max_steps=10**4)
        assert report.catalog.min_elements() == (-1, 0, -3, -9, -111)

    def test_3x1_both_signs(self, t31):
        report = gx.search_range(t31, -150, 150, max_steps=10**4)
        assert len(report.catalog) == 5
        periods = sorted(c.period for c in report.catalog.cycles)
        assert periods == [1, 1, 2, 3, 11]
        eleven = next(c for c in report.catalog.cycles if c.period == 11)
        assert eleven.min_abs_element == -17
        assert report.tallies["entered"] == 301

    def test_tallies_sum_to_range(self, h):
        report = gx.search_range(h, -50, 300, max_steps=500, max_magnitude=10**9)
        assert sum(report.tallies.values()) == 351

    def test_empty_range_rejected(self, g):
        with pytest.raises(ValueError, match="empty range"):
            gx.search_range(g, 5, 4)

    def test_zero_step_budget(self, g):
        report = gx.search_range(g, 1, 10, max_steps=0)
        assert report.tallies == {"entered": 0, "step_cutoff": 10,
                                  "magnitude_cutoff": 0}

    def test_matthews_17(self, mat):
        report = gx.search_range(mat, -6000, 6000, max_steps=10**5)
        pairs = sorted((c.min_abs_element, c.period) for c in report.catalog.cycles)
        assert len(pairs) == 17
        assert (6, 1747) in pairs and (-513, 1426) in pairs

    def test_step_cutoff_rewalk(self, mat):
        # a tiny budget forces Brent to miss long cycles from most starts,
        # and the re-tally still classifies them against found cycles
        tight = gx.search_range(mat, -100, 100, max_steps=60)
        assert sum(tight.tallies.values()) == 201
        assert tight.tallies["step_cutoff"] > 0

    def test_closed_cycle_regression(self, g):
        # no start outside the known cycles ever enters one
        report = gx.search_range(g, -10_000, 10_000, max_steps=10**4)
        members = sum(c.period for c in report.catalog.cycles)
        assert report.tallies["entered"] == members
        assert report.catalog.min_elements() == (-1, 0, 1, -3, 2, -9, 4, -111, 44)

    def test_report_json_round_trip_fields(self, g):
        report = gx.search_range(g, 1, 50, max_steps=10**3)
        payload = report.to_json()
        assert payload["range"] == [1, 50]
        assert set(payload["tallies"]) == {"entered", "step_cutoff", "magnitude_cutoff"}
        assert json.loads(json.dumps(payload)) == payload


class TestRangeMemo:
    def test_walks_few_steps_per_start(self, t31):
        report = gx.search_range(t31, -4000, 4000, max_steps=10**5)
        assert report.tallies["entered"] == 8001
        assert report.meta["steps"] <= 8 * 8001
        assert report.meta["memo_hits"] > 7000

    def test_window_is_the_first_starts_by_distance(self, monkeypatch):
        for lo, hi in [(-6, 6), (-6, 2), (-2, 6), (3, 9), (-9, -3), (0, 0), (-4, 0), (0, 4)]:
            for cap in (1, 2, 3, 4, 5, 8, 100):
                monkeypatch.setattr(search, "_MEMO_CAP", cap)
                run = search._Search(gx.collatz(), lo, hi, 1000, 10**9)
                order = list(search._by_distance(lo, hi))
                assert sorted(order) == list(range(lo, hi + 1))
                n = min(cap, hi - lo + 1)
                assert len(run.memo) == n
                assert list(range(run.base, run.base + n)) == sorted(order[:n])

    def test_memo_is_capped(self):
        run = search._Search(gx.collatz(), -10**11, 10**11, 10**6, 10**30)
        assert len(run.memo) == search._MEMO_CAP
        assert run.base <= 0 < run.base + search._MEMO_CAP
        far = search._Search(gx.collatz(), -10**12, -10**11, 10**6, 10**30)
        assert len(far.memo) == search._MEMO_CAP
        assert far.base + search._MEMO_CAP - 1 == -10**11

    def test_entries_that_do_not_fit_turn_the_memo_off(self, mat):
        huge = 2**60
        assert len(search._Search(mat, -300, 300, huge, 10**30).memo) == 0
        report = gx.search_range(mat, -300, 300, max_steps=huge, max_magnitude=10**12)
        assert report.meta["memo_hits"] == 0
        memoized = gx.search_range(mat, -300, 300, max_steps=10**5, max_magnitude=10**12)
        assert memoized.meta["memo_hits"] > 0
        assert (report.tallies, report.hits) == (memoized.tallies, memoized.hits)
        assert report.catalog.cycles == memoized.catalog.cycles


class TestTallySkip:
    def test_start_deferred_before_a_later_cycle_is_walked_again(self, mat):
        # some starts are deferred before a cycle is registered and enter
        # it within the budget: skipping their tally walk would miscount
        report = gx.search_range(mat, -40, 40, max_steps=8)
        assert report.tallies == {"entered": 46, "step_cutoff": 35,
                                  "magnitude_cutoff": 0}

    def test_starts_deferred_after_the_last_cycle_are_not_walked_again(self, g):
        report = gx.search_range(g, 101, 3100, max_steps=1000)
        assert report.meta["tally_skips"] == 1844
        assert report.meta["steps"] < 700_000


class TestSearchNode:
    def test_collatz_node_3_2(self, g):
        report = gx.search_node(g, _node(COLLATZ_FAMILY, 3, 2))
        assert [c.elements for c in report.catalog.cycles] == [(4, 5, 7, 9, 6)]
        assert report.lo == 1 and report.hi == 16

    def test_collatz_node_7_5(self, g):
        report = gx.search_node(g, _node(COLLATZ_FAMILY, 7, 5))
        assert [c.min_element for c in report.catalog.cycles] == [44]
        assert report.hi == 150

    def test_3x1_node_7_4_searches_negative(self, t31):
        report = gx.search_node(t31, _node(THREE_X1_FAMILY, 7, 4))
        assert report.lo < 0 < -report.hi
        assert [c.min_abs_element for c in report.catalog.cycles] == [-17]

    def test_3x1_pp_node_searches_positive(self, t31):
        report = gx.search_node(t31, _node(THREE_X1_FAMILY, 1, 1))
        assert report.lo == 1
        assert [c.elements for c in report.catalog.cycles] == [(1, 2)]

    def test_bound_below_one_gives_empty_report(self):
        fam = gx.family_for_mapping(gx.carnielli_T(3))
        node = _node(fam, 1, 1)
        report = gx.search_node(gx.carnielli_T(3), node, constant=Fraction(1, 100))
        assert report.range_size == 0 and len(report.catalog) == 0
        assert "empty" in report.meta

    def test_bad_sign_rejected_before_the_bound(self):
        fam = gx.family_for_mapping(gx.carnielli_T(3))
        with pytest.raises(ValueError, match="signed"):
            gx.search_node(gx.carnielli_T(3), _node(fam, 1, 1),
                           constant=Fraction(1, 100), signed="bogus")

    def test_pg_node_of_another_two_slope_mapping_searches_positive(self):
        # T(x) = (3x - 1)/2 on odd x shares the 3x+1 slopes and name, but
        # not the positive displacement: its cycle 5, 7, 10 is a PG node
        m3 = gx.validate(2, [(1, 0), (3, 1)], name="3x1")
        fam = gx.family_for_mapping(m3)
        report = gx.search_node(m3, _node(fam, 2, 1), constant=Fraction(5, 12))
        assert report.lo == 1
        assert [c.elements for c in report.catalog.cycles] == [(5, 7, 10)]

    def test_pg_node_of_a_mapping_with_offsets_at_most_zero_searches_negative(self):
        # carnielli-T:3 has offsets 0, -2, -1 like 3x+1: its PG node (4, 1)
        # closes on the negative cycle -66, -22, -29, -38, -50
        t3 = gx.carnielli_T(3)
        fam = gx.family_for_mapping(t3)
        node = _node(fam, 4, 1)
        assert node.side == "PG"
        report = gx.search_node(t3, node, constant=Fraction(1))
        assert report.lo < 0 and report.hi == -1
        assert [c.elements for c in report.catalog.cycles] == [(-66, -22, -29, -38, -50)]

    def test_pp_node_of_a_mapping_with_offsets_at_least_zero_searches_negative(self):
        # for T(x) = (3x - 1)/2 on odd x the PP node (1, 1) closes on -2, -1
        m3 = gx.validate(2, [(1, 0), (3, 1)], name="3x-1")
        node = _node(gx.family_for_mapping(m3), 1, 1)
        assert node.side == "PP"
        report = gx.search_node(m3, node, constant=Fraction(5, 12))
        assert report.lo < 0 and report.hi == -1
        assert [c.elements for c in report.catalog.cycles] == [(-2, -1)]

    def test_sign_override(self, g):
        node = _node(COLLATZ_FAMILY, 3, 2)
        report = gx.search_node(g, node, signed="both")
        mins = [c.min_element for c in report.catalog.cycles]
        assert mins == [-9, 4]

    def test_variant3_node_guided_94_cycle(self, h):
        # the variant has no proven constant; with 7/24 given explicitly
        # its long cycle still happens to sit inside the range
        node = _node(gx.family_for_mapping(h), 55, 39)
        report = gx.search_node(h, node, constant=Fraction(7, 24))
        assert any(c.period == 94 and c.min_element == 144
                   for c in report.catalog.cycles)

    @pytest.mark.parametrize("mapping, family, k1, k2", [
        ("collatz", THREE_X1_FAMILY, 7, 4),      # counts no Collatz node has
        ("perm:3", COLLATZ_FAMILY, 55, 39),      # 7/24 is refuted on perm:3
    ], ids=["3x1-node-on-collatz", "collatz-node-on-perm:3"])
    def test_node_of_another_family_rejected_before_the_bound(self, monkeypatch, mapping,
                                                              family, k1, k2):
        monkeypatch.setattr(search, "bound_C", None)     # C is never computed
        with pytest.raises(ValueError, match="family"):
            gx.search_node(gx.mapping_from_name(mapping), _node(family, k1, k2))

    def test_mapping_without_two_slopes_rejected(self, mat):
        with pytest.raises(ValueError, match="two distinct branch slopes"):
            gx.search_node(mat, _node(COLLATZ_FAMILY, 3, 2))

