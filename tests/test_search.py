import sys
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

    def test_deterministic_across_threads(self, mat):
        base = gx.search_range(mat, -2000, 2000, max_steps=10**5)
        other = gx.search_range(mat, -2000, 2000, max_steps=10**5, threads=2)
        assert other == base
        assert other.to_json() == base.to_json()

    @pytest.mark.parametrize("selector,lo,hi", [("matthews", -2000, 2000),
                                                ("collatz", 1, 3000)])
    def test_small_blocks_agree_across_waves(self, monkeypatch, selector, lo, hi):
        # 64-start blocks give many blocks and many waves of 2 or 3 blocks;
        # frequent thread switches expose a merge that races a running block
        monkeypatch.setattr(search, "_BLOCK", 64)
        mapping = gx.mapping_from_name(selector)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reports = [gx.search_range(mapping, lo, hi, max_steps=1000, threads=threads)
                       for threads in (1, 2, 3)]
        finally:
            sys.setswitchinterval(interval)
        payloads = [r.to_json() for r in reports]
        for report, payload in zip(reports, payloads):
            assert report == reports[0]
            assert payload == payloads[0]

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

    def test_report_json_round_trip_fields(self, g, tmp_path):
        report = gx.search_range(g, 1, 50, max_steps=10**3)
        payload = report.to_json()
        assert payload["range"] == [1, 50]
        assert set(payload["tallies"]) == {"entered", "step_cutoff", "magnitude_cutoff"}
        path = tmp_path / "report.json"
        report.dump(path)
        import json

        assert json.loads(path.read_text()) == payload


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

    def test_sign_override(self, g):
        node = _node(COLLATZ_FAMILY, 3, 2)
        report = gx.search_node(g, node, signed="both")
        mins = [c.min_element for c in report.catalog.cycles]
        assert mins == [-9, 4]

    def test_variant3_node_guided_94_cycle(self, h):
        # the variant shares the Collatz family, so its long cycle sits
        # inside the bound of the node with matching counts
        report = gx.search_node(h, _node(COLLATZ_FAMILY, 55, 39))
        assert any(c.period == 94 and c.min_element == 144
                   for c in report.catalog.cycles)


class TestLambdaProfile:
    def test_table_trajectory_collatz(self, g):
        profile = gx.lambda_profile(g, [225, 326], horizon=60)
        for rec in profile.records:
            assert rec.step == 53
            assert rec.lam == pytest.approx(0.997914046257308, abs=1e-12)

    def test_table_trajectory_3x1_negative(self, t31):
        profile = gx.lambda_profile(t31, [-42, -57], horizon=15)
        for rec in profile.records:
            assert rec.step == 11
            assert rec.lam == pytest.approx(1.06787109375, abs=1e-12)

    def test_cycle_member_returns_exactly(self, g):
        rec = gx.lambda_profile(g, [4], horizon=100).records[0]
        assert rec.step == 5
        assert rec.lam == pytest.approx(float(Fraction(256, 243)))

    def test_long_return_is_correctly_rounded(self, mat):
        # start 6 returns at step 1747, where a sum of float logs is off
        rec = gx.lambda_profile(mat, [6], horizon=2000).records[0]
        assert rec.step == 1747
        assert rec.lam == float(gx.lambda_exact(mat, rec.counts))

    def test_degenerate_horizon_one(self, g):
        profile = gx.lambda_profile(g, [3, 4, 5], horizon=1)
        assert [r.step for r in profile.records] == [1, 1, 1]
        assert profile.by_counts()

    def test_horizon_validated(self, g):
        with pytest.raises(ValueError):
            gx.lambda_profile(g, [1], horizon=0)

    def test_histogram(self, g):
        profile = gx.lambda_profile(g, range(10, 60), horizon=53)
        hist = profile.histogram(0.25)
        assert sum(hist.values()) == len([r for r in profile.records if r.lam is not None])
