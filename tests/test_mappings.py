import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gx1cycles as gx
from gx1cycles.mappings import CutoffExceededError, InvalidMappingError


class TestValidate:
    def test_collatz_is_valid(self):
        m = gx.validate(3, [(2, 0), (4, 1), (4, -1)])
        assert m.d == 3 and m.branches == ((2, 0), (4, 1), (4, -1))

    def test_3x1_is_valid(self):
        m = gx.validate(2, [(1, 0), (3, -1)])
        assert m.branches == ((1, 0), (3, -1))

    def test_congruence_violation_reports_index(self):
        with pytest.raises(InvalidMappingError, match="branch 1"):
            gx.validate(3, [(2, 0), (4, 2), (4, -1)])

    def test_small_modulus_rejected(self):
        with pytest.raises(InvalidMappingError, match="d must be >= 2"):
            gx.validate(1, [(1, 0)])

    def test_zero_multiplier_rejected(self):
        with pytest.raises(InvalidMappingError, match="non-zero"):
            gx.validate(2, [(0, 0), (3, -1)])

    def test_branch_count_must_match_modulus(self):
        with pytest.raises(InvalidMappingError, match="exactly 3 branches"):
            gx.validate(3, [(2, 0), (4, 1)])


class TestApply:
    def test_collatz_steps(self, g):
        assert g.apply(2) == (3, 2)
        assert g.apply(44) == (59, 2)

    def test_3x1_step(self, t31):
        assert t31.apply(3) == (5, 1)

    def test_negative_values_use_canonical_residue(self, mat):
        # -330 = 4*(-83) + 2, so the residue-2 branch applies
        assert mat.apply(-330) == (-413, 2)
        assert mat.apply(-1756) == (-439, 0)


class TestTrajectory:
    def test_collatz_from_4(self, g):
        traj = gx.trajectory(g, 4, 5)
        assert traj.values == (4, 5, 7, 9, 6, 4)
        assert traj.branches == (1, 2, 1, 0, 0)

    def test_3x1_negative(self, t31):
        traj = gx.trajectory(t31, -5, 3)
        assert traj.values == (-5, -7, -10, -5)

    def test_zero_steps(self, g):
        traj = gx.trajectory(g, 123, 0)
        assert traj.values == (123,) and traj.branches == ()

    def test_steps_property_pairs_values_with_branches(self, g):
        traj = gx.trajectory(g, 4, 3)
        assert traj.steps == ((5, 1), (7, 2), (9, 1))

    def test_magnitude_cutoff_signals_undecided(self, g):
        with pytest.raises(CutoffExceededError, match="undecided") as err:
            gx.trajectory(g, 27, 10_000, max_magnitude=10**6)
        assert err.value.kind == "magnitude"
        assert err.value.steps < 10_000

    def test_negative_steps_rejected(self, g):
        with pytest.raises(ValueError):
            gx.trajectory(g, 1, -1)


class TestFamilies:
    def test_carnielli_T2_equals_3x1(self, t31):
        assert gx.carnielli_T(2).branches == t31.branches
        assert gx.carnielli_T(2).d == t31.d

    def test_carnielli_T3_branch_1(self):
        # class 1 of T_3 sends x to (4x + 2)/3
        m = gx.carnielli_T(3)
        assert m.branches[1] == (4, -2)
        assert m.apply(1) == (2, 1)

    def test_carnielli_T_class_0_is_division(self):
        for d in (2, 3, 5, 10):
            assert gx.carnielli_T(d).branches[0] == (1, 0)

    def test_carnielli_T3_has_123_cycle(self):
        m = gx.carnielli_T(3)
        assert gx.trajectory(m, 1, 3).values == (1, 2, 3, 1)

    def test_carnielli_L3_residue_2(self):
        m = gx.carnielli_L(3)
        assert m.branches[2] == (4, -1)
        assert m.branches[0] == (1, 0)

    def test_carnielli_L2_residue_1(self):
        assert gx.carnielli_L(2).branches[1] == (3, 1)

    def test_carnielli_L_covers_all_residues(self):
        for d in range(2, 12):
            m = gx.carnielli_L(d)
            assert len(m.branches) == d

    def test_small_modulus_rejected(self):
        with pytest.raises(InvalidMappingError):
            gx.carnielli_T(1)
        with pytest.raises(InvalidMappingError):
            gx.carnielli_L(0)

    def test_variant_1_is_collatz(self, g):
        assert gx.permutation_variant(1).branches == g.branches

    def test_variant_3_values(self, h):
        assert h.apply(4) == (7, 1)
        assert h.apply(5) == (4, 2)
        # published first iterates: 3 2 1 7 4 5 11 6 9
        assert [h.apply(n)[0] for n in range(1, 10)] == [3, 2, 1, 7, 4, 5, 11, 6, 9]

    def test_variant_1_first_iterates(self, g):
        assert [g.apply(n)[0] for n in range(1, 10)] == [1, 3, 2, 5, 7, 4, 9, 11, 6]

    def test_six_variants_distinct_and_valid(self):
        seen = {gx.permutation_variant(i).branches for i in range(1, 7)}
        assert len(seen) == 6

    def test_variant_index_out_of_range(self):
        for bad in (0, 7, -1):
            with pytest.raises(ValueError):
                gx.permutation_variant(bad)

    def test_mapping_from_name(self, g, h):
        assert gx.mapping_from_name("collatz").branches == g.branches
        assert gx.mapping_from_name("perm:3").branches == h.branches
        assert gx.mapping_from_name("carnielli-T:5").d == 5
        assert gx.mapping_from_name("carnielli-L:4").branches[3] == (5, -1)
        for bad in ("nonsense", "perm", "custom", "carnielli-X:3", "matthews:1"):
            with pytest.raises(ValueError, match="unknown mapping selector"):
                gx.mapping_from_name(bad)

    @pytest.mark.parametrize("selector, number", [
        ("perm:x", "'x'"), ("carnielli-T:x", "'x'"), ("carnielli-L:", "''"),
        ("perm:1.5", "'1.5'")])
    def test_bad_selector_number_names_the_selector(self, selector, number):
        with pytest.raises(ValueError, match=re.escape(
                f"mapping selector {selector!r}: {number} is not an integer")):
            gx.mapping_from_name(selector)

    def test_mapping_json_round_trip(self, mat, tmp_path):
        path = tmp_path / "m.json"
        import json

        path.write_text(json.dumps(mat.to_json()))
        again = gx.mapping_from_file(path)
        assert again.branches == mat.branches and again.d == mat.d
        via_name = gx.mapping_from_name(f"custom:{path}")
        assert via_name.branches == mat.branches


class TestBranchCounts:
    def test_5_cycle_counts(self, g):
        traj = gx.trajectory(g, 4, 5)
        counts = traj.counts
        assert counts.as_pair() == (3, 2)
        assert counts.counts == (2, 2, 1)

    def test_2_cycle_counts(self, g):
        counts = gx.trajectory(g, 2, 2).counts
        assert counts.as_pair() == (1, 1)

    def test_fixed_point_counts(self, g):
        counts = gx.trajectory(g, 1, 1).counts
        assert counts.as_pair() == (1, 0)

    def test_counts_sum_to_length(self, mat):
        traj = gx.trajectory(mat, 6, 100)
        counts = traj.counts
        assert counts.k == 100 == sum(counts.counts)

    def test_no_pair_for_many_slope_mappings(self, mat):
        counts = gx.trajectory(mat, 6, 10).counts
        assert counts.k1 is None
        with pytest.raises(ValueError):
            counts.as_pair()


class TestInvariants:
    @given(st.integers(min_value=-10**9, max_value=10**9))
    @settings(max_examples=300)
    def test_integrality_collatz(self, x):
        g = gx.collatz()
        m, r = g.branches[x % 3]
        assert (m * x - r) % 3 == 0

    @given(st.integers(min_value=-10**9, max_value=10**9),
           st.sampled_from(["collatz", "3x1", "perm:4", "carnielli-T:7", "carnielli-L:6",
                            "matthews"]))
    @settings(max_examples=200)
    def test_integrality_all_families(self, x, name):
        mapping = gx.mapping_from_name(name)
        nxt, b = mapping.apply(x)
        m, r = mapping.branches[b]
        assert m * x - r == nxt * mapping.d

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=200)
    def test_collatz_mapping_is_odd(self, n):
        g = gx.collatz()
        assert g.apply(-n)[0] == -g.apply(n)[0]

    def test_permutation_images(self, g):
        n = 10_000
        image_0 = {g.apply(x)[0] for x in range(3, n + 1, 3)}
        assert image_0 == set(range(2, 2 * (n // 3) + 1, 2))
        image_1 = {g.apply(x)[0] for x in range(1, n + 1, 3)}
        assert image_1 == set(range(1, max(image_1) + 1, 4))
        image_2 = {g.apply(x)[0] for x in range(2, n + 1, 3)}
        assert image_2 == set(range(3, max(image_2) + 1, 4))

    def test_two_ratio_split(self, g, t31, h, mat):
        assert g.two_ratio_split() == ((1, 2), (0,))
        assert t31.two_ratio_split() == ((1,), (0,))
        assert h.two_ratio_split() == ((0, 1), (2,))
        assert mat.two_ratio_split() is None
