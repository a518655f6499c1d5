import contextlib
import math
import random
import signal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gx1cycles as gx
from gx1cycles import nodes as nodes_module
from gx1cycles.nodes import (COLLATZ_CONSTANT, COLLATZ_FAMILY, THREE_X1_FAMILY, NodeFamily,
                             _is_exact_one, _LogEvaluator, family_for_mapping,
                             lambda_in_open_interval)


@contextlib.contextmanager
def _deadline(seconds):
    def expire(_signum, _frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestLambdaExact:
    def test_first_product(self):
        assert gx.lambda_exact(COLLATZ_FAMILY, (1, 1)) == Fraction(8, 9)

    def test_table_value_to_15_digits(self):
        lam = gx.lambda_exact(COLLATZ_FAMILY, (31, 22))
        assert abs(float(lam) - 0.997914046257308) < 1e-13

    def test_matthews_full_counts(self, mat):
        assert gx.lambda_exact(mat, (1, 1, 1, 1)) == Fraction(255, 256)

    def test_matthews_1747_cycle_lambda(self, mat):
        lam = gx.lambda_exact(mat, (432, 434, 450, 431))
        assert abs(float(lam) - 1.354586564) < 1e-8

    def test_from_branch_counts(self, g):
        counts = gx.trajectory(g, 4, 5).counts
        assert gx.lambda_exact(g, counts) == Fraction(256, 243)

    def test_counts_length_checked(self, g):
        with pytest.raises(ValueError):
            gx.lambda_exact(g, (1, 1))

    @pytest.mark.parametrize("call", [
        lambda g: gx.lambda_exact(g, (-1, 0, 0)),
        lambda g: gx.lambda_exact(COLLATZ_FAMILY, (2, -1)),
        lambda g: gx.ln_lambda(g, (3, 0, -2)),
        lambda g: gx.bound_C(COLLATZ_FAMILY, (5, -3)),
        lambda g: gx.bound_C(g, (1, -1, 4)),
    ], ids=["mapping", "family", "ln", "bound-pair", "bound-vector"])
    def test_negative_counts_rejected(self, g, call):
        with pytest.raises(ValueError, match=">= 0"):
            call(g)


class TestLnLambda:
    def test_first_product(self, g):
        ln = gx.ln_lambda(g, (1, 1, 0))
        assert abs(float(ln.value) - math.log(8 / 9)) < 1e-12
        assert float(ln.value) == pytest.approx(-0.1177830, abs=1e-6)

    def test_empty_counts_give_exact_zero(self, g):
        ln = gx.ln_lambda(g, (0, 0, 0))
        assert ln.value == 0 and ln.error_bound == 0

    def test_deep_row_needs_extended_precision(self):
        # 9126 growth and 6475 division uses, yet |ln lambda| < 2e-5
        g = gx.collatz()
        ln = gx.ln_lambda(g, (6475, 9126, 0))
        assert 0 < abs(float(ln.value)) < 2e-5

    def test_error_bound_documented(self, g):
        for counts in ((5, 100, 70), (1, 1, 0), (6475, 9126, 0), (10**40, 3, 10**40)):
            ln = gx.ln_lambda(g, counts)
            assert 0 < ln.error_bound <= mp.mpf(2) ** -248

    def test_agrees_with_exact_fraction(self, g):
        for counts in ((1, 1, 0), (3, 10, 7), (22, 20, 11)):
            lam = gx.lambda_exact(g, counts)
            ln = gx.ln_lambda(g, counts)
            with mp.workprec(300):
                direct = mp.ln(mp.mpf(lam.numerator)) - mp.ln(mp.mpf(lam.denominator))
                assert abs(ln.value - direct) <= 2 * float(ln.error_bound) + mp.mpf(2) ** -290

    def test_ln_matches_exact_for_all_reference_rows(self):
        from gx1cycles.reference import load_reference_table

        for name, mapping, vec in (("collatz", gx.collatz(),
                                    lambda k1, k2: (k2, k1, 0)),
                                   ("3x1", gx.three_x_plus_one(),
                                    lambda k1, k2: (k2, k1))):
            for row in load_reference_table(name)["rows"]:
                counts = vec(row["k1"], row["k2"])
                ln = gx.ln_lambda(mapping, counts)
                lam = gx.lambda_exact(mapping, counts)
                with mp.workprec(400):
                    direct = mp.ln(mp.mpf(lam.numerator)) - mp.ln(mp.mpf(lam.denominator))
                    assert abs(ln.value - direct) <= ln.error_bound + mp.mpf(2) ** -380

    def test_negative_multiplier_warns_and_flags(self):
        m = gx.validate(2, [(1, 0), (-3, 1)])
        with pytest.warns(UserWarning, match="negative multiplier"):
            ln = gx.ln_lambda(m, (1, 3))
        assert ln.negative
        assert gx.lambda_exact(m, (1, 3)) < 0


class TestExactOne:
    def test_large_prime_bases_return(self):
        # trial division of a base near 2^61 takes about 10^9 steps
        big = 2**61 - 1
        with _deadline(20):
            assert lambda_in_open_interval(COLLATZ_FAMILY, 3, 2, Fraction(1, big), 2)
            ln = gx.ln_lambda(gx.validate(2, [(1, 0), (big, 1)]), (1, 1))
        assert float(ln.value) == pytest.approx(math.log(big / 4))

    def test_shared_factors_cancel(self):
        big = 2**61 - 1
        assert _is_exact_one([(2, 6), (-1, 4), (-2, 3)])
        assert not _is_exact_one([(1, 6), (-1, 4)])
        with _deadline(20):
            assert _is_exact_one([(1, 3 * big), (-1, big), (-1, 3)])
            assert _is_exact_one([(3, big * big), (-6, big), (0, 7), (5, 1)])
            assert not _is_exact_one([(1, 2 * big), (-1, 2 * (big + 2))])

    def test_non_positive_base_rejected(self):
        with pytest.raises(ValueError, match="positive integer bases"):
            lambda_in_open_interval(COLLATZ_FAMILY, 3, 2, 0, 2)

    def test_agrees_with_fractions(self):
        rng = random.Random(5)
        for _ in range(300):
            terms = [(rng.randint(-3, 3), rng.randint(1, 60))
                     for _ in range(rng.randint(1, 4))]
            # make about half of the products exactly 1
            if rng.random() < 0.5:
                terms += [(-coef, base) for coef, base in terms]
                rng.shuffle(terms)
            exact = math.prod((Fraction(base) ** coef for coef, base in terms),
                              start=Fraction(1))
            assert _is_exact_one(terms) == (exact == 1), terms


class TestRhoMax:
    def test_values(self):
        assert gx.rho_max(0) == 0
        assert gx.rho_max(1) == Fraction(1, 3)
        assert gx.rho_max(3) == Fraction(37, 27)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gx.rho_max(-1)

    def test_matches_brute_force_small(self, g):
        import itertools

        from gx1cycles.affine import compose_affine

        for k1 in range(0, 5):
            for k2 in range(0, 5):
                best = Fraction(0)
                for pos in itertools.combinations(range(k1 + k2), k1):
                    for choice in itertools.product((1, 2), repeat=k1):
                        seq = [0] * (k1 + k2)
                        for p, c in zip(pos, choice):
                            seq[p] = c
                        best = max(best, abs(compose_affine(g, seq).offset))
                assert best == gx.rho_max(k1), (k1, k2)


class TestBoundC:
    @pytest.mark.parametrize("family,counts,expected", [
        (COLLATZ_FAMILY, (1, 1), 0.9067673),
        (THREE_X1_FAMILY, (1, 1), 0.3704306),
        (COLLATZ_FAMILY, (7, 5), 5.0150589),
    ])
    def test_published_rows(self, family, counts, expected):
        result = gx.bound_C(family, counts)
        assert result.ln_C == pytest.approx(expected, abs=1e-5)

    def test_atkin_constant(self):
        result = gx.bound_C(COLLATZ_FAMILY, (1, 1), constant=gx.COLLATZ_CONSTANT_FROM_8)
        assert result.constant == Fraction(63, 248)
        assert result.C < gx.bound_C(COLLATZ_FAMILY, (1, 1)).C

    @pytest.mark.parametrize("constant", [0, -1, Fraction(-1, 2)])
    def test_non_positive_constant_rejected(self, constant):
        with pytest.raises(ValueError, match="positive"):
            gx.bound_C(COLLATZ_FAMILY, (7, 5), constant=constant)
        with pytest.raises(ValueError, match="positive"):
            gx.generate_nodes(COLLATZ_FAMILY, max_nodes=3, constant=constant)

    def test_undefined_without_growth(self):
        with pytest.raises(ValueError, match="k_growth"):
            gx.bound_C(COLLATZ_FAMILY, (0, 5))

    def test_generalized_requires_constant(self, mat):
        with pytest.raises(ValueError, match="explicit"):
            gx.bound_C(mat, (1, 1, 1, 1))
        result = gx.bound_C(mat, (1, 1, 1, 1), constant=Fraction(1, 4))
        assert result.k_growth == 3          # everything outside class 0
        assert result.C == pytest.approx(0.25 * 3 / abs(math.log(255 / 256)), rel=1e-9)

    def test_unit_lambda_rejected(self):
        m = gx.validate(2, [(2, 0), (2, 2)])
        with pytest.raises(ValueError, match="lambda exactly 1"):
            gx.bound_C(m, (0, 1), constant=Fraction(1, 2))

    def test_mapping_resolves_to_family(self, h):
        # perm:3 shares the Collatz slopes but not its offsets, so it has
        # no default constant: its own 6-cycle, least term 4, lies above
        # the C = 2.48 that 7/24 would give
        counts = gx.detect_cycle(h, 8).counts
        with pytest.raises(ValueError, match="no default bound constant"):
            gx.bound_C(h, counts)
        result = gx.bound_C(h, counts, constant=COLLATZ_CONSTANT)
        assert result.k_growth == 3
        assert result.C < 4
        # perm:1 is the Collatz mapping, so it keeps the paper's constant
        assert gx.bound_C(gx.permutation_variant(1), (5, 7, 0)).constant == COLLATZ_CONSTANT

    @pytest.mark.parametrize("selector,vector,pair", [
        ("collatz", (5, 3, 4), (7, 5)),     # division branch 0
        ("3x1", (4, 7), (7, 4)),            # branch 0 is x/2, branch 1 (3x+1)/2
        ("perm:3", (3, 4, 5), (7, 5)),      # division branch 2
    ])
    def test_mapping_reads_one_count_per_branch(self, selector, vector, pair):
        # perm:3 has no default constant, so both sides are given one
        constant = COLLATZ_CONSTANT if selector == "perm:3" else None
        mapping = gx.mapping_from_name(selector)
        result = gx.bound_C(mapping, vector, constant=constant)
        assert result == gx.bound_C(gx.node_family(mapping), pair, constant=constant)
        assert result.k_growth == pair[0]

    @pytest.mark.parametrize("selector", ["collatz", "3x1"] + [f"perm:{i}" for i in range(1, 7)])
    def test_default_bound_holds_on_every_small_cycle(self, selector):
        # a default constant must bound the least |element| of every cycle
        # the oracle finds; the Collatz slopes alone do not make 7/24 hold
        # (perm:3's fixed point 9 would get C = 1.01), so perm:2-6 have none
        mapping = gx.mapping_from_name(selector)
        has_default = family_for_mapping(mapping).constant is not None
        max_period = 16 if selector == "3x1" else 10
        cycles = [c for c in gx.enumerate_cycles_exact(mapping, max_period).cycles
                  if c.counts.k1]
        assert cycles
        for c in cycles:
            if not has_default:
                with pytest.raises(ValueError, match="no default bound constant"):
                    gx.bound_C(mapping, c.counts)
                continue
            C = gx.bound_C(mapping, c.counts).C
            least = abs(c.min_abs_element)
            assert abs(least - C) > 1e-9 * C, (c.elements, C)   # a float C decides it
            assert least < C, (c.elements, c.counts.counts, C)


class TestGenerateNodes:
    def test_first_products(self):
        nodes = gx.generate_nodes(COLLATZ_FAMILY, max_nodes=6)
        pairs = [(n.k1, n.k2) for n in nodes]
        assert pairs == [(0, 1), (1, 0), (1, 1), (2, 1), (3, 2), (4, 3)]
        assert [n.side for n in nodes] == ["PP", "PG", "PP", "PG", "PG", "PP"]
        assert nodes[4].value == pytest.approx(256 / 243, abs=1e-14)
        assert nodes[5].value == pytest.approx(0.93644261545496, abs=1e-13)

    def test_3x1_first_products(self):
        nodes = gx.generate_nodes(THREE_X1_FAMILY, max_nodes=7)
        values = [n.value for n in nodes]
        assert values[2] == pytest.approx(0.75, abs=1e-15)
        assert values[3] == pytest.approx(1.125, abs=1e-15)
        assert values[4] == pytest.approx(0.84375, abs=1e-15)
        assert values[5] == pytest.approx(0.94921875, abs=1e-15)
        assert values[6] == pytest.approx(1.06787109375, abs=1e-15)

    def test_depth_zero_gives_seeds_only(self):
        nodes = gx.generate_nodes(COLLATZ_FAMILY, max_main_nodes=0)
        assert [(n.k1, n.k2) for n in nodes] == [(0, 1), (1, 0)]
        assert nodes[0].ln_c is None

    def test_deep_pg_value(self):
        nodes = gx.generate_nodes(COLLATZ_FAMILY, max_main_nodes=7)
        deep = [n for n in nodes if (n.k1, n.k2) == (179, 127)]
        assert len(deep) == 1
        assert deep[0].value == pytest.approx(1.00102276179641, abs=1e-13)
        assert deep[0].side == "PG" and (deep[0].i, deep[0].j) == (7, 5)

    def test_run_structure_to_depth_9(self):
        nodes = gx.generate_nodes(COLLATZ_FAMILY, max_main_nodes=9)
        from gx1cycles.nodes import _run_lengths

        assert _run_lengths(nodes) == (1, 2, 2, 3, 1, 5, 2, 23)

    def test_max_k_stop(self):
        nodes = gx.generate_nodes(COLLATZ_FAMILY, max_k=53)
        assert nodes[-1].k == 53 and (nodes[-1].k1, nodes[-1].k2) == (31, 22)

    @pytest.mark.parametrize("max_nodes", [0, 1, 2, 7])
    def test_max_nodes_is_the_node_count(self, max_nodes):
        assert len(gx.generate_nodes(COLLATZ_FAMILY, max_nodes=max_nodes)) == max_nodes

    def test_walk_makes_no_log_evaluator_call(self, monkeypatch):
        # ln lambda is a scaled integer: no evaluator runs, the scaled logs
        # are computed once per precision, and a product is tested for
        # being exactly 1 only when it does not settle, before a doubling
        def forbidden(*args, **kwargs):
            raise AssertionError("the node walk called _LogEvaluator")

        for name in ("__init__", "evaluate", "_refine", "sign", "tight"):
            monkeypatch.setattr(_LogEvaluator, name, forbidden)
        precs = []
        scaled_logs = nodes_module._scaled_logs
        is_exact_one = nodes_module._is_exact_one
        exact_one_calls = []

        def counted(fam, bits):
            precs.append(bits)
            return scaled_logs(fam, bits)

        def counted_exact_one(terms):
            exact_one_calls.append(terms)
            return is_exact_one(terms)

        monkeypatch.setattr(nodes_module, "_scaled_logs", counted)
        monkeypatch.setattr(nodes_module, "_is_exact_one", counted_exact_one)
        nodes = gx.generate_nodes(COLLATZ_FAMILY, max_nodes=500)
        doublings = len(set(precs)) - 1
        assert len(nodes) == 500
        assert doublings >= 1
        assert len(precs) <= doublings + 1
        assert len(exact_one_calls) <= doublings

    @pytest.mark.parametrize("m_grow", [4, 8])
    def test_degenerate_family_raises_at_once(self, m_grow):
        # (m_grow/2)^k1 * (1/2)^k2 hits exactly 1 at a small product, which
        # no precision could settle
        with _deadline(10), pytest.raises(ArithmeticError, match="family is degenerate"):
            gx.generate_nodes(NodeFamily("deg", 2, 1, m_grow), max_nodes=5)

    @pytest.mark.parametrize("family", [COLLATZ_FAMILY, THREE_X1_FAMILY,
                                        "carnielli-T:3", "carnielli-T:5"],
                             ids=lambda f: getattr(f, "name", f))
    def test_values_are_correctly_rounded(self, family):
        nodes = gx.generate_nodes(family, max_k=20_000)
        assert nodes[-1].k > 10_000
        for n in nodes:
            lam = n.lambda_fraction()
            assert n.value == float(lam), (n.k1, n.k2)
            assert (n.side == "PP") == (lam < 1), (n.k1, n.k2)

    @pytest.mark.parametrize("family, count, constant", [
        (COLLATZ_FAMILY, 3000, None), (THREE_X1_FAMILY, 3001, None),
        ("carnielli-T:3", 2000, Fraction(1, 2)), ("carnielli-T:5", 2000, Fraction(1, 2)),
    ], ids=["collatz", "3x1", "carnielli-T:3", "carnielli-T:5"])
    def test_deep_floats_match_a_high_precision_reference(self, family, count, constant):
        # the deep nodes, where lambda rounds to 1.0 and ln C takes one log,
        # against ln lambda at 2*bits(k) + 256 bits
        fam = gx.node_family(family)
        const = constant or fam.constant
        for n in gx.generate_nodes(fam, max_nodes=count, constant=constant):
            with mp.workprec(2 * n.k.bit_length() + 256):
                ln_lam = (n.k1 * mp.ln(fam.m_grow) + n.k2 * mp.ln(fam.m_div)
                          - n.k * mp.ln(fam.d))
                assert n.value == float(mp.exp(ln_lam)), (n.k1, n.k2)
                if n.k1:
                    ln_c = (mp.ln(const.numerator) - mp.ln(const.denominator)
                            + mp.ln(n.k1) - mp.ln(abs(ln_lam)))
                    assert n.ln_c == float(ln_c), (n.k1, n.k2)
                else:
                    assert n.ln_c is None

    @pytest.mark.parametrize("family", [COLLATZ_FAMILY, THREE_X1_FAMILY],
                             ids=lambda f: f.name)
    def test_walk_ln_c_matches_bound(self, family):
        # rows below 450: deeper, bound_C can divide by an exact zero
        for n in gx.generate_nodes(family, max_nodes=450)[2:]:
            assert n.ln_c == pytest.approx(gx.bound_C(family, (n.k1, n.k2)).ln_C,
                                           abs=1e-9), (n.k1, n.k2)

    def test_requires_stop_condition(self):
        with pytest.raises(ValueError, match="stop condition"):
            gx.generate_nodes(COLLATZ_FAMILY)

    def test_lambda_fraction_guard(self):
        nodes = gx.generate_nodes(COLLATZ_FAMILY, max_nodes=3)
        assert nodes[2].lambda_fraction() == Fraction(8, 9)
        with pytest.raises(ValueError):
            nodes[2].lambda_fraction(max_k=1)

    def test_numerator_power_of_two_denominator_power_of_three(self):
        for n in gx.generate_nodes(COLLATZ_FAMILY, max_main_nodes=6):
            lam = n.lambda_fraction()
            num = lam.numerator
            den = lam.denominator
            assert num & (num - 1) == 0          # power of 2
            while den % 3 == 0:
                den //= 3
            assert den == 1

    def test_sides_match_value(self):
        for n in gx.generate_nodes(COLLATZ_FAMILY, max_main_nodes=8):
            if n.side == "PP":
                assert n.value < 1
            else:
                assert n.value > 1

    def test_monotone_approach_to_one(self):
        nodes = gx.generate_nodes(COLLATZ_FAMILY, max_k=16_000)
        last = {"PP": None, "PG": None}
        for n in nodes[2:]:
            lam = n.lambda_fraction()
            prev = last[n.side]
            if prev is not None:
                if n.side == "PP":
                    assert prev < lam < 1
                else:
                    assert 1 < lam < prev
            last[n.side] = lam

    def test_carnielli_family_nodes(self):
        fam = family_for_mapping(gx.carnielli_T(3))
        nodes = gx.generate_nodes(fam, max_nodes=8)
        # seeds 1/3 and 4/3, first product 4/9, then climbing back
        assert nodes[0].value == pytest.approx(1 / 3)
        assert nodes[1].value == pytest.approx(4 / 3)
        assert nodes[2].value == pytest.approx(4 / 9)
        for n in nodes:
            lo, hi = fam.lambda_range()
            assert lambda_in_open_interval(fam, n.k1, n.k2, lo, hi) or n.k == 1

    def test_range_confinement_sample(self):
        for n in gx.generate_nodes(COLLATZ_FAMILY, max_nodes=300):
            assert lambda_in_open_interval(COLLATZ_FAMILY, n.k1, n.k2,
                                           Fraction(1, 2), Fraction(2))


class TestFamilies:
    def test_family_for_mapping(self, g, t31, h):
        assert family_for_mapping(g) is COLLATZ_FAMILY
        assert family_for_mapping(t31) is THREE_X1_FAMILY
        assert family_for_mapping(gx.permutation_variant(1)) is COLLATZ_FAMILY
        assert family_for_mapping(gx.validate(2, t31.branches)) is THREE_X1_FAMILY
        # the Collatz slopes with other offsets: no proven constant
        fam = family_for_mapping(h)
        assert (fam.name, fam.d, fam.m_div, fam.m_grow) == ("perm:3", 3, 2, 4)
        assert fam.constant is None

    def test_family_for_carnielli(self):
        fam = family_for_mapping(gx.carnielli_T(5))
        assert (fam.d, fam.m_div, fam.m_grow) == (5, 1, 6)
        assert fam.constant is None

    def test_matthews_has_no_two_slope_family(self, mat):
        with pytest.raises(ValueError):
            family_for_mapping(mat)

    def test_node_family_selector(self):
        assert gx.node_family("collatz") is COLLATZ_FAMILY
        assert gx.node_family("perm:1") is COLLATZ_FAMILY
        assert gx.node_family("perm:3").constant is None
        assert gx.node_family(THREE_X1_FAMILY) is THREE_X1_FAMILY

    def test_bad_family_shape_rejected(self):
        with pytest.raises(ValueError):
            NodeFamily("bad", 3, 4, 5)


class TestReciprocity:
    def test_published_depths(self):
        ng = gx.generate_nodes(COLLATZ_FAMILY, max_main_nodes=9)
        nt = gx.generate_nodes(THREE_X1_FAMILY, max_main_nodes=10)
        rep = gx.reciprocity_check(ng, nt)
        assert rep.ok
        assert rep.runs_collatz[-1] == 23 and rep.runs_3x1[-1] == 23
        assert rep.runs_3x1 == (1,) + rep.runs_collatz

    def test_seed_half_excluded(self):
        ng = gx.generate_nodes(COLLATZ_FAMILY, max_nodes=5)
        nt = gx.generate_nodes(THREE_X1_FAMILY, max_nodes=6)
        rep = gx.reciprocity_check(ng, nt)
        assert rep.ok
        # the 3x+1 seed PP=1/2 is the one unmatched value
        assert rep.pairs_checked == len(nt) - 1

    def test_mismatch_detected(self):
        ng = gx.generate_nodes(COLLATZ_FAMILY, max_nodes=6)
        rep = gx.reciprocity_check(ng, ng)
        assert not rep.ok


def _fraction_walk(fam, max_nodes, max_k):
    """(k1, k2, side) of the PP/PG walk, each side decided by comparing the
    exact Fraction product with 1; raises ArithmeticError at exactly 1."""
    def side(k1, k2):
        lam = Fraction(fam.m_grow, fam.d) ** k1 * Fraction(fam.m_div, fam.d) ** k2
        if lam == 1:
            raise ArithmeticError("ratio product is exactly 1")
        return "PP" if lam < 1 else "PG"

    out = [(0, 1, side(0, 1)), (1, 0, side(1, 0))]
    last = {"PP": (0, 1), "PG": (1, 0)}
    while len(out) < max_nodes:
        k1, k2 = last["PP"][0] + last["PG"][0], last["PP"][1] + last["PG"][1]
        if k1 + k2 > max_k:
            break
        s = side(k1, k2)
        last[s] = (k1, k2)
        out.append((k1, k2, s))
    return out


_FAMILY_PARAMS = st.integers(2, 7).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(1, d - 1), st.integers(d + 1, 50)))


@given(_FAMILY_PARAMS)
@example((3, 2, 4))     # collatz
@example((2, 1, 4))     # degenerate: 2 * (1/2) = 1
@example((6, 4, 9))     # degenerate: (3/2)^1 * (2/3)^1 = 1
@settings(max_examples=100, deadline=None)
def test_walk_matches_a_fraction_reference(params):
    # the first 40 nodes, as far as k <= 20,000 keeps the fractions small
    fam = NodeFamily("drawn", *params)
    try:
        expected = _fraction_walk(fam, 40, 20_000)
    except ArithmeticError:
        with _deadline(10), pytest.raises(ArithmeticError, match="family is degenerate"):
            gx.generate_nodes(fam, max_nodes=40, max_k=20_000)
        return
    nodes = gx.generate_nodes(fam, max_nodes=40, max_k=20_000)
    assert [(n.k1, n.k2, n.side) for n in nodes] == expected


@st.composite
def _scaled_arguments(draw):
    bits = draw(st.integers(1, 1500))
    q = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    return q, draw(st.integers(0, 300)), draw(st.sampled_from([16, nodes_module._LN_PREC, 256]))


@given(_scaled_arguments())
@example((1, 0, nodes_module._LN_PREC))
@example((1, 300, nodes_module._LN_PREC))
@example(((1 << 1500) - 1, 0, nodes_module._LN_PREC))
@example((3 << 200, 200, 16))
@settings(max_examples=300, deadline=None)
def test_fixed_ln_error_is_within_its_bound(args):
    q, s, prec = args
    ln_q, err = nodes_module._fixed_ln(q, s, prec)
    with mp.workprec(prec + q.bit_length() + 64):
        exact = mp.ldexp(mp.ln(q) - s * mp.ln(2), prec)
        assert abs(mp.mpf(ln_q) - exact) <= err, (q, s, prec)


class TestLnFloat:
    @staticmethod
    def _mpmath_ln_c(constant, q, s):
        # the 128-bit mpmath formula ln C was computed with before the
        # fixed-point log
        from mpmath.libmp import from_man_exp, mpf_add, mpf_log, round_nearest, to_float

        prec, rnd = 128, round_nearest
        with mp.workprec(prec):
            ln_constant = (mp.ln(constant.numerator) - mp.ln(constant.denominator))._mpf_
        ln_q = mpf_log(from_man_exp(q, -s, prec, rnd), prec, rnd)
        return to_float(mpf_add(ln_constant, ln_q, prec, rnd), rnd=rnd)

    @pytest.mark.parametrize("family, constant", [
        (COLLATZ_FAMILY, None), (THREE_X1_FAMILY, None),
        ("carnielli-T:3", Fraction(1, 2)), ("carnielli-T:5", Fraction(1, 2)),
    ], ids=["collatz", "3x1", "carnielli-T:3", "carnielli-T:5"])
    def test_walk_matches_the_mpmath_formula(self, monkeypatch, family, constant):
        ln_float = nodes_module._ln_float
        calls = []

        def recorded(c, q, s):
            calls.append((c, q, s))
            return ln_float(c, q, s)

        monkeypatch.setattr(nodes_module, "_ln_float", recorded)
        nodes = [n for n in gx.generate_nodes(family, max_nodes=10_000, constant=constant)
                 if n.k1]
        assert len(calls) == len(nodes) == 9_999
        for n, (c, q, s) in zip(nodes, calls):
            assert n.ln_c == self._mpmath_ln_c(c, q, s), (n.k1, n.k2)

    def test_low_start_precision_doubles_to_the_same_float(self, monkeypatch):
        fixed_ln = nodes_module._fixed_ln
        precs = []

        def recorded(q, s, prec):
            precs.append(prec)
            return fixed_ln(q, s, prec)

        q, s, constant = 3 ** 200, 300, COLLATZ_CONSTANT
        expected = nodes_module._ln_float(constant, q, s)
        monkeypatch.setattr(nodes_module, "_fixed_ln", recorded)
        assert nodes_module._ln_float(constant, q, s, prec=8) == expected
        assert precs[0] == 8 and max(precs) >= 16
        assert expected == self._mpmath_ln_c(constant, q, s)

    @pytest.mark.parametrize("constant, q, s", [
        (Fraction(1, 2), 2, 0), (Fraction(1, 3), 3 << 40, 40), (Fraction(4), 1, 2),
    ])
    def test_constant_times_q_a_power_of_two_is_exactly_zero(self, monkeypatch,
                                                               constant, q, s):
        def forbidden(*args):
            raise AssertionError("took a log of an exact 1")

        monkeypatch.setattr(nodes_module, "_fixed_ln", forbidden)
        ln_c = nodes_module._ln_float(constant, q, s)
        assert ln_c == 0.0 and math.copysign(1.0, ln_c) == 1.0
