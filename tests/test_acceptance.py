"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (visible with pytest -s, or on failure)."""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import gx1cycles as gx
from gx1cycles.affine import compose_affine
from gx1cycles.nodes import (COLLATZ_FAMILY, THREE_X1_FAMILY, _run_lengths,
                             lambda_in_open_interval)
from gx1cycles.reference import (check_nodes_against_reference,
                                 load_reference_table, reference_depth)

MATTHEWS_LEAST_TERMS = [
    (0, 1), (-3, 1), (2, 1), (3, 2), (6, 1747), (-18, 2), (-46, 34),
    (-122, 8), (-330, 4), (-117, 4), (-137, 4), (-186, 4), (-513, 1426),
    (-261, 4), (-333, 4), (5127, 14), (-5205, 60),
]


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({description}): PASS")


def _lnc_of(nodes, k1, k2):
    return next(n.ln_c for n in nodes if (n.k1, n.k2) == (k1, k2))


def test_criterion_1_node_tables():
    with criterion(1, "node table reproduction"):
        t0 = time.perf_counter()
        failures = []
        tables = {}
        for family in (COLLATZ_FAMILY, THREE_X1_FAMILY):
            table = load_reference_table(family.name)
            nodes = gx.generate_nodes(family, max_main_nodes=reference_depth(table))
            tables[family.name] = nodes
            failures += [c for c in check_nodes_against_reference(nodes, table)
                         if not c.ok]
        elapsed = time.perf_counter() - t0
        assert not failures, "\n".join(map(str, failures))

        ng, nt = tables["collatz"], tables["3x1"]
        assert _lnc_of(ng, 1, 1) == pytest.approx(0.9067673, abs=1e-5)
        assert _lnc_of(ng, 3, 2) == pytest.approx(2.8207519, abs=1e-5)
        assert _lnc_of(ng, 31, 22) == pytest.approx(8.3733287, abs=1e-5)
        assert _lnc_of(ng, 9126, 6475) == pytest.approx(18.801125, abs=1e-5)
        assert _lnc_of(nt, 1, 1) == pytest.approx(0.3704306, abs=1e-5)
        assert _lnc_of(nt, 7, 4) == pytest.approx(3.7935996, abs=1e-5)
        assert elapsed < 30.0, f"node tables took {elapsed:.1f}s"


def test_criterion_2_cycle_catalogs():
    with criterion(2, "published cycle catalogs from bounded search"):
        g = gx.collatz()
        t31 = gx.three_x_plus_one()
        t0 = time.perf_counter()
        pos = gx.search_range(g, 1, 200, max_steps=10**4)
        neg = gx.search_range(g, -200, 0, max_steps=10**4)
        both = gx.search_range(t31, -150, 150, max_steps=10**4)
        elapsed = time.perf_counter() - t0

        assert pos.catalog.min_elements() == (1, 2, 4, 44)
        mirrored = gx.canonicalize(
            g, [-v for v in (44, 59, 79, 105, 70, 93, 62, 83, 111, 74, 99, 66)])
        assert {c.elements for c in neg.catalog.cycles} == {
            (0,), (-1,), (-3, -2), (-9, -6, -4, -5, -7), mirrored.elements}
        got = {(c.min_abs_element, c.period) for c in both.catalog.cycles}
        assert got == {(0, 1), (-1, 1), (1, 2), (-5, 3), (-17, 11)}
        assert elapsed < 1.0, f"searches took {elapsed:.2f}s"


def test_criterion_3_matthews_17_cycles():
    with criterion(3, "four-branch example: 17 cycles, period-4 ratio product"):
        mat = gx.matthews_4branch()
        t0 = time.perf_counter()
        report = gx.search_range(mat, -6000, 6000, max_steps=10**5)
        elapsed = time.perf_counter() - t0
        got = sorted((c.min_abs_element, c.period) for c in report.catalog.cycles)
        assert got == sorted(MATTHEWS_LEAST_TERMS)
        p4 = [c for c in report.catalog.cycles if c.period == 4]
        assert len(p4) == 6
        for c in p4:
            # the exact slope is (1*3*5*17)/4^4
            assert compose_affine(mat, c.branches).slope == Fraction(255, 256)
            assert c.counts.counts == (1, 1, 1, 1)
        assert elapsed < 60.0, f"search took {elapsed:.1f}s"


def test_criterion_4_variant_3_cycles():
    with criterion(4, "third permutation variant cycles"):
        h = gx.permutation_variant(3)
        six = gx.detect_cycle(h, 8)
        assert six.elements == (4, 7, 11, 8, 6, 5)
        lam = gx.lambda_exact(h, six.counts)
        assert lam == Fraction(512, 729)
        assert abs(float(lam) - 0.70233196159122) <= 1e-13

        long = gx.detect_cycle(h, 144, max_steps=10**5)
        assert long.period == 94
        assert long.min_element == 144
        assert long.counts.as_pair() == (55, 39)
        node = next(n for n in gx.iter_nodes(COLLATZ_FAMILY)
                    if (n.k1, n.k2) == (55, 39))
        assert (node.i, node.j) == (7, 1)


def test_criterion_5_oracle_equivalence():
    with criterion(5, "exact enumeration matches the known cycle set"):
        g = gx.collatz()
        oracle = gx.enumerate_cycles_exact(g, 12)
        assert len(oracle) == 9
        expected_mins = {-111, -9, -3, -1, 0, 1, 2, 4, 44}
        assert set(oracle.min_elements()) == expected_mins

        report = gx.search_range(g, -1000, 1000, max_steps=10**4)
        assert ({c.elements for c in report.catalog.cycles}
                == {c.elements for c in oracle.cycles})


def test_criterion_6_offset_maximum():
    with criterion(6, "offset maximum equals brute force over orderings"):
        g = gx.collatz()
        for k1 in range(7):
            expected = gx.rho_max(k1)
            for k2 in range(7):
                best = Fraction(0)
                for pos in itertools.combinations(range(k1 + k2), k1):
                    for choice in itertools.product((1, 2), repeat=k1):
                        seq = [0] * (k1 + k2)
                        for p, c in zip(pos, choice):
                            seq[p] = c
                        off = abs(compose_affine(g, seq).offset)
                        if off > best:
                            best = off
                assert best == expected, (k1, k2)


def test_criterion_7_lambda_range():
    with criterion(7, "10,000 node values stay strictly inside the ratio range"):
        for family, lo, hi in ((COLLATZ_FAMILY, Fraction(1, 2), Fraction(2)),
                               (THREE_X1_FAMILY, Fraction(1, 3), Fraction(3))):
            nodes = gx.generate_nodes(family, max_nodes=10_000)
            assert len(nodes) == 10_000
            for n in nodes:
                assert lambda_in_open_interval(family, n.k1, n.k2, lo, hi), \
                    (family.name, n.k1, n.k2)


def test_criterion_8_reciprocity():
    with criterion(8, "node reciprocity between the two families"):
        ng = gx.generate_nodes(COLLATZ_FAMILY, max_main_nodes=9)
        nt = gx.generate_nodes(THREE_X1_FAMILY, max_main_nodes=10)
        report = gx.reciprocity_check(ng, nt)
        assert report.ok, report.mismatches
        assert report.pairs_checked == len(nt) - 1
        assert _run_lengths(ng) == (1, 2, 2, 3, 1, 5, 2, 23)
        assert _run_lengths(nt) == (1, 1, 2, 2, 3, 1, 5, 2, 23)
        # every collatz value pairs with its exact reciprocal, sides swapped
        for gnode, tnode in zip(ng, nt[1:]):
            assert (tnode.k1, tnode.k2) == (gnode.k1 + gnode.k2, gnode.k1)
            if gnode.k <= 2000:
                prod = (gnode.lambda_fraction(max_k=10**6)
                        * tnode.lambda_fraction(max_k=10**6))
                assert prod == 1
