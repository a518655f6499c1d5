import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gx1cycles as gx
from gx1cycles.affine import AffineMap, compose_affine


def test_single_branch_affine(g):
    a = compose_affine(g, [1])
    assert a.slope == Fraction(4, 3) and a.offset == Fraction(-1, 3)


def test_empty_sequence_is_identity(g):
    a = compose_affine(g, [])
    assert a == AffineMap(Fraction(1), Fraction(0))
    assert a(Fraction(7)) == 7


def test_fields_are_slope_and_offset(g):
    assert [f.name for f in dataclasses.fields(AffineMap)] == ["slope", "offset"]
    assert repr(compose_affine(g, [])) == "AffineMap(slope=Fraction(1, 1), offset=Fraction(0, 1))"


def test_composition_matches_then(g):
    # one branch, then the next; two points fix an affine map, so this
    # compares slope and offset
    seq = [1, 2, 0, 1]
    for x in (Fraction(0), Fraction(1)):
        stepped = x
        for b in seq:
            stepped = compose_affine(g, [b])(stepped)
        assert compose_affine(g, seq)(x) == stepped


def test_offset_maximum_for_two_growth_steps(g):
    # divisions first, then two aligned growth branches: |offset| = 7/9
    best = Fraction(0)
    for k2 in range(4):
        for seq in _sequences(k2, 2):
            off = abs(compose_affine(g, seq).offset)
            best = max(best, off)
    assert best == Fraction(7, 9)


def _sequences(k2, k1):
    """All branch sequences with k2 division steps and k1 growth steps."""
    import itertools

    for positions in itertools.combinations(range(k1 + k2), k1):
        for choices in itertools.product((1, 2), repeat=k1):
            seq = [0] * (k1 + k2)
            for pos, ch in zip(positions, choices):
                seq[pos] = ch
            yield seq


def test_fixed_point(g):
    a = compose_affine(g, [1])          # x -> (4x - 1)/3, fixed point 1
    assert a.fixed_point() == 1
    assert compose_affine(g, []).fixed_point() is None


def test_branch_index_validated(g):
    with pytest.raises(ValueError):
        compose_affine(g, [3])


@given(st.sampled_from(["collatz", "3x1", "perm:3", "matthews", "carnielli-T:5"]),
       st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=0, max_value=12))
@settings(max_examples=150)
def test_affine_consistency_along_trajectories(name, start, steps):
    """Evaluating the composed map at the start equals stepping, exactly."""
    mapping = gx.mapping_from_name(name)
    traj = gx.trajectory(mapping, start, steps, max_magnitude=None)
    a = compose_affine(mapping, traj.branches)
    assert a(Fraction(start)) == traj.values[-1]
