"""Exact affine composition of mapping branches.

Following branches s_1..s_k of a mapping sends x to A*x + B with A the
product of the branch slopes m_i/d and B the accumulated offset.  Both
are kept as exact rationals; B is the order-dependent displacement term
of the k-fold iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .mappings import MappingDef


@dataclass(frozen=True)
class AffineMap:
    """x -> slope*x + offset, composed exactly."""

    slope: Fraction
    offset: Fraction

    def __call__(self, x) -> Fraction:
        return self.slope * x + self.offset

    def fixed_point(self) -> Fraction | None:
        """Solution of slope*x + offset = x, or None when slope == 1."""
        if self.slope == 1:
            return None
        return self.offset / (1 - self.slope)


def compose_affine(mapping: MappingDef, branch_sequence: Sequence[int]) -> AffineMap:
    """Exact (slope, offset) of following the given branch indices in order;
    the identity map for an empty sequence."""
    d = mapping.d
    acc_m = 1          # running slope numerator, denominator d**j
    acc_b = 0          # running offset numerator, denominator d**j
    djs = 1            # d**j
    for b in branch_sequence:
        if not 0 <= b < d:
            raise ValueError(f"branch index {b} out of range 0..{d - 1}")
        m, r = mapping.branches[b]
        acc_m, acc_b = m * acc_m, m * acc_b - r * djs
        djs *= d
    return AffineMap(Fraction(acc_m, djs), Fraction(acc_b, djs))
