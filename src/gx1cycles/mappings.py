"""Generalized 3x+1 mappings: definition, validation, iteration, named families.

A mapping is determined by a modulus d >= 2 and one affine branch
(m_i, r_i) per residue class i, acting as x -> (m_i*x - r_i) / d on
every x with x = i (mod d).  The congruence r_i = i*m_i (mod d) makes
the division exact for all integers, so every operation here is exact
integer arithmetic (arbitrary precision).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

DEFAULT_MAX_STEPS = 10**6
DEFAULT_MAX_MAGNITUDE = 10**30


class InvalidMappingError(ValueError):
    """A branch table violates the mapping invariants."""


class CutoffExceededError(RuntimeError):
    """A step or magnitude cutoff stopped a walk: "undecided" (for the
    magnitude cutoff, probable divergence), never a proof of divergence."""

    def __init__(self, message, kind, steps):
        super().__init__(message)
        self.kind = kind          # "steps" or "magnitude"
        self.steps = steps


@dataclass(frozen=True)
class MappingDef:
    """A generalized 3x+1 mapping: modulus d and one (m, r) branch per class."""

    d: int
    branches: tuple[tuple[int, int], ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self):
        _check(self.d, self.branches)
        object.__setattr__(self, "branches", tuple((int(m), int(r)) for m, r in self.branches))

    def apply(self, x: int) -> tuple[int, int]:
        """One step from x; returns (next value, branch index taken)."""
        b = x % self.d
        m, r = self.branches[b]
        return (m * x - r) // self.d, b

    def two_ratio_split(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        """(growth branch indices, division branch indices) for mappings with
        exactly two distinct branch slopes; None otherwise.

        The branches whose slope has the larger absolute value are the
        growth branches (k1), the others the division branches (k2).
        """
        slopes = [abs(Fraction(m, self.d)) for m, _ in self.branches]
        if len(set(slopes)) != 2:
            return None
        large = max(slopes)
        return (tuple(i for i, rat in enumerate(slopes) if rat == large),
                tuple(i for i, rat in enumerate(slopes) if rat != large))

    def to_json(self) -> dict:
        out = {"d": self.d, "branches": [{"m": m, "r": r} for m, r in self.branches]}
        if self.name:
            out["name"] = self.name
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "MappingDef":
        branches = [(json_int(b["m"], "m"), json_int(b["r"], "r")) for b in obj["branches"]]
        name = obj.get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError(f"name must be a string, got {name!r}")
        return validate(json_int(obj["d"], "d"), branches, name=name)

    def __str__(self):
        return self.name or f"mod-{self.d} mapping {list(self.branches)}"


def json_int(value, what: str) -> int:
    """value if it is a JSON integer (an int that is not a bool); a
    ValueError otherwise.  Mapping and catalog files are read with it, so
    that 1.7, true or "12" is refused rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _check(d, branches):
    if d < 2:
        raise InvalidMappingError(f"modulus d must be >= 2, got {d}")
    if len(branches) != d:
        raise InvalidMappingError(f"need exactly {d} branches, got {len(branches)}")
    for i, (m, r) in enumerate(branches):
        if m == 0:
            raise InvalidMappingError(f"branch {i}: multiplier must be non-zero")
        if (r - i * m) % d != 0:
            raise InvalidMappingError(
                f"branch {i}: offset {r} violates r = i*m (mod d) "
                f"({r} != {i}*{m} = {i * m % d} mod {d})")


def validate(d: int, branches: Sequence[tuple[int, int]], name: str | None = None) -> MappingDef:
    """Build a MappingDef, reporting the first violated invariant."""
    return MappingDef(int(d), tuple((int(m), int(r)) for m, r in branches), name=name)


@dataclass(frozen=True)
class Trajectory:
    """An iterated orbit: values[j+1] = step applied to values[j] via branches[j]."""

    mapping: MappingDef
    values: tuple[int, ...]
    branches: tuple[int, ...]

    @property
    def steps(self) -> tuple[tuple[int, int], ...]:
        """(value reached, branch taken) for each application."""
        return tuple(zip(self.values[1:], self.branches))

    @property
    def counts(self) -> BranchCounts:
        """Per-branch usage counts of the walk."""
        return BranchCounts.from_branches(self.mapping, self.branches)


def trajectory(mapping: MappingDef, start: int, steps: int,
               max_magnitude: int | None = DEFAULT_MAX_MAGNITUDE) -> Trajectory:
    """Iterate `steps` times from `start`, recording values and branch indices.

    Raises CutoffExceededError of kind "magnitude" when an iterate
    exceeds max_magnitude in absolute value (undecided / probable
    divergence).
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    values = [start]
    branches = []
    x = start
    for j in range(steps):
        x, b = mapping.apply(x)
        if max_magnitude is not None and abs(x) > max_magnitude:
            raise CutoffExceededError(
                f"|iterate| exceeded {max_magnitude} after {j + 1} steps (undecided)",
                "magnitude", j + 1)
        values.append(x)
        branches.append(b)
    return Trajectory(mapping, tuple(values), tuple(branches))


@dataclass(frozen=True)
class BranchCounts:
    """Per-branch usage counts of a trajectory or cycle.

    For mappings with exactly two distinct branch slopes, k1 counts the
    growth branches (larger slope) and k2 the division branches.
    """

    counts: tuple[int, ...]
    k1: int | None = None
    k2: int | None = None

    @property
    def k(self) -> int:
        return sum(self.counts)

    @classmethod
    def from_branches(cls, mapping: MappingDef, branches: Sequence[int]) -> "BranchCounts":
        counts = [0] * mapping.d
        for b in branches:
            counts[b] += 1
        return cls.from_counts(mapping, counts)

    @classmethod
    def from_counts(cls, mapping: MappingDef, counts: Sequence[int]) -> "BranchCounts":
        if len(counts) != mapping.d:
            raise ValueError(f"need {mapping.d} counts, got {len(counts)}")
        split = mapping.two_ratio_split()
        k1 = k2 = None
        if split is not None:
            grow, div = split
            k1 = sum(counts[i] for i in grow)
            k2 = sum(counts[i] for i in div)
        return cls(tuple(counts), k1, k2)

    def as_pair(self) -> tuple[int, int]:
        if self.k1 is None:
            raise ValueError("counts have no (k1, k2) split: mapping is not two-slope")
        return (self.k1, self.k2)


# --- named families ---------------------------------------------------------

def collatz() -> MappingDef:
    """The original Collatz mapping: 2x/3, (4x-1)/3, (4x+1)/3 on classes 0,1,2."""
    return validate(3, [(2, 0), (4, 1), (4, -1)], name="collatz")


def three_x_plus_one() -> MappingDef:
    """The 3x+1 mapping in compressed form: x/2 on evens, (3x+1)/2 on odds."""
    return validate(2, [(1, 0), (3, -1)], name="3x1")


# The six assignments of the outputs {2n, 4n-3, 4n-1} to the input classes
# {3n, 3n-2, 3n-1}.  Variants 1-4 are the four conventionally displayed
# orderings; 5-6 complete the set in lexicographic order of the assignment.
_PERM_OUTPUTS = (
    # (m, r) of output O applied on input class c: x -> (m*x - r)/3
    ((2, 0), (2, -4), (2, -2)),    # O0 = 2n
    ((4, 9), (4, 1), (4, 5)),      # O1 = 4n-3
    ((4, 3), (4, -5), (4, -1)),    # O2 = 4n-1
)
_PERM_ASSIGNMENTS = (
    (0, 1, 2), (0, 2, 1), (1, 2, 0), (1, 0, 2), (2, 0, 1), (2, 1, 0),
)


def permutation_variant(index: int) -> MappingDef:
    """One of the six permutation mappings on classes mod 3 (1-based index).

    Variant 1 is the original Collatz mapping; variant 3 maps
    x=1 -> (4x+5)/3 and is the one with the 6-cycle <4,7,11,8,6,5>.
    """
    if not 1 <= index <= 6:
        raise ValueError(f"variant index must be in 1..6, got {index}")
    assign = _PERM_ASSIGNMENTS[index - 1]
    branches = [_PERM_OUTPUTS[assign[c]][c] for c in range(3)]
    return validate(3, branches, name=f"perm:{index}")


def carnielli_T(d: int) -> MappingDef:
    """Carnielli's T_d: x/d on class 0, ((d+1)x + d - i)/d on class i >= 1."""
    if d < 2:
        raise InvalidMappingError(f"modulus d must be >= 2, got {d}")
    branches = [(1, 0)] + [(d + 1, -(d - i)) for i in range(1, d)]
    return validate(d, branches, name=f"carnielli-T:{d}")


def carnielli_L(d: int) -> MappingDef:
    """Matthews' generalization of the Lu Pei mapping: x/d on class 0,
    ((d+1)x - i)/d for the class of i, with -d/2 < i <= d/2, i != 0."""
    if d < 2:
        raise InvalidMappingError(f"modulus d must be >= 2, got {d}")
    branches: list[tuple[int, int] | None] = [None] * d
    branches[0] = (1, 0)
    lo = -((d - 1) // 2)
    for i in range(lo, d // 2 + 1):
        if i != 0:
            branches[i % d] = (d + 1, i)
    return validate(d, branches, name=f"carnielli-L:{d}")  # type: ignore[arg-type]


def matthews_4branch() -> MappingDef:
    """Matthews' four-branch mod-4 example with multipliers 1, 3, 5, 17."""
    return validate(4, [(1, 0), (3, 3), (5, 2), (17, 3)], name="matthews")


def mapping_from_name(selector: str) -> MappingDef:
    """Resolve a family selector: collatz | 3x1 | perm:<1-6> |
    carnielli-T:<d> | carnielli-L:<d> | matthews | custom:<file>."""
    named = {"collatz": collatz, "3x1": three_x_plus_one, "matthews": matthews_4branch}
    if selector in named:
        return named[selector]()
    kind, colon, arg = selector.partition(":")
    if colon and kind == "custom":
        return mapping_from_file(arg)
    numbered = {"perm": permutation_variant, "carnielli-T": carnielli_T,
                "carnielli-L": carnielli_L}
    if not colon or kind not in numbered:
        raise ValueError(f"unknown mapping selector: {selector!r}")
    try:
        number = int(arg)
    except ValueError:
        raise ValueError(f"mapping selector {selector!r}: {arg!r} is not an integer") from None
    return numbered[kind](number)


def mapping_from_file(path) -> MappingDef:
    """The mapping a JSON file defines.  InvalidMappingError when the file
    cannot be read, is not JSON, lacks a field or breaks an invariant."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return MappingDef.from_json(json.load(fh))
    except KeyError as exc:
        raise InvalidMappingError(f"mapping file {path} lacks the field {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:    # JSON errors are ValueErrors
        raise InvalidMappingError(f"mapping file {path}: {exc}") from exc
