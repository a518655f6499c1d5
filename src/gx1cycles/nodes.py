"""Branch-ratio products near 1: exact lambda, the PP/PG node walk,
offset maxima, and the bound C on a cycle's least term.

For a two-slope family the ratio product after (k1, k2) branch uses is
lambda = (m_grow/d)^k1 * (m_div/d)^k2.  The node walk keeps the running
product just below 1 (PP) and just above 1 (PG) and repeatedly replaces
one side by PP*PG; the emitted pairs (k1, k2) are exactly the counts for
which the least-term bound C peaks.  The walk carries ln lambda as an
integer k1*A + k2*B, where A and B are ln(m/d) scaled by 2^bits and
rounded, and decides each side by integer comparisons against a
certified error bound, doubling bits when that bound is too wide.  So
the walk stays exact even when k grows far beyond anything a hardware
float could separate.  It tests a product for being exactly 1 only when
it cannot settle the product at the current bits: a product equal to 1
never settles, so a degenerate family is still caught at its first such
product.  Each node's ln C is an integer fixed-point logarithm with a
counted error bound, raised in precision until its float is certain (a
Ziv loop), so it is correctly rounded.  The other comparisons against 1
(`sign`, `lambda_in_open_interval`) and the bound C use mpmath
logarithms with a certified error bound; the walk takes its scaled logs
and the exp of its ratio products from mpmath too.  mpmath is imported
inside the functions that use it, so a process that only walks,
searches or enumerates cycles never loads it.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .mappings import BranchCounts, MappingDef, collatz, mapping_from_name, three_x_plus_one

# Working precision every log evaluation starts from; evaluators raise it
# themselves whenever a decision or a tolerance needs more bits.
DEFAULT_PRECISION_BITS = 256

# Precision of the node walk's exp for its ratio products; the quotient
# whose log gives ln C has at least _OUT_PREC + 8 bits.  Both are far finer
# than the certified error of ln lambda (2^-96 absolute, 2^-64 relative).
_OUT_PREC = 128

# Fractional bits at which `_ln_float` first evaluates a logarithm, and
# its reduction tables of ln(1 + j/2^_LN_TABLE_BITS), j = 0..2^_LN_TABLE_BITS,
# by precision: each is built on first use, once per process.
_LN_PREC = 104
_LN_TABLE_BITS = 8
_LN_TABLES: dict[int, tuple[list[int], int]] = {}

# Bound numerators established for the two canonical families; the
# tighter Collatz constant is only valid from least term 8 up.
COLLATZ_CONSTANT = Fraction(7, 24)
COLLATZ_CONSTANT_FROM_8 = Fraction(63, 248)
THREE_X1_CONSTANT = Fraction(5, 12)


def _coprime_base(numbers: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1 of which every number is a product.

    Factor refinement by gcds alone (Bach, Driscoll & Shallit, J.
    Algorithms 15, 1993): a number sharing a factor g > 1 with an element
    q is split, with q, into q/g, g and x/g.  Each split divides the
    product of all pending numbers by g >= 2, so there are at most as
    many splits as that product has bits.
    """
    base: list[int] = []
    todo = list({n for n in numbers if n > 1})
    while todo:
        x = todo.pop()
        for i, q in enumerate(base):
            g = math.gcd(x, q)
            if g > 1:
                del base[i]
                todo.extend(n for n in (q // g, g, x // g) if n > 1)
                break
        else:
            base.append(x)
    return base


def _exponents(terms: Sequence[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """(q, e) over a coprime base of the bases, with prod base^coef ==
    prod q^e.  The q^e with e > 0 multiply to the numerator of the
    reduced product, the q^-e with e < 0 to its denominator."""
    for q in _coprime_base(base for _, base in terms):
        exp = 0
        for coef, base in terms:
            while base % q == 0:
                base //= q
                exp += coef
        yield q, exp


def _is_exact_one(terms: Sequence[tuple[int, int]]) -> bool:
    """Whether prod base^coef == 1 exactly.

    Over a coprime base of the bases the product is 1 exactly when the
    exponent of every base element cancels: moving the negative powers
    to the other side leaves two coprime products, equal only if both
    are 1.
    """
    terms = [(coef, base) for coef, base in terms if coef and base != 1]
    if any(base < 1 for _, base in terms):
        raise ValueError("log-linear form needs positive integer bases")
    return all(exp == 0 for _, exp in _exponents(terms))


class _LogEvaluator:
    """Sum of coef*ln(base) terms with a certified error bound.

    Evaluation starts at DEFAULT_PRECISION_BITS (or the given bits) and
    doubles the working precision until the caller's test on (value,
    error bound) passes: `sign` until the sign is certain, `tight` until
    the error meets fixed tolerances, `ln_lambda` until the error is below
    its target.  Precision only grows.  Nothing is cached: each evaluation
    takes the logarithms afresh at the current precision, and each caller
    reads a base about once per precision.  The node walk does not use it:
    it carries ln lambda as a scaled integer.
    """

    MAX_PREC = 1 << 24

    def __init__(self, prec_bits: int = DEFAULT_PRECISION_BITS):
        self.prec = prec_bits

    def evaluate(self, terms: Sequence[tuple[int, int]]):
        """(value, error_bound) at the current working precision."""
        import mpmath as mp

        with mp.workprec(self.prec):
            total = mp.mpf(0)
            scale = mp.mpf(0)
            for coef, base in terms:
                if coef == 0 or base == 1:
                    continue
                t = coef * mp.ln(base)
                total += t
                scale += abs(t)
            err = scale * mp.mpf(2) ** (5 - self.prec) * (len(terms) + 1)
            return total, err

    def _refine(self, terms: Sequence[tuple[int, int]], done):
        """(value, error_bound) at the first precision, doubling from the
        current one, at which done(value, error_bound) holds."""
        while True:
            value, err = self.evaluate(terms)
            if done(value, err):
                return value, err
            if self.prec >= self.MAX_PREC:
                raise ArithmeticError("log-linear form did not resolve")
            self.prec *= 2

    def sign(self, terms: Sequence[tuple[int, int]]) -> int:
        """Exact sign of sum coef*ln(base); raises precision as needed."""
        if _is_exact_one(terms):
            return 0
        # certain once the error cannot flip the sign
        value, _ = self._refine(terms, lambda value, err: abs(value) > err)
        return 1 if value > 0 else -1

    def tight(self, terms: Sequence[tuple[int, int]]):
        """Value with error below 2^-96 absolute and 2^-64 relative."""
        return self._refine(terms, _within_tolerance)[0]


def _within_tolerance(value, err) -> bool:
    """The stop condition of `tight`: error below 2^-96 absolute and
    2^-64 relative."""
    import mpmath as mp

    return err <= mp.mpf(2) ** -96 and (
        value == 0 or err <= abs(value) * mp.mpf(2) ** -64)


class LnLambda(NamedTuple):
    value: "mpmath.mpf"
    error_bound: "mpmath.mpf"
    negative: bool   # true when the exact ratio product is negative


def _uses(family, counts) -> list[tuple[int, int]]:
    """(count, multiplier) pairs of a ratio product: (k1, k2) for a
    NodeFamily, one count per branch (a BranchCounts or a sequence) for a
    MappingDef.  A negative count raises ValueError."""
    if isinstance(family, NodeFamily):
        k1, k2 = counts.as_pair() if isinstance(counts, BranchCounts) else map(int, counts)
        uses = [(k1, family.m_grow), (k2, family.m_div)]
    else:
        vec = counts.counts if isinstance(counts, BranchCounts) else tuple(counts)
        if len(vec) != family.d:
            raise ValueError(f"need {family.d} counts, got {len(vec)}")
        uses = [(c, m) for c, (m, _) in zip(vec, family.branches)]
    if any(c < 0 for c, _ in uses):
        raise ValueError(f"usage counts must be >= 0, got {[c for c, _ in uses]}")
    return uses


def _terms(d: int, uses) -> tuple[list[tuple[int, int]], bool]:
    """coef*ln(base) terms of prod (m/d)^c over the uses, and whether the
    product is negative."""
    terms = [(c, abs(m)) for c, m in uses if c]
    terms.append((-sum(c for c, _ in uses), d))
    return terms, sum(c for c, m in uses if m < 0) % 2 == 1


def lambda_exact(mapping, counts) -> Fraction:
    """Exact reduced branch-ratio product for the given usage counts."""
    lam = Fraction(1)
    for c, m in _uses(mapping, counts):
        lam *= Fraction(m, mapping.d) ** c
    return lam


def ln_lambda(mapping: MappingDef, counts) -> LnLambda:
    """High-precision ln of |lambda| with a certified error bound.

    The bound is kept below 2^-248.  Negative multipliers make lambda
    signed; the log applies to |lambda| and the flag is set (with a
    warning), since the bound theory assumes positive branch ratios.
    """
    import mpmath as mp

    terms, negative = _terms(mapping.d, _uses(mapping, counts))
    if negative:
        warnings.warn("negative multiplier: ln applies to |lambda|", stacklevel=2)
    if _is_exact_one(terms):
        return LnLambda(mp.mpf(0), mp.mpf(0), negative)
    target = mp.mpf(2) ** (8 - DEFAULT_PRECISION_BITS)     # 2^-248
    value, err = _LogEvaluator(DEFAULT_PRECISION_BITS + 16)._refine(
        terms, lambda _, err: err <= target)
    return LnLambda(value, err, negative)


def _nearest_float(terms: Sequence[tuple[int, int]]) -> float:
    """The float nearest prod base^coef (inf past the float range), from
    logs refined until both ends of their certified interval round alike.

    That settles unless the product is a rounding edge: a midpoint of two
    floats, the edge of the float range, or, since mpmath rounds a
    subnormal result twice (to 53 bits, then to the subnormal), a
    53-bit midpoint below 2^-1022, where the result can be one ulp off.
    Every such edge is p/q with p and q below 2^1200.
    """
    import mpmath as mp

    ev = _LogEvaluator()

    def rounded(value, err):    # 2*err also covers the error of exp itself
        with mp.workprec(ev.prec):
            return {float(mp.exp(value - 2 * err)), float(mp.exp(value + 2 * err))}

    value, err = ev._refine(terms, lambda value, err: len(rounded(value, err)) == 1)
    return rounded(value, err).pop()


def rho_max(k1: int) -> Fraction:
    """Largest |offset| over all orderings of k1 growth branches and any
    number of division branches of the Collatz-type family."""
    if k1 < 0:
        raise ValueError("k1 must be >= 0")
    return Fraction(4 ** k1 - 3 ** k1, 3 ** k1)


@dataclass(frozen=True)
class NodeFamily:
    """A two-slope analysis family: ratios m_div/d < 1 < m_grow/d."""

    name: str
    d: int
    m_div: int
    m_grow: int
    constant: Fraction | None = None

    def __post_init__(self):
        if not 0 < self.m_div < self.d < self.m_grow:
            raise ValueError(
                f"need 0 < m_div < d < m_grow, got ({self.m_div}, {self.d}, {self.m_grow})")

    def lambda_range(self) -> tuple[Fraction, Fraction]:
        """Open interval confining every ratio product the node walk visits:
        (m_div/d) / (m_grow/d) to its reciprocal."""
        return (Fraction(self.m_div, self.m_grow), Fraction(self.m_grow, self.m_div))

    def terms(self, k1: int, k2: int) -> list[tuple[int, int]]:
        return _terms(self.d, _uses(self, (k1, k2)))[0]


COLLATZ_FAMILY = NodeFamily("collatz", 3, 2, 4, COLLATZ_CONSTANT)
THREE_X1_FAMILY = NodeFamily("3x1", 2, 1, 3, THREE_X1_CONSTANT)

# The mappings the paper's constants were proven for.  MappingDef equality
# compares d and the branches, not the name, so a copy matches too.
_PROVEN_FAMILIES = {collatz(): COLLATZ_FAMILY, three_x_plus_one(): THREE_X1_FAMILY}


def family_for_mapping(mapping: MappingDef) -> NodeFamily:
    """The two-slope analysis family of a mapping.

    A paper constant depends on the branch offsets, not only on the
    slopes, so only the Collatz and 3x+1 mappings, and mappings equal to
    them such as perm:1, get COLLATZ_FAMILY or THREE_X1_FAMILY.  Every
    other two-slope mapping (perm:2-6 too) gets the family of its slopes,
    named after it and without a default bound constant.
    """
    known = _PROVEN_FAMILIES.get(mapping)
    if known is not None:
        return known
    split = mapping.two_ratio_split()
    if split is None:
        raise ValueError(f"{mapping} does not have exactly two distinct branch slopes")
    grow, div = split
    m_grow = mapping.branches[grow[0]][0]
    m_div = mapping.branches[div[0]][0]
    if m_grow < 0 or m_div < 0:
        raise ValueError("two-slope analysis requires positive multipliers")
    return NodeFamily(mapping.name or f"two-slope mod {mapping.d}",
                      mapping.d, m_div, m_grow, None)


def node_family(selector) -> NodeFamily:
    """Resolve a NodeFamily from a name, NodeFamily or MappingDef."""
    if isinstance(selector, NodeFamily):
        return selector
    if isinstance(selector, MappingDef):
        return family_for_mapping(selector)
    return family_for_mapping(mapping_from_name(selector))


@dataclass(frozen=True)
class BoundResult:
    """The bound C on the least term of any cycle with the given counts."""

    C: float
    ln_C: float
    constant: Fraction
    k_growth: int


def bound_C(family, counts, constant=None) -> BoundResult:
    """C = constant / ((1/k_growth) * |ln lambda|).

    `family` is a NodeFamily or a family name, with counts (k1, k2), or
    a MappingDef, with one count per branch (as for lambda_exact).
    k_growth is k1 for a family, the count of the growth branches for a
    two-slope mapping and the total count outside residue class 0 for a
    generalized one.  The default constant is the family's; for a mapping
    it is that of `family_for_mapping`, so only the Collatz and 3x+1
    mappings (and mappings equal to them) have one, and every other
    mapping needs an explicit constant.  Undefined when lambda = 1, when
    no growth branch was used or when constant <= 0.
    """
    fam = family if isinstance(family, MappingDef) else node_family(family)
    uses = _uses(fam, counts)
    if isinstance(fam, MappingDef):
        split = fam.two_ratio_split()
        grow = range(1, fam.d) if split is None else split[0]
        k_growth = sum(uses[i][0] for i in grow)
        default = None if split is None else family_for_mapping(fam).constant
    else:
        k_growth, default = uses[0][0], fam.constant
    if constant is None:
        constant = default
    if constant is None:
        raise ValueError(f"{fam.name or fam} has no default bound constant; "
                         "give an explicit one")
    terms, negative = _terms(fam.d, uses)
    constant = _positive(constant)
    if negative:
        warnings.warn("negative multiplier: bound applies to |lambda|", stacklevel=2)
    if k_growth <= 0:
        raise ValueError("bound undefined without growth-branch uses (k_growth = 0)")
    if _is_exact_one(terms):
        raise ValueError("bound undefined for lambda exactly 1")
    import mpmath as mp

    ev = _LogEvaluator()
    value = ev.tight(terms)
    with mp.workprec(ev.prec):
        C = mp.mpf(constant.numerator) / constant.denominator * k_growth / abs(value)
        return BoundResult(float(C), float(mp.ln(C)), constant, k_growth)


def _positive(constant) -> Fraction:
    constant = Fraction(constant)
    if constant <= 0:
        raise ValueError(f"bound constant must be positive, got {constant}")
    return constant


@dataclass(frozen=True)
class Node:
    """One emitted maximum of the PP/PG walk: N_{i,j} on one side."""

    family: NodeFamily
    i: int
    j: int
    side: str                # "PP" (below 1) or "PG" (above 1)
    k1: int
    k2: int
    value: float             # the ratio product, correctly rounded
    ln_c: float | None       # None for the seed with k1 = 0

    @property
    def k(self) -> int:
        return self.k1 + self.k2

    @property
    def label(self) -> str:
        return f"N_{{{self.i},{self.j}}}"

    def lambda_fraction(self, max_k: int = 200_000) -> Fraction:
        """Exact ratio product; guarded because digits grow linearly in k."""
        if self.k > max_k:
            raise ValueError(f"k = {self.k} too deep for an explicit fraction")
        return lambda_exact(self.family, (self.k1, self.k2))


def _ln_table(prec: int) -> tuple[list[int], int]:
    """(entries, bound): entry j is below 2^prec * ln(1 + j/2^t) by at
    most bound units, for t = _LN_TABLE_BITS and j = 0..2^t, so the last
    entry is ln 2.

    Built once per precision, at w = prec + 16 bits, as a running sum of
    ln((n + 1)/(n - 1)) = 2 atanh(1/n) for n = 2^(t+1) + 2j + 1.  The
    terms floor(2^w / n^i), i odd, are exact floors of one another, so
    the K nonzero ones, each divided by i with a floor, and the tail
    below the last lose less than 2K + 1 units: 4K + 2 after doubling.
    """
    cached = _LN_TABLES.get(prec)
    if cached is not None:
        return cached
    guard = 16
    one, size = 1 << (prec + guard), 1 << _LN_TABLE_BITS
    total = lost = 0
    entries = [0]
    for n in range(2 * size + 1, 4 * size, 2):
        n2, p, i, step = n * n, one // n, 1, 0
        while p:
            step += p // i
            p //= n2
            i += 2
        total += 2 * step
        lost += 2 * i              # 4K + 2, with i = 2K + 1
        entries.append(total >> guard)
    cached = _LN_TABLES[prec] = (entries, (lost >> guard) + 2)
    return cached


def _fixed_ln(q: int, s: int, prec: int) -> tuple[int, int]:
    """(L, E) with |L - 2^prec * ln(q * 2^-s)| <= E, for an integer q >= 1.

    Let h be q with all but its top t + 1 bits cleared, t = _LN_TABLE_BITS.
    Then q * 2^-s = 2^e * (1 + j/2^t) * (1 + y)/(1 - y) for the table
    index j of h and y = (q - h)/(q + h) < 2^-(t+1), so ln(q * 2^-s) =
    e ln 2 + ln(1 + j/2^t) + 2 atanh(y).  atanh(y) is summed as y^i/i in
    fixed point: Y = floor(2^prec * y), Z = floor(Y^2 / 2^prec) and each
    power floor(p * Z / 2^prec) is below 2^prec * y^i by less than 2
    units.  E counts 4K for the K terms summed (the last one 0) and
    |e| + 1 table bounds.
    """
    entries, bound = _ln_table(prec)
    t = _LN_TABLE_BITS
    n = q.bit_length()
    if n <= t:
        q, s, n = q << (t + 1 - n), s + t + 1 - n, t + 1
    shift = n - 1 - t
    top = q >> shift
    h = top << shift
    y = ((q - h) << prec) // (q + h)
    z = y * y >> prec
    total, p, i = y, y, 1
    while p:
        p = p * z >> prec
        i += 2
        total += p // i
    e = n - 1 - s
    return (e * entries[-1] + entries[top - (1 << t)] + 2 * total,
            2 * (i + 1) + (abs(e) + 1) * bound)     # 4K = 2(i + 1)


def _ln_float(constant: Fraction, q: int, s: int, prec: int = _LN_PREC) -> float:
    """ln(constant * q * 2^-s), correctly rounded, for an integer q >= 1.

    The one rational case, constant * q = 2^s, is exactly 0.0.  Otherwise
    the log is transcendental, so at enough bits L - E and L + E, the
    ends of the interval that holds 2^prec times it, lie within one
    rounding interval: their correctly rounded quotients by 2^prec (int
    true division) agree, and by monotone rounding so does the log's.
    Until they do, prec doubles (Ziv, ACM TOMS 17, 1991).  The log is
    taken of floor(num * q * 2^shift / den), which has prec + 64 or 65
    bits, so it is less than 2^-63 units low: E counts one more.
    """
    num, den = constant.numerator, constant.denominator
    x = num * q
    if x == den << s:
        return 0.0
    while True:
        shift = prec + 64 + den.bit_length() - x.bit_length()
        scaled = (x << shift if shift >= 0 else x >> -shift) // den
        ln_x, err = _fixed_ln(scaled, s + shift, prec)
        err += 1
        low = (ln_x - err) / (1 << prec)
        if low == (ln_x + err) / (1 << prec):
            return low
        if prec >= _LogEvaluator.MAX_PREC:
            raise ArithmeticError("ln C did not resolve")
        prec *= 2


def _scaled_logs(fam: NodeFamily, bits: int) -> tuple[int, int]:
    """(A, B) = round(2^bits * ln(m/d)) for m = m_grow and m = m_div.

    Evaluated at bits + 32 bits, so each is within one unit of the exact
    scaled log: half a unit of rounding plus far less of evaluation error.
    """
    import mpmath as mp

    with mp.workprec(bits + 32):
        ln_d = mp.ln(fam.d)
        return tuple(int(mp.nint(mp.ldexp(mp.ln(m) - ln_d, bits)))
                     for m in (fam.m_grow, fam.m_div))


def iter_nodes(family, constant=None) -> Iterator[Node]:
    """The PP/PG walk: seeds first, then one node per product, forever.

    Each product PP*PG replaces the side it lands on; the main index i
    advances when the replaced side flips, j counts within a run.  Both
    seeds carry the label N_{1,1}.  A constant <= 0 raises ValueError.

    ln lambda is carried as an integer r = k1*A + k2*B in units of
    2^-bits, with A and B from `_scaled_logs`.  Each of them is within
    one unit of its exact scaled log, so r is within k1 + k2 < err =
    k1 + k2 + 1 units of 2^bits * ln lambda.  A product is settled when
    |r| > err (its side is certain) and err is within `tight`'s
    tolerances: err <= 2^(bits-96), i.e. 2^-96 absolute, and
    err * 2^64 <= |r|, i.e. 2^-64 relative.  Otherwise the product is
    tested for being exactly 1 (ArithmeticError: the family is
    degenerate), then bits doubles and A and B are recomputed; bits only
    grows.  Testing there alone is enough: a product equal to 1 has
    |r| <= k1 + k2 < err at every precision, so it never settles and
    meets the test on its first pass.

    ln C = ln(constant * k1 * 2^bits / |r|) is the correctly rounded float
    of ln(constant * q * 2^-s) from `_ln_float`, an integer fixed-point
    log in a Ziv loop, where q = (k1 << (bits + s)) // |r| has at least
    _OUT_PREC + 8 bits; C itself is never formed.  The ratio product is
    exp(r * 2^-bits), rounded from an _OUT_PREC-bit mpmath value, except
    when |r| + err < 2^(bits-56): then |ln lambda| < 2^-56, so lambda
    lies strictly between the rounding midpoints 1 - 2^-54 and 1 + 2^-53
    and its correctly rounded float is 1.0.  So mpmath is left for
    `_scaled_logs` and that exp; `_LogEvaluator` is never called.
    """
    # measure works on raw mpmath.libmp values: the mpf wrappers would cost
    # more than the arithmetic
    from mpmath.libmp import from_man_exp, mpf_exp, round_nearest, to_float

    prec, rnd = _OUT_PREC, round_nearest
    fam = node_family(family)
    constant = fam.constant if constant is None else _positive(constant)
    bits = DEFAULT_PRECISION_BITS
    a, b = _scaled_logs(fam, bits)

    def measure(k1: int, k2: int) -> tuple[str, float, float | None]:
        """(side, ratio product, ln C) of the counts (k1, k2)."""
        nonlocal bits, a, b
        err = k1 + k2 + 1
        while True:
            r = k1 * a + k2 * b
            if abs(r) > err and err <= 1 << (bits - 96) and err << 64 <= abs(r):
                break
            if _is_exact_one(fam.terms(k1, k2)):
                raise ArithmeticError("ratio product hit exactly 1; family is degenerate")
            if bits >= _LogEvaluator.MAX_PREC:
                raise ArithmeticError("log-linear form did not resolve")
            bits *= 2
            a, b = _scaled_logs(fam, bits)
        abs_r = abs(r)
        if abs_r + err < 1 << (bits - 56):
            lam = 1.0
        else:
            lam = to_float(mpf_exp(from_man_exp(r, -bits, prec, rnd), prec, rnd), rnd=rnd)
        ln_c = None
        if k1 and constant is not None:
            s = max(0, prec + 8 + abs_r.bit_length() - k1.bit_length() - bits)
            ln_c = _ln_float(constant, (k1 << (bits + s)) // abs_r, s)
        return ("PP" if r < 0 else "PG"), lam, ln_c

    pp, pg = (0, 1), (1, 0)
    for k1, k2 in (pp, pg):
        side, lam, ln_c = measure(k1, k2)
        yield Node(fam, 1, 1, side, k1, k2, lam, ln_c)

    i, j, prev_side = 1, 1, None
    while True:
        k1, k2 = pp[0] + pg[0], pp[1] + pg[1]
        side, lam, ln_c = measure(k1, k2)
        if side == "PP":
            pp = (k1, k2)
        else:
            pg = (k1, k2)
        if side != prev_side:
            i, j = i + 1, 1
            prev_side = side
        else:
            j += 1
        yield Node(fam, i, j, side, k1, k2, lam, ln_c)


def generate_nodes(family, max_main_nodes: int | None = None,
                   max_k: int | None = None, max_nodes: int | None = None,
                   constant=None) -> list[Node]:
    """Nodes of the PP/PG walk up to a stop condition.

    max_main_nodes bounds the main index of emitted products (the two
    seeds are always included, so 0 gives seeds only); max_k bounds
    k1+k2; max_nodes bounds the total count.
    """
    if max_main_nodes is None and max_k is None and max_nodes is None:
        raise ValueError("need a stop condition (max_main_nodes, max_k or max_nodes)")
    out: list[Node] = []
    for node in itertools.islice(iter_nodes(family, constant=constant), max_nodes):
        if node.i > 1 and max_main_nodes is not None and node.i > max_main_nodes:
            break
        if max_k is not None and node.k > max_k:
            break
        out.append(node)
    return out


def lambda_in_open_interval(family, k1: int, k2: int, lo, hi) -> bool:
    """Exact strict containment of the ratio product in (lo, hi).

    Decided by adaptive-precision log comparisons, so it works for k far
    beyond what explicit fractions or floats could separate.
    """
    fam = node_family(family)
    base = fam.terms(k1, k2)
    lo, hi = Fraction(lo), Fraction(hi)
    ev = _LogEvaluator()
    above_lo = ev.sign(base + [(-1, lo.numerator), (1, lo.denominator)])
    below_hi = ev.sign(base + [(-1, hi.numerator), (1, hi.denominator)])
    return above_lo > 0 and below_hi < 0


@dataclass(frozen=True)
class ReciprocityReport:
    """Alignment of the 3x+1 node stream with the Collatz node stream."""

    pairs_checked: int
    mismatches: tuple[str, ...]
    runs_collatz: tuple[int, ...]
    runs_3x1: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _run_lengths(nodes: Iterable[Node]) -> tuple[int, ...]:
    runs: list[int] = []
    prev_i = None
    for n in nodes:
        if n.i == 1:    # seeds
            continue
        if n.i != prev_i:
            runs.append(1)
            prev_i = n.i
        else:
            runs[-1] += 1
    return tuple(runs)


def reciprocity_check(nodes_g: Sequence[Node], nodes_t: Sequence[Node]) -> ReciprocityReport:
    """Verify each 3x+1 node is the exact reciprocal of a Collatz node.

    The Collatz value for counts (k1, k2) is 2^(2k1+k2)/3^(k1+k2) and the
    3x+1 value for (k1', k2') is 3^k1'/2^(k1'+k2'), so exact reciprocity
    is the count identity (k1', k2') = (k1+k2, k1).  The 3x+1 stream must
    equal the mapped Collatz stream (sides swapped) shifted by one: only
    the 3x+1 seed 1/2 has no counterpart.
    """
    mismatches: list[str] = []
    if not nodes_t or (nodes_t[0].k1, nodes_t[0].k2) != (0, 1):
        mismatches.append("3x+1 stream does not start with the seed 1/2")
        return ReciprocityReport(0, tuple(mismatches), (), ())
    tail_t = nodes_t[1:]
    pairs = min(len(nodes_g), len(tail_t))
    for idx in range(pairs):
        g, t = nodes_g[idx], tail_t[idx]
        expect = (g.k1 + g.k2, g.k1)
        if (t.k1, t.k2) != expect:
            mismatches.append(
                f"position {idx}: counts {(t.k1, t.k2)} != {expect} from {(g.k1, g.k2)}")
        if {g.side, t.side} != {"PP", "PG"}:
            mismatches.append(f"position {idx}: sides {g.side}/{t.side} not swapped")
        if g.value and abs(t.value * g.value - 1.0) > 1e-12:
            mismatches.append(f"position {idx}: values {t.value} and {g.value} "
                              "are not reciprocal")
    runs_g = _run_lengths(nodes_g)
    runs_t = _run_lengths(tail_t)
    common = min(len(runs_g), len(runs_t)) - 1
    if common > 0 and runs_g[:common] != runs_t[1:common + 1]:
        mismatches.append(f"run structure differs: {runs_g[:common]} vs "
                          f"{runs_t[1:common + 1]} (offset by one)")
    return ReciprocityReport(pairs, tuple(mismatches), runs_g, runs_t)
