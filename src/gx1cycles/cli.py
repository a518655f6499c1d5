"""Command-line surface.

Subcommands: nodes, search, search-node, verify, trajectory, oracle,
lambda, bound.  Exit codes: 0 ok; 1 when verify or nodes --check-paper
finds a failure, oracle goes over --budget, trajectory passes
--max-magnitude or --output cannot be written; 2 usage error.
The precision of the log computations is chosen and raised automatically.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from fractions import Fraction

import click

from . import __version__
from .cycles import (BudgetExceededError, enumerate_cycles_exact,
                     load_raw_catalog, verify_catalog)
from .mappings import (DEFAULT_MAX_MAGNITUDE, DEFAULT_MAX_STEPS,
                       CutoffExceededError, MappingDef, mapping_from_file,
                       mapping_from_name, trajectory)
from .nodes import (COLLATZ_CONSTANT, COLLATZ_CONSTANT_FROM_8,
                    THREE_X1_CONSTANT, _exponents, _nearest_float, _terms, _uses,
                    bound_C, generate_nodes, ln_lambda, node_family)
from .reference import (check_nodes_against_reference, load_reference_table,
                        reference_depth)
from .search import search_node, search_range

NAMED_CONSTANTS = {"collatz": COLLATZ_CONSTANT, "atkin": COLLATZ_CONSTANT_FROM_8,
                   "3x1": THREE_X1_CONSTANT}


def _parse_constant(text):
    if text is None:
        return None
    if text in NAMED_CONSTANTS:
        return NAMED_CONSTANTS[text]
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = 0
    if value <= 0:
        raise click.UsageError(f"bad constant {text!r}; use a positive p/q or one of "
                               f"{sorted(NAMED_CONSTANTS)}")
    return value


def _parse_bigint(_ctx, _param, value):
    if value is None:
        return None
    try:
        cutoff = int(value)
    except ValueError:
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise click.UsageError(f"bad integer {value!r}")
        if frac.denominator != 1:
            raise click.UsageError(f"cutoff must be an integer, got {value!r}")
        cutoff = frac.numerator
    if cutoff < 1:
        raise click.UsageError(f"cutoff must be positive, got {value!r}")
    return cutoff


@contextlib.contextmanager
def _usage_errors():
    """Report a ValueError of the library (a bad input) as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _resolve_mapping(family, path) -> MappingDef:
    if path and family:
        raise click.UsageError("give either --family or --file, not both")
    if not (path or family):
        raise click.UsageError("a mapping is required (--family or --file)")
    with _usage_errors():
        return mapping_from_file(path) if path else mapping_from_name(family)


def _emit(text, output):
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.ClickException(f"cannot write {output}: {exc}")
    else:
        click.echo(text, nl=not text.endswith("\n"))


def _round_to(value, places):
    return None if value is None else float(f"{value:.{places}f}")


def mapping_options(fn):
    fn = click.option("--file", "path", type=click.Path(exists=True, dir_okay=False),
                      default=None, help="mapping definition JSON")(fn)
    return click.option("--family", default=None,
                        help="collatz | 3x1 | perm:<1-6> | carnielli-T:<d> | "
                             "carnielli-L:<d> | matthews | custom:<file>")(fn)


def _format(*choices, default="pretty"):
    return click.option("--format", "fmt", type=click.Choice(choices), default=default)


_output = click.option("--output", type=click.Path(dir_okay=False), default=None)


@click.group()
@click.version_option(__version__)
def main():
    """Cycle machinery for generalized 3x+1 mappings."""


# --- nodes -------------------------------------------------------------------

def _node_floats(n):
    """The rounded lambda and ln C that every node format prints."""
    return _round_to(n.value, 15), _round_to(n.ln_c, 7)


def _node_rows(nodes):
    return [dict(zip(_NODE_COLUMNS, (n.i, n.j, n.side, n.k1, n.k2, n.k, *_node_floats(n))))
            for n in nodes]


def _nodes_json(name, nodes):
    """The text of json.dumps({"family": name, "rows": _node_rows(nodes)},
    indent=1), one f-string per row: floats print as their repr there too."""
    head = f'{{\n "family": {json.dumps(name)},\n "rows": '
    if not nodes:
        return head + "[]\n}"
    rows = []
    for n in nodes:
        lam, ln_c = _node_floats(n)
        ln_c = "null" if ln_c is None else repr(ln_c)
        rows.append(f'  {{\n   "i": {n.i},\n   "j": {n.j},\n   "side": "{n.side}",\n'
                    f'   "k1": {n.k1},\n   "k2": {n.k2},\n   "k": {n.k},\n'
                    f'   "lambda": {lam!r},\n   "ln_C": {ln_c}\n  }}')
    return head + "[\n" + ",\n".join(rows) + "\n ]\n}"


_NODE_COLUMNS = ("i", "j", "side", "k1", "k2", "k", "lambda", "ln_C")
_CYCLE_COLUMNS = ("period", "min", "min_abs", "counts", "hits")


def _rows_to_csv(columns, rows):
    import csv

    buf = io.StringIO()
    writer = csv.DictWriter(buf, columns)    # None is written as ""
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _nodes_pretty(rows):
    lines = [f"{'i':>4} {'j':>4} {'side':>4} {'k1':>7} {'k2':>7} {'k':>7} "
             f"{'lambda':>18} {'ln_C':>12}"]
    for r in rows:
        lnc = "-" if r["ln_C"] is None else f"{r['ln_C']:.7f}"
        lines.append(f"{r['i']:>4} {r['j']:>4} {r['side']:>4} {r['k1']:>7} "
                     f"{r['k2']:>7} {r['k']:>7} {r['lambda']:>18.15f} {lnc:>12}")
    return "\n".join(lines) + "\n"


@main.command()
@click.option("--family", default="collatz",
              help="two-slope family: collatz, 3x1, or a mapping selector")
@click.option("--depth", type=click.IntRange(min=0), default=None,
              help="largest main node index")
@click.option("--max-k", type=click.IntRange(min=0), default=None)
@click.option("--max-nodes", type=click.IntRange(min=0), default=None)
@click.option("--constant", default=None,
              help="bound numerator: p/q or collatz | atkin | 3x1")
@_format("pretty", "json", "csv")
@_output
@click.option("--check-paper", is_flag=True,
              help="check the generated table against the bundled published values")
@click.pass_context
def nodes(ctx, family, depth, max_k, max_nodes, constant, fmt, output, check_paper):
    """Emit the PP/PG node table of a two-slope family.

    The walk starts below/above 1 with the family's two branch ratios
    and repeatedly replaces one side by the product PP*PG; the main
    index advances when the replaced side flips.  Variants 5-6 of the
    permutation families follow the lexicographic completion of the four
    conventional orderings.
    """
    with _usage_errors():
        fam = node_family(family)
    constant = _parse_constant(constant)
    if check_paper:
        with _usage_errors():
            table = load_reference_table(fam.name)
        nodes_list = generate_nodes(fam, max_main_nodes=reference_depth(table),
                                    constant=constant)
        checks = check_nodes_against_reference(nodes_list, table)
        bad = [c for c in checks if not c.ok]
        for c in bad:
            click.echo(str(c))
        click.echo(f"{len(checks) - len(bad)}/{len(checks)} reference checks passed")
        if bad:
            ctx.exit(1)
        return
    if depth is None and max_k is None and max_nodes is None:
        depth = 7
    nodes_list = generate_nodes(fam, max_main_nodes=depth, max_k=max_k,
                                max_nodes=max_nodes, constant=constant)
    if fmt == "json":
        _emit(_nodes_json(fam.name, nodes_list), output)
    elif fmt == "csv":
        _emit(_rows_to_csv(_NODE_COLUMNS, _node_rows(nodes_list)), output)
    else:
        _emit(_nodes_pretty(_node_rows(nodes_list)), output)


# --- search ------------------------------------------------------------------

def _cycle_rows(report):
    rows = []
    for c in report.catalog.cycles:
        rows.append({"period": c.period, "min": c.min_element,
                     "min_abs": c.min_abs_element,
                     "counts": " ".join(map(str, c.counts.counts)),
                     "hits": report.hits.get(c.min_element, 0)})
    return rows


def _report_text(report, fmt):
    if fmt == "json":
        return json.dumps(report.to_json(), indent=1)
    if fmt == "csv":
        return _rows_to_csv(_CYCLE_COLUMNS, _cycle_rows(report))
    lines = [f"searched [{report.lo}, {report.hi}] of {report.mapping} "
             f"(backend: {report.backend})",
             f"tallies: {report.tallies}",
             f"cycles: {len(report.catalog)}"]
    for c in report.catalog.cycles:
        shown = str(c) if c.period <= 16 else (
            "<" + ", ".join(map(str, c.elements[:6])) + ", ...>")
        lines.append(f"  period {c.period:>5}  min {c.min_element:>8}  "
                     f"min|.| {c.min_abs_element:>8}  "
                     f"hits {report.hits.get(c.min_element, 0):>6}  {shown}")
    return "\n".join(lines) + "\n"


_THREADS_HELP = ("accepted for compatibility and ignored: a search runs on "
                 "one thread, so the value has no effect")


@main.command()
@mapping_options
@click.option("--lo", type=int, required=True)
@click.option("--hi", type=int, required=True)
@click.option("--max-steps", type=click.IntRange(min=0), default=DEFAULT_MAX_STEPS,
              show_default=True)
@click.option("--max-magnitude", callback=_parse_bigint, default=str(DEFAULT_MAX_MAGNITUDE),
              show_default=True)
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True,
              help=_THREADS_HELP)
@_format("pretty", "json", "csv")
@_output
def search(family, path, lo, hi, max_steps, max_magnitude, threads, fmt, output):
    """Search every start in [lo, hi] for cycles."""
    mapping = _resolve_mapping(family, path)
    if lo > hi:
        raise click.UsageError(f"empty range: lo {lo} > hi {hi}")
    report = search_range(mapping, lo, hi, max_steps=max_steps,
                          max_magnitude=max_magnitude)
    _emit(_report_text(report, fmt), output)


@main.command("search-node")
@mapping_options
@click.option("--k1", type=int, required=True)
@click.option("--k2", type=int, required=True)
@click.option("--constant", default=None)
@click.option("--signed", type=click.Choice(["positive", "negative", "both"]),
              default=None, help="range sign (default: from the branch offsets)")
@click.option("--max-steps", type=click.IntRange(min=0), default=DEFAULT_MAX_STEPS)
@click.option("--max-magnitude", callback=_parse_bigint, default=str(DEFAULT_MAX_MAGNITUDE))
@_format("pretty", "json", "csv")
@_output
def search_node_cmd(family, path, k1, k2, constant, signed, max_steps,
                    max_magnitude, fmt, output):
    """Search the range allowed by a node's bound C, keeping its cycles.

    (k1, k2) must be a node of the family's PP/PG walk.
    """
    mapping = _resolve_mapping(family, path)
    with _usage_errors():   # no two-slope family, or no bound C: a seed, no constant
        fam = node_family(mapping)
        constant = _parse_constant(constant)
        node = next((n for n in generate_nodes(fam, max_k=k1 + k2, constant=constant)
                     if (n.k1, n.k2) == (k1, k2)), None)
        if node is None:
            raise click.UsageError(f"({k1}, {k2}) is not a node of family {fam.name!r}")
        report = search_node(mapping, node, constant=constant,
                             signed=signed, max_steps=max_steps,
                             max_magnitude=max_magnitude)
    _emit(_report_text(report, fmt), output)


# --- verify ------------------------------------------------------------------

@main.command()
@click.argument("catalog", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def verify(ctx, catalog):
    """Re-walk every cycle of a catalog file; exit 1 on any failure."""
    try:
        raw = load_raw_catalog(catalog)
        result = verify_catalog(MappingDef.from_json(raw["mapping"]), raw)
    except KeyError as exc:
        raise click.UsageError(f"catalog {catalog} lacks the field {exc}")
    except (TypeError, ValueError) as exc:    # JSON errors are ValueErrors
        raise click.UsageError(f"unreadable catalog {catalog}: {exc}")
    for chk in result.checks:
        status = "ok  " if chk.ok else "FAIL"
        click.echo(f"{status} period {chk.period:>5} min {chk.min_element} "
                   f"counts {chk.counts} {'' if chk.ok else chk.message}")
    click.echo(f"{sum(c.ok for c in result.checks)}/{len(result.checks)} cycles verified")
    if not result.ok:
        ctx.exit(1)


# --- trajectory --------------------------------------------------------------

@main.command("trajectory")
@mapping_options
@click.option("--start", type=int, required=True)
@click.option("--steps", type=click.IntRange(min=0), required=True)
@click.option("--max-magnitude", callback=_parse_bigint, default=str(DEFAULT_MAX_MAGNITUDE))
@_format("pretty", "json")
@_output
def trajectory_cmd(family, path, start, steps, max_magnitude, fmt, output):
    """Print a trajectory with branch indices and running (k1, k2)."""
    mapping = _resolve_mapping(family, path)
    try:
        traj = trajectory(mapping, start, steps, max_magnitude=max_magnitude)
    except CutoffExceededError as exc:
        raise click.ClickException(str(exc))
    if fmt == "json":
        _emit(json.dumps({"mapping": mapping.to_json(),
                          "values": list(traj.values),
                          "branches": list(traj.branches)}, indent=1), output)
        return
    split = mapping.two_ratio_split()

    def tally(counts):    # running (k1, k2) on a two-slope mapping, else the counts
        if not split:
            return f" {counts}"
        k1 = sum(counts[b] for b in split[0])
        return f"{k1:>5} {sum(counts) - k1:>5}"

    counts = [0] * mapping.d
    head = f"{'k1':>5} {'k2':>5}" if split else " counts"
    lines = [" ".join(str(v) for v in traj.values),
             f"{'step':>6} {'value':>12} {'branch':>6} {head}",
             f"{0:>6} {traj.values[0]:>12} {'-':>6} {tally(counts)}"]
    for j, (value, branch) in enumerate(traj.steps, start=1):
        counts[branch] += 1
        lines.append(f"{j:>6} {value:>12} {branch:>6} {tally(counts)}")
    _emit("\n".join(lines) + "\n", output)


# --- oracle ------------------------------------------------------------------

@main.command()
@mapping_options
@click.option("--max-period", type=click.IntRange(min=0), required=True)
@click.option("--budget", type=click.IntRange(min=0), default=10**7, show_default=True,
              help="largest number of branch sequences to visit: the "
                   "prenecklaces of lengths 1 to --max-period")
@_format("pretty", "json", default="json")
@_output
def oracle(family, path, max_period, budget, fmt, output):
    """Enumerate all cycles up to a period bound exactly.

    Solves the fixed point of the affine composition of one Lyndon word
    per necklace of branch sequences; the catalog is complete up to
    --max-period apart from unit-slope skips.
    """
    mapping = _resolve_mapping(family, path)
    try:
        catalog = enumerate_cycles_exact(mapping, max_period, budget=budget)
    except BudgetExceededError as exc:
        raise click.ClickException(str(exc))
    if fmt == "json":
        _emit(json.dumps(catalog.to_json(), indent=1), output)
        return
    lines = [f"{len(catalog)} cycles of {mapping} with period <= {max_period} "
             f"({catalog.meta['sequences']} sequences visited, "
             f"{catalog.meta['unit_slope_skipped']} unit-slope Lyndon words "
             f"skipped)"]
    for c in catalog.cycles:
        lines.append(f"  period {c.period:>4}  min {c.min_element:>8}  {c}")
    _emit("\n".join(lines) + "\n", output)


# --- lambda / bound ----------------------------------------------------------

def _parse_counts(mapping, text):
    try:
        parts = [int(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise click.UsageError(f"--counts takes integers, got {text!r}")
    if any(p < 0 for p in parts):
        raise click.UsageError(f"--counts must be >= 0, got {text!r}")
    if len(parts) == mapping.d:
        return tuple(parts)
    if len(parts) == 2 and mapping.two_ratio_split() is not None:
        grow, div = mapping.two_ratio_split()
        counts = [0] * mapping.d
        counts[grow[0]], counts[div[0]] = parts
        return tuple(counts)
    raise click.UsageError(
        f"--counts needs {mapping.d} values (or k1,k2 for a two-slope mapping)")


_COUNTS_HELP = ("one count per branch, branch 0 first, or k1,k2 (growth, "
                "division steps) on a two-slope mapping with more than two "
                "branches; so on 3x1 a,b means a uses of x/2 (k2) and b of "
                "(3x+1)/2 (k1)")


# lambda prints as p/q while p and q have at most 4,300 digits, the default
# of Python's int-to-str limit; decimal prints them whatever that limit is
_LIMIT = 10 ** 4300


def _below_limit(powers):
    """prod q^e over the (q, e) pairs if it is below _LIMIT, else None.

    The product is at least 2^s, s the sum of e*(bit length of q - 1); it
    is built only when s is below the bit length of _LIMIT, so it has
    fewer than twice as many bits as _LIMIT.
    """
    if sum(e * (q.bit_length() - 1) for q, e in powers) >= _LIMIT.bit_length():
        return None
    n = math.prod(q ** e for q, e in powers)
    return n if n < _LIMIT else None


def _lambda_text(mapping, vec):
    """The text of lambda and its nearest float (inf past the float range).

    The text is p/q, decided from exponents over a coprime base, or, when
    p or q is not below _LIMIT, the unreduced product of powers m^c/d^k;
    then the float comes from certified logs, so lambda itself is never
    built.
    """
    from decimal import Decimal

    terms, negative = _terms(mapping.d, _uses(mapping, vec))
    powers = list(_exponents(terms))
    p = _below_limit([(b, e) for b, e in powers if e > 0])
    q = _below_limit([(b, -e) for b, e in powers if e < 0])
    sign = -1 if negative else 1
    if p is not None and q is not None:
        try:
            value = sign * p / q
        except OverflowError:
            value = math.inf
        return f"{Decimal(sign * p)}/{Decimal(q)}", value
    uses = {}
    for c, (m, _) in zip(vec, mapping.branches):
        if c:
            uses[m] = uses.get(m, 0) + c
    num = "*".join(f"{m}^{c}" if m > 0 else f"({m})^{c}" for m, c in sorted(uses.items()))
    return f"{num}/{mapping.d}^{sum(vec)}", sign * _nearest_float(terms)


@main.command("lambda")
@mapping_options
@click.option("--counts", required=True, help=_COUNTS_HELP)
@_format("pretty", "json")
def lambda_cmd(family, path, counts, fmt):
    """Exact branch-ratio product for given usage counts.

    The product is printed as p/q while p and q have at most 4,300
    digits each, and otherwise as the unreduced product of powers
    m^c/d^k over the branch multipliers m.
    """
    mapping = _resolve_mapping(family, path)
    vec = _parse_counts(mapping, counts)
    ln = ln_lambda(mapping, vec)
    text, value = _lambda_text(mapping, vec)
    decimal = None if math.isinf(value) else f"{value:.15f}"
    payload = {"counts": list(vec), "lambda": text,
               "decimal": decimal, "ln_lambda": float(ln.value),
               "negative": ln.negative}
    if fmt == "json":
        click.echo(json.dumps(payload, indent=1))
    else:
        click.echo(f"lambda = {payload['lambda']}"
                   + (f" = {decimal}" if decimal else ""))
        click.echo(f"ln|lambda| = {float(ln.value):.15g} (+/- {float(ln.error_bound):.3g})")


@main.command()
@mapping_options
@click.option("--counts", required=True, help=_COUNTS_HELP)
@click.option("--constant", default=None,
              help="bound numerator: p/q or collatz | atkin | 3x1")
@_format("pretty", "json")
def bound(family, path, counts, constant, fmt):
    """Bound C on the least term of a cycle with the given counts."""
    mapping = _resolve_mapping(family, path)
    vec = _parse_counts(mapping, counts)
    with _usage_errors():
        result = bound_C(mapping, vec, constant=_parse_constant(constant))
    # JSON has no Infinity: a C beyond the float range is null, and ln_C holds it
    payload = {"C": None if math.isinf(result.C) else result.C,
               "ln_C": _round_to(result.ln_C, 7), "constant": str(result.constant),
               "k_growth": result.k_growth}
    if fmt == "json":
        click.echo(json.dumps(payload, indent=1))
    else:
        click.echo(f"C = {result.C:.6f}   ln C = {result.ln_C:.7f}   "
                   f"constant = {result.constant}   k_growth = {result.k_growth}")


if __name__ == "__main__":
    main()
