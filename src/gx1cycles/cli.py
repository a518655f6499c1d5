"""Command-line surface.

Subcommands: nodes, search, search-node, verify, trajectory, oracle,
lambda, bound.  Exit codes: 0 ok, 1 verification failure, 2 usage error.
The precision of the log computations is chosen and raised automatically.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import click

from . import __version__
from .cycles import (BudgetExceededError, enumerate_cycles_exact,
                     load_raw_catalog, verify_catalog)
from .mappings import (DEFAULT_MAX_MAGNITUDE, DEFAULT_MAX_STEPS, MappingDef,
                       MagnitudeCutoff, mapping_from_file, mapping_from_name,
                       trajectory)
from .nodes import (COLLATZ_CONSTANT, COLLATZ_CONSTANT_FROM_8,
                    THREE_X1_CONSTANT, bound_C, generate_nodes, iter_nodes,
                    lambda_exact, ln_lambda, node_family)
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
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"bad constant {text!r}; use p/q or one of "
                               f"{sorted(NAMED_CONSTANTS)}")


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


def _node_family(selector):
    try:
        return node_family(selector)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _resolve_mapping(family, path) -> MappingDef:
    if path and family:
        raise click.UsageError("give either --family or --file, not both")
    if path:
        return mapping_from_file(path)
    if family:
        try:
            return mapping_from_name(family)
        except ValueError as exc:
            raise click.UsageError(str(exc))
    raise click.UsageError("a mapping is required (--family or --file)")


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


_mapping_options = [
    click.option("--family", default=None,
                 help="collatz | 3x1 | perm:<1-6> | carnielli-T:<d> | "
                      "carnielli-L:<d> | matthews | custom:<file>"),
    click.option("--file", "path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="mapping definition JSON"),
]


def mapping_options(fn):
    for opt in reversed(_mapping_options):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Cycle machinery for generalized 3x+1 mappings."""


# --- nodes -------------------------------------------------------------------

def _node_rows(nodes):
    rows = []
    for n in nodes:
        rows.append({"i": n.i, "j": n.j, "side": n.side, "k1": n.k1,
                     "k2": n.k2, "k": n.k,
                     "lambda": _round_to(n.value, 15),
                     "ln_C": _round_to(n.ln_c, 7)})
    return rows


def _rows_to_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(rows[0].keys() if rows else [])
    for row in rows:
        writer.writerow("" if v is None else v for v in row.values())
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
@click.option("--depth", type=int, default=None, help="largest main node index")
@click.option("--max-k", type=int, default=None)
@click.option("--max-nodes", type=click.IntRange(min=0), default=None)
@click.option("--constant", default=None,
              help="bound numerator: p/q or collatz | atkin | 3x1")
@click.option("--format", "fmt", type=click.Choice(["pretty", "json", "csv"]),
              default="pretty")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
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
    fam = _node_family(family)
    constant = _parse_constant(constant)
    if check_paper:
        table = load_reference_table(fam.name)
        nodes_list = generate_nodes(fam, max_main_nodes=reference_depth(table),
                                    constant=constant)
        checks = check_nodes_against_reference(nodes_list, table)
        bad = [c for c in checks if not c.ok]
        for c in checks:
            if not c.ok:
                click.echo(str(c))
        click.echo(f"{len(checks) - len(bad)}/{len(checks)} reference checks passed")
        if bad:
            ctx.exit(1)
        return
    if depth is None and max_k is None and max_nodes is None:
        depth = 7
    nodes_list = generate_nodes(fam, max_main_nodes=depth, max_k=max_k,
                                max_nodes=max_nodes, constant=constant)
    rows = _node_rows(nodes_list)
    if fmt == "json":
        _emit(json.dumps({"family": fam.name, "rows": rows}, indent=1), output)
    elif fmt == "csv":
        _emit(_rows_to_csv(rows), output)
    else:
        _emit(_nodes_pretty(rows), output)


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
        return _rows_to_csv(_cycle_rows(report))
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


@main.command()
@mapping_options
@click.option("--lo", type=int, required=True)
@click.option("--hi", type=int, required=True)
@click.option("--max-steps", type=click.IntRange(min=0), default=DEFAULT_MAX_STEPS,
              show_default=True)
@click.option("--max-magnitude", callback=_parse_bigint, default=str(DEFAULT_MAX_MAGNITUDE),
              show_default=True)
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["pretty", "json", "csv"]),
              default="pretty")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def search(family, path, lo, hi, max_steps, max_magnitude, threads, fmt, output):
    """Search every start in [lo, hi] for cycles."""
    mapping = _resolve_mapping(family, path)
    if lo > hi:
        raise click.UsageError(f"empty range: lo {lo} > hi {hi}")
    report = search_range(mapping, lo, hi, max_steps=max_steps,
                          max_magnitude=max_magnitude, threads=threads)
    _emit(_report_text(report, fmt), output)


@main.command("search-node")
@mapping_options
@click.option("--k1", type=int, required=True)
@click.option("--k2", type=int, required=True)
@click.option("--constant", default=None)
@click.option("--signed", type=click.Choice(["positive", "negative", "both"]),
              default=None, help="range sign (default: family convention)")
@click.option("--max-steps", type=click.IntRange(min=0), default=DEFAULT_MAX_STEPS)
@click.option("--max-magnitude", callback=_parse_bigint, default=str(DEFAULT_MAX_MAGNITUDE))
@click.option("--threads", type=click.IntRange(min=1), default=1)
@click.option("--format", "fmt", type=click.Choice(["pretty", "json", "csv"]),
              default="pretty")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def search_node_cmd(family, path, k1, k2, constant, signed, max_steps,
                    max_magnitude, threads, fmt, output):
    """Search the range allowed by a node's bound C, keeping its cycles.

    (k1, k2) must be a node of the family's PP/PG walk.
    """
    mapping = _resolve_mapping(family, path)
    fam = _node_family(mapping)
    node = None
    for n in iter_nodes(fam, constant=_parse_constant(constant)):
        if (n.k1, n.k2) == (k1, k2):
            node = n
            break
        if n.k > k1 + k2:
            break
    if node is None:
        raise click.UsageError(f"({k1}, {k2}) is not a node of family {fam.name!r}")
    report = search_node(mapping, node, constant=_parse_constant(constant),
                         signed=signed, max_steps=max_steps,
                         max_magnitude=max_magnitude, threads=threads)
    _emit(_report_text(report, fmt), output)


# --- verify ------------------------------------------------------------------

@main.command()
@click.argument("catalog", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def verify(ctx, catalog):
    """Re-walk every cycle of a catalog file; exit 1 on any failure."""
    raw = load_raw_catalog(catalog)
    mapping = MappingDef.from_json(raw["mapping"])
    result = verify_catalog(mapping, raw)
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
@click.option("--format", "fmt", type=click.Choice(["pretty", "json"]), default="pretty")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def trajectory_cmd(family, path, start, steps, max_magnitude, fmt, output):
    """Print a trajectory with branch indices and running (k1, k2)."""
    mapping = _resolve_mapping(family, path)
    try:
        traj = trajectory(mapping, start, steps, max_magnitude=max_magnitude)
    except MagnitudeCutoff as exc:
        raise click.ClickException(str(exc))
    split = mapping.two_ratio_split()
    grow = set(split[0]) if split else set()
    if fmt == "json":
        _emit(json.dumps({"mapping": mapping.to_json(),
                          "values": list(traj.values),
                          "branches": list(traj.branches)}, indent=1), output)
        return
    lines = [" ".join(str(v) for v in traj.values)]
    if split:
        k1 = k2 = 0
        lines.append(f"{'step':>6} {'value':>12} {'branch':>6} {'k1':>5} {'k2':>5}")
        lines.append(f"{0:>6} {traj.values[0]:>12} {'-':>6} {k1:>5} {k2:>5}")
        for j, (value, branch) in enumerate(traj.steps, start=1):
            if branch in grow:
                k1 += 1
            else:
                k2 += 1
            lines.append(f"{j:>6} {value:>12} {branch:>6} {k1:>5} {k2:>5}")
    else:
        counts = [0] * mapping.d
        lines.append(f"{'step':>6} {'value':>12} {'branch':>6}  counts")
        lines.append(f"{0:>6} {traj.values[0]:>12} {'-':>6}  {counts}")
        for j, (value, branch) in enumerate(traj.steps, start=1):
            counts[branch] += 1
            lines.append(f"{j:>6} {value:>12} {branch:>6}  {counts}")
    _emit("\n".join(lines) + "\n", output)


# --- oracle ------------------------------------------------------------------

@main.command()
@mapping_options
@click.option("--max-period", type=click.IntRange(min=0), required=True)
@click.option("--budget", type=int, default=10**7, show_default=True,
              help="largest number of branch sequences to visit: the "
                   "prenecklaces of lengths 1 to --max-period")
@click.option("--format", "fmt", type=click.Choice(["pretty", "json"]), default="json")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
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
    parts = [int(p) for p in text.replace(",", " ").split()]
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


def _fraction_text(mapping, vec, lam):
    try:
        return f"{lam.numerator}/{lam.denominator}"
    except ValueError:    # more digits than int-to-str conversion allows
        uses = {}
        for c, (m, _) in zip(vec, mapping.branches):
            if c:
                uses[m] = uses.get(m, 0) + c
        num = "*".join(f"{m}^{c}" if m > 0 else f"({m})^{c}" for m, c in sorted(uses.items()))
        return f"{num}/{mapping.d}^{sum(vec)}"


@main.command("lambda")
@mapping_options
@click.option("--counts", required=True, help=_COUNTS_HELP)
@click.option("--format", "fmt", type=click.Choice(["pretty", "json"]), default="pretty")
def lambda_cmd(family, path, counts, fmt):
    """Exact branch-ratio product for given usage counts.

    The product is printed as p/q, or, when p or q has more digits than
    Python converts to text, as the unreduced product of powers
    m^c/d^k over the branch multipliers m.
    """
    mapping = _resolve_mapping(family, path)
    vec = _parse_counts(mapping, counts)
    lam = lambda_exact(mapping, vec)
    ln = ln_lambda(mapping, vec)
    try:
        decimal = f"{float(lam):.15f}"
    except OverflowError:
        decimal = None
    payload = {"counts": list(vec), "lambda": _fraction_text(mapping, vec, lam),
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
@click.option("--format", "fmt", type=click.Choice(["pretty", "json"]), default="pretty")
def bound(family, path, counts, constant, fmt):
    """Bound C on the least term of a cycle with the given counts."""
    mapping = _resolve_mapping(family, path)
    vec = _parse_counts(mapping, counts)
    try:
        result = bound_C(mapping, vec, constant=_parse_constant(constant))
    except ValueError as exc:
        raise click.ClickException(str(exc))
    payload = {"C": result.C, "ln_C": _round_to(result.ln_C, 7),
               "constant": str(result.constant), "k_growth": result.k_growth}
    if fmt == "json":
        click.echo(json.dumps(payload, indent=1))
    else:
        click.echo(f"C = {result.C:.6f}   ln C = {result.ln_C:.7f}   "
                   f"constant = {result.constant}   k_growth = {result.k_growth}")


if __name__ == "__main__":
    main()
