"""Bundled reference data: published node tables and cycle catalogs.

The node tables store the published decimal strings verbatim.  Two deep
rows of the Collatz table carry a lambda_corrected value because exact
integer arithmetic (and the reciprocal rows of the 3x+1 table) shows
their last printed digits are wrong; comparisons use the corrected
value where present.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .nodes import Node

_TABLES = {"collatz": "reference_nodes_collatz.json",
           "3x1": "reference_nodes_3x1.json"}
_CATALOGS = {"collatz": "catalog_collatz.json",
             "3x1": "catalog_3x1.json",
             "matthews": "catalog_matthews.json"}


def _read(name: str):
    with resources.files("gx1cycles.data").joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def load_reference_table(family_name: str) -> dict:
    if family_name not in _TABLES:
        raise ValueError(f"no bundled node table for family {family_name!r}")
    return _read(_TABLES[family_name])


def load_bundled_catalog(name: str) -> dict:
    if name not in _CATALOGS:
        raise ValueError(f"no bundled catalog named {name!r}")
    return _read(_CATALOGS[name])


def catalog_path(name: str):
    """Filesystem path of a bundled catalog file."""
    return resources.files("gx1cycles.data").joinpath(_CATALOGS[name])


def reference_depth(table: dict) -> int:
    return max(row["i"] for row in table["rows"])


@dataclass(frozen=True)
class RowCheck:
    k1: int
    k2: int
    field: str
    expected: object
    got: object
    ok: bool

    def __str__(self):
        mark = "ok  " if self.ok else "FAIL"
        return f"{mark} ({self.k1},{self.k2}) {self.field}: expected {self.expected}, got {self.got}"


def check_nodes_against_reference(nodes: Sequence[Node], table: dict) -> list[RowCheck]:
    """Compare generated nodes with a published table, row by row.

    Every published row must appear among the nodes with matching
    structure (i, j, side, k), lambda within the table's lambda
    tolerance and ln C within its ln C tolerance.
    """
    tol_lam = table.get("lambda_tolerance", 1e-13)
    tol_lnc = table.get("lnc_tolerance", 1e-5)
    by_counts: dict[tuple[int, int], list[Node]] = {}
    for n in nodes:
        by_counts.setdefault((n.k1, n.k2), []).append(n)
    checks: list[RowCheck] = []
    for row in table["rows"]:
        key = (row["k1"], row["k2"])
        candidates = [n for n in by_counts.get(key, []) if n.side == row["side"]]
        if not candidates:
            checks.append(RowCheck(*key, "present", f"{row['side']} node", "missing", False))
            continue
        node = candidates[0]
        for fieldname, expected, got in (("i", row["i"], node.i),
                                         ("j", row["j"], node.j),
                                         ("k", row["k"], node.k)):
            checks.append(RowCheck(*key, fieldname, expected, got, expected == got))
        lam_expected = float(row.get("lambda_corrected") or row["lambda"])
        checks.append(RowCheck(*key, "lambda", lam_expected, node.value,
                               abs(node.value - lam_expected) <= tol_lam))
        if row["ln_C"] is not None:
            expected = float(row["ln_C"])
            got = node.ln_c
            ok = got is not None and abs(got - expected) <= tol_lnc
            checks.append(RowCheck(*key, "ln_C", expected, got, ok))
    return checks
