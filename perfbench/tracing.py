"""Spans around the public entry points of each layer, from outside the program.

`Tracer.installed()` patches each wrapped name where it is looked up
(`canonicalize` is imported by name into `search`, so both `search` and
`cycles` are patched; the CLI imports its library entry points by name,
so they are patched on `gx1cycles.cli`).  Spans stay in memory as
(id, parent, call, name, start, end, attrs) tuples until the pass ends;
`derive` turns them into per-layer metrics, with self time being a span's
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("walk.brent.calls", "count", "lower"),
    ("walk.brent.steps", "count", "lower"),
    ("walk.brent.busy_s", "s", "lower"),
    ("walk.brent.ns_per_step", "ns", "lower"),
    ("walk.brent.us_per_call", "us", "lower"),
    ("walk.tally.calls", "count", "lower"),
    ("walk.tally.steps", "count", "lower"),
    ("walk.tally.busy_s", "s", "lower"),
    ("walk.tally.ns_per_step", "ns", "lower"),
    ("walk.fallbacks", "count", "lower"),
    ("member_table.builds", "count", "lower"),
    ("member_table.busy_s", "s", "lower"),
    ("search.starts", "count", "higher"),
    ("search.discover.busy_s", "s", "lower"),
    ("search.tally.busy_s", "s", "lower"),
    ("search.deferred", "count", "lower"),
    ("search.first_pass_ratio", "ratio", "higher"),
    ("search.self_s", "s", "lower"),
    ("search.alloc_peak_bytes", "B", "lower"),
    ("search.alloc_bytes_per_start", "B", "lower"),
    ("search.threads1_s", "s", "lower"),
    ("search.threads2_s", "s", "lower"),
    ("search.thread_speedup", "ratio", "higher"),
    ("canonicalize.calls", "count", "lower"),
    ("canonicalize.busy_s", "s", "lower"),
    ("oracle.busy_s", "s", "lower"),
    ("oracle.sequences", "count", "lower"),
    ("oracle.ns_per_sequence", "ns", "lower"),
    ("oracle.unit_slope_skipped", "count", "lower"),
    ("oracle.cycles", "count", "higher"),
    ("oracle.canonicalize_calls", "count", "lower"),
    ("oracle.useful_ratio", "ratio", "higher"),
    ("logeval.sign.calls", "count", "lower"),
    ("logeval.sign.busy_s", "s", "lower"),
    ("logeval.tight.calls", "count", "lower"),
    ("logeval.tight.busy_s", "s", "lower"),
    ("logeval.evaluate.calls", "count", "lower"),
    ("logeval.retries", "count", "lower"),
    ("logeval.max_prec_bits", "bit", "lower"),
    ("logeval.exact_one.busy_s", "s", "lower"),
    ("nodes.emitted", "count", "higher"),
    ("nodes.busy_s", "s", "lower"),
    ("nodes.us_per_node", "us", "lower"),
    ("bound.calls", "count", "lower"),
    ("bound.busy_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.engine_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

# ratio metric -> (numerator, denominator) metrics it is derived from
RATIO_BASES = {
    "walk.brent.ns_per_step": ("walk.brent.busy_s", "walk.brent.steps"),
    "walk.brent.us_per_call": ("walk.brent.busy_s", "walk.brent.calls"),
    "walk.tally.ns_per_step": ("walk.tally.busy_s", "walk.tally.steps"),
    "search.first_pass_ratio": ("(search.starts - search.deferred)", "search.starts"),
    "search.alloc_bytes_per_start": ("search.alloc_peak_bytes", "search.starts"),
    "search.thread_speedup": ("search.threads1_s", "search.threads2_s"),
    "oracle.ns_per_sequence": ("oracle.busy_s", "oracle.sequences"),
    "oracle.useful_ratio": ("oracle.cycles", "oracle.canonicalize_calls"),
    "nodes.us_per_node": ("nodes.busy_s", "nodes.emitted"),
    "trace.overhead": ("trace.traced_wall_s", "trace.untraced_wall_s"),
}


def _steps(args, result):
    return {"n": result[1], "backend": getattr(args[0], "backend_name", None)}


def _patch_table(gx):
    """(owner, attribute, span name, attrs(args, result)) for every wrapped name."""
    backend, cli, cycles, nodes, search = gx._backend, gx.cli, gx.cycles, gx.nodes, gx.search
    table = [
        (backend.Engine, "walk_brent", "walk.brent", _steps),
        (backend.Engine, "walk_tally", "walk.tally", _steps),
        (backend.Engine, "member_table", "member_table", None),
        (search, "_discover_block", "search.discover", None),
        (search, "_tally_block", "search.tally", lambda a, r: {"n": len(a[1])}),
        (search, "canonicalize", "canonicalize", None),
        (cycles, "canonicalize", "canonicalize", None),
        (search, "search_range", "search", lambda a, r: {"n": r.range_size}),
        (search, "bound_C", "bound", None),
        (cli, "search_range", "search", lambda a, r: {"n": r.range_size}),
        (cli, "search_node", "search.node", None),
        (cli, "enumerate_cycles_exact", "oracle",
         lambda a, r: {"n": r.meta.get("sequences", 0),
                       "unit_slope": r.meta.get("unit_slope_skipped", 0),
                       "cycles": len(r)}),
        (cli, "generate_nodes", "nodes.generate", lambda a, r: {"n": len(r)}),
        (cli, "bound_C", "bound", None),
        (nodes._LogEvaluator, "sign", "logeval.sign", None),
        (nodes._LogEvaluator, "tight", "logeval.tight", None),
        (nodes._LogEvaluator, "evaluate", "logeval.evaluate", lambda a, r: {"prec": a[0].prec}),
        (nodes, "_is_exact_one", "logeval.exact_one", None),
    ]
    if backend._kernel is not None:
        # a pure walk under a compiled Engine is an OVERFLOW fallback
        table += [(backend._pykernel, "walk_brent", "walk.pure", None),
                  (backend._pykernel, "walk_tally", "walk.pure", None)]
    return table


class Tracer:
    """In-memory span recorder; create it on the thread that makes the CLI calls."""

    def __init__(self):
        self.spans = []
        self.call_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        # pool threads start with an empty stack: their parent is the span
        # the main thread is waiting in
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            sid, parent, stack = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            # list.append is atomic, so pool threads need no lock here
            self.spans.append((sid, parent, self.call_id, name, start, end,
                               attrs(args, result) if attrs else None))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def cli_call(self, call_id):
        """Root span of one CLI call; spans inside it share `call_id`."""
        self.call_id = call_id
        sid, parent, stack = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, call_id, "cli", start, end, None))

    @contextlib.contextmanager
    def installed(self, gx):
        """Patch every wrapped name for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, attrs in _patch_table(gx):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, attrs))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, call, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "call": call,
                                     "name": name, "start": start, "end": end,
                                     "attrs": attrs}) + "\n")


def _covered(start, end, children):
    """Length of [start, end] covered by the union of the children's intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for c_lo, c_hi in sorted((max(c[4], start), min(c[5], end)) for c in children):
        if c_hi <= c_lo:
            continue
        if cur_hi is None or c_lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = c_lo, c_hi
        else:
            cur_hi = max(cur_hi, c_hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _per(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def derive(spans):
    """Per-layer metrics from one pass's spans (0 where a layer did not run)."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append(s)
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    attr_sum = defaultdict(int)
    max_prec = 0
    fallbacks = 0
    oracle_canon = 0
    for s in spans:
        sid, parent, _call, name, start, end, attrs = s
        calls[name] += 1
        busy[name] += end - start
        self_s[name] += end - start - _covered(start, end, children[sid])
        if attrs:
            for key in ("n", "unit_slope", "cycles"):
                attr_sum[name, key] += attrs.get(key, 0)
            max_prec = max(max_prec, attrs.get("prec", 0))
        parent_span = by_id.get(parent)
        if name == "walk.pure" and parent_span and (parent_span[6] or {}).get("backend") == "compiled":
            fallbacks += 1
        if name == "canonicalize" and parent_span and parent_span[3] == "oracle":
            oracle_canon += 1

    m = {}
    for walk in ("brent", "tally"):
        key = f"walk.{walk}"
        m[f"{key}.calls"] = calls[key]
        m[f"{key}.steps"] = attr_sum[key, "n"]
        m[f"{key}.busy_s"] = busy[key]
        m[f"{key}.ns_per_step"] = _per(busy[key], attr_sum[key, "n"], 1e9)
    m["walk.brent.us_per_call"] = _per(busy["walk.brent"], calls["walk.brent"], 1e6)
    m["walk.fallbacks"] = fallbacks
    m["member_table.builds"] = calls["member_table"]
    m["member_table.busy_s"] = busy["member_table"]
    starts = attr_sum["search", "n"]
    deferred = attr_sum["search.tally", "n"]
    m["search.starts"] = starts
    m["search.discover.busy_s"] = busy["search.discover"]
    m["search.tally.busy_s"] = busy["search.tally"]
    m["search.deferred"] = deferred
    m["search.first_pass_ratio"] = _per(starts - deferred, starts)
    m["search.self_s"] = self_s["search"]
    m["canonicalize.calls"] = calls["canonicalize"]
    m["canonicalize.busy_s"] = busy["canonicalize"]
    sequences = attr_sum["oracle", "n"]
    m["oracle.busy_s"] = busy["oracle"]
    m["oracle.sequences"] = sequences
    m["oracle.ns_per_sequence"] = _per(busy["oracle"], sequences, 1e9)
    m["oracle.unit_slope_skipped"] = attr_sum["oracle", "unit_slope"]
    m["oracle.cycles"] = attr_sum["oracle", "cycles"]
    m["oracle.canonicalize_calls"] = oracle_canon
    m["oracle.useful_ratio"] = _per(attr_sum["oracle", "cycles"], oracle_canon)
    for fn in ("sign", "tight"):
        m[f"logeval.{fn}.calls"] = calls[f"logeval.{fn}"]
        m[f"logeval.{fn}.busy_s"] = busy[f"logeval.{fn}"]
    m["logeval.evaluate.calls"] = calls["logeval.evaluate"]
    m["logeval.retries"] = (calls["logeval.evaluate"] - calls["logeval.sign"]
                            - calls["logeval.tight"])
    m["logeval.max_prec_bits"] = max_prec
    m["logeval.exact_one.busy_s"] = busy["logeval.exact_one"]
    emitted = attr_sum["nodes.generate", "n"]
    m["nodes.emitted"] = emitted
    m["nodes.busy_s"] = busy["nodes.generate"]
    m["nodes.us_per_node"] = _per(busy["nodes.generate"], emitted, 1e6)
    m["bound.calls"] = calls["bound"]
    m["bound.busy_s"] = busy["bound"]
    m["cli.self_s"] = self_s["cli"]
    return m
