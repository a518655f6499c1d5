"""One pass of a workload in a fresh interpreter.

Reads a request (the plan's calls plus tracing options) as JSON on stdin,
sets up the way a CLI user pays for it, makes the CLI calls in process
and in order, then checks every output.  Prints one JSON line.  Run by
run.py with the repository's `src` on PYTHONPATH; not meant to be run
by hand.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _run_cli(cli, argv):
    """(exit code, stdout text, error) of one in-process CLI call."""
    import click

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main.main(args=argv, prog_name="gx1cycles", standalone_mode=False)
        return (code or 0), out.getvalue(), None
    except click.ClickException as exc:
        return exc.exit_code, out.getvalue(), exc.format_message()
    except Exception:  # a crash of the program under test is a failed call
        return 1, out.getvalue(), traceback.format_exc(limit=5)


def _resolve(call, outputs):
    """The call's argv, with node counts filled in from an earlier output."""
    node_from = call["check"].get("node_from")
    if node_from is None:
        return list(call["argv"])
    source, index = node_from
    row = json.loads(outputs[source])["rows"][index]
    return [a.format(k1=row["k1"], k2=row["k2"]) for a in call["argv"]]


def _timed(cli, argv):
    start = time.perf_counter()
    _run_cli(cli, argv)
    return time.perf_counter() - start


def _search_extras(cli, call):
    """Allocation peak and thread speed-up of the pass's search call, untraced."""
    import tracemalloc

    argv = call["argv"]
    tracemalloc.start()
    try:
        _run_cli(cli, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    extras = {"search.alloc_peak_bytes": peak,
              "search.alloc_bytes_per_start": peak / call["work"]}
    if "--threads" in argv:
        i = argv.index("--threads") + 1
        if int(argv[i]) > 1:
            one = _timed(cli, argv[:i] + ["1"] + argv[i + 1:])
            many = _timed(cli, argv)
            extras.update({"search.threads1_s": one, "search.threads2_s": many,
                           "search.thread_speedup": one / many})
    return extras


def main():
    req = json.load(sys.stdin)
    t0 = time.perf_counter()
    import gx1cycles
    import gx1cycles.cli as cli
    t1 = time.perf_counter()
    from gx1cycles._backend import Engine
    from gx1cycles.mappings import mapping_from_name

    Engine(mapping_from_name(req["setup_family"]))
    t2 = time.perf_counter()
    ready_at = time.monotonic()

    tracer = None
    if req["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    outputs = {}
    calls = []
    with tracer.installed(gx1cycles) if tracer else contextlib.nullcontext():
        for n, call in enumerate(req["calls"]):
            try:
                argv = _resolve(call, outputs)
            except (KeyError, IndexError, ValueError) as exc:
                calls.append({"argv": call["argv"], "wall_s": 0.0, "exit": 1,
                              "error": f"cannot resolve arguments: {exc!r}", "text": ""})
                continue
            start = time.perf_counter()
            with tracer.cli_call(n) if tracer else contextlib.nullcontext():
                code, text, error = _run_cli(cli, argv)
            wall = time.perf_counter() - start
            if call.get("name"):
                outputs[call["name"]] = text
            calls.append({"argv": argv, "wall_s": wall, "exit": code, "error": error,
                          "text": text})
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    layers = None
    if tracer:
        from tracing import derive

        layers = derive(tracer.spans)
        if req.get("spans_path"):
            tracer.write(req["spans_path"])
        search_call = next((c for c in req["calls"] if c.get("name") == "search"), None)
        if search_call:
            layers.update(_search_extras(cli, search_call))

    # imported only now: hashlib alone adds about 4 MB to the peak RSS
    import hashlib

    from checks import check_call

    backends = set()
    for call, result in zip(req["calls"], calls):
        text = result.pop("text")
        if result["exit"] != 0 or result["error"]:
            result["problems"] = [f"exit {result['exit']}: {result['error']}"]
            continue
        result["digest"] = hashlib.sha256(text.encode()).hexdigest()
        result["problems"] = check_call(call["check"], text, outputs, deep=req["deep"])
        if not result["problems"] and call["check"]["kind"] in ("search", "search_node"):
            backends.add(json.loads(text)["backend"])

    print(json.dumps({
        "ready_at": ready_at, "import_s": t1 - t0, "engine_s": t2 - t1,
        "active_backend": gx1cycles.active_backend(),
        "kernel_importable": gx1cycles._backend._kernel is not None,
        "report_backends": sorted(backends),
        "rss_kb": rss_kb, "calls": calls, "layers": layers,
    }))


if __name__ == "__main__":
    main()
