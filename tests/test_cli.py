import csv
import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import gx1cycles as gx
from gx1cycles.cli import _node_rows, main
from gx1cycles.reference import catalog_path


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


class TestNodes:
    def test_depth_7_contains_deep_row(self, runner):
        res = invoke(runner, "nodes", "--family", "collatz", "--depth", "7",
                     "--format", "csv")
        assert res.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(res.output)))
        row = next(r for r in rows if (r["k1"], r["k2"]) == ("31", "22"))
        assert row["k"] == "53"
        assert abs(float(row["ln_C"]) - 8.3733287) < 1e-5

    def test_3x1_depth_7(self, runner):
        res = invoke(runner, "nodes", "--family", "3x1", "--depth", "7",
                     "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(res.output)))
        row = next(r for r in rows if (r["k1"], r["k2"]) == ("53", "31"))
        assert row["k"] == "84"
        assert abs(float(row["ln_C"]) - 9.2663084) < 1e-5

    def test_depth_0_seeds_only(self, runner):
        res = invoke(runner, "nodes", "--family", "collatz", "--depth", "0",
                     "--format", "json")
        rows = json.loads(res.output)["rows"]
        assert [(r["k1"], r["k2"]) for r in rows] == [(0, 1), (1, 0)]

    def test_variant_without_a_proven_constant_has_no_ln_c(self, runner):
        # perm:3 has the Collatz slopes but not its offsets; perm:1 is collatz
        for family, name, has_ln_c in (("perm:3", "perm:3", False),
                                       ("perm:1", "collatz", True)):
            res = invoke(runner, "nodes", "--family", family, "--depth", "3",
                         "--format", "json")
            obj = json.loads(res.output)
            assert obj["family"] == name
            # row 0 is the seed with k1 = 0, which never has one
            assert all((r["ln_C"] is not None) == has_ln_c for r in obj["rows"][1:])

    def test_check_paper_both_families(self, runner):
        for family in ("collatz", "3x1"):
            res = invoke(runner, "nodes", "--family", family, "--check-paper")
            assert res.exit_code == 0, res.output
            assert "reference checks passed" in res.output

    def test_json_csv_numeric_parity(self, runner):
        js = invoke(runner, "nodes", "--family", "collatz", "--depth", "6",
                    "--format", "json")
        cs = invoke(runner, "nodes", "--family", "collatz", "--depth", "6",
                    "--format", "csv")
        jrows = json.loads(js.output)["rows"]
        crows = list(csv.DictReader(io.StringIO(cs.output)))
        assert len(jrows) == len(crows)
        for jr, cr in zip(jrows, crows):
            assert jr["lambda"] == float(cr["lambda"])
            if jr["ln_C"] is None:
                assert cr["ln_C"] == ""
            else:
                assert jr["ln_C"] == float(cr["ln_C"])

    @pytest.mark.parametrize("family, options", [
        ("collatz", ["--max-nodes", "3000"]),
        ("3x1", ["--max-nodes", "3000"]),
        ("collatz", ["--max-nodes", "0"]),
        ("collatz", ["--max-nodes", "2"]),
        ("perm:4", ["--depth", "6"]),
        ("carnielli-T:5", ["--max-nodes", "300", "--constant", "1/2"]),
        ("custom", ["--depth", "6", "--constant", "5/12"]),
    ], ids=["collatz", "3x1", "empty", "seeds", "perm:4", "carnielli-T:5", "custom"])
    def test_json_writer_matches_json_dumps(self, runner, tmp_path, family, options):
        if family == "custom":
            # a name that json.dumps must escape: quote, backslash, non-ASCII
            path = tmp_path / "m.json"
            path.write_text(json.dumps({"name": 'x/2 or "(3x\\1)/2", naïve',
                                        "d": 2, "branches": [{"m": 1, "r": 0},
                                                             {"m": 3, "r": 1}]}))
            family = f"custom:{path}"
        res = invoke(runner, "nodes", "--family", family, *options, "--format", "json")
        assert res.exit_code == 0, res.output
        args = dict(zip(options[::2], options[1::2]))
        fam = gx.node_family(family)
        nodes = gx.generate_nodes(
            fam, max_nodes=int(args.get("--max-nodes", 10 ** 9)),
            max_main_nodes=int(args["--depth"]) if "--depth" in args else None,
            constant=Fraction(args["--constant"]) if "--constant" in args else None)
        expected = json.dumps({"family": fam.name, "rows": _node_rows(nodes)}, indent=1)
        assert res.output == expected + "\n"

    def test_precision_option_removed(self, runner):
        # precision is chosen by the log evaluator, not by the user
        res = runner.invoke(main, ["--precision-bits", "256", "nodes"])
        assert res.exit_code == 2
        assert "No such option" in res.output


class TestSearch:
    def test_collatz_1_200(self, runner):
        res = invoke(runner, "search", "--family", "collatz", "--lo", 1,
                     "--hi", 200, "--max-steps", 10000)
        assert res.exit_code == 0
        assert "cycles: 4" in res.output

    def test_matthews_file(self, runner, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(gx.matthews_4branch().to_json()))
        res = invoke(runner, "search", "--file", path, "--lo", -600, "--hi", 600,
                     "--max-steps", 100000, "--format", "json")
        payload = json.loads(res.output)
        assert payload["tallies"]["entered"] > 0

    def test_empty_range_usage_error(self, runner):
        res = runner.invoke(main, ["search", "--family", "collatz",
                                   "--lo", "5", "--hi", "1"])
        assert res.exit_code == 2

    def test_family_and_file_conflict(self, runner, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(gx.collatz().to_json()))
        res = runner.invoke(main, ["search", "--family", "collatz", "--file",
                                   str(path), "--lo", "1", "--hi", "2"])
        assert res.exit_code == 2

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        res = invoke(runner, "search", "--family", "3x1", "--lo", -150,
                     "--hi", 150, "--max-steps", 10000, "--format", "json",
                     "--output", out)
        assert res.exit_code == 0
        assert len(json.loads(out.read_text())["cycles"]) == 5

    @pytest.mark.parametrize("args", [
        ["search", "--family", "collatz", "--lo", 1, "--hi", 300, "--max-steps", 1000,
         "--format", "json"],
    ], ids=lambda args: args[0])
    def test_threads_is_accepted_and_ignored(self, runner, args):
        # perfbench's search-collatz calls still pass --threads 2
        plain = invoke(runner, *args)
        threaded = invoke(runner, *args, "--threads", 2)
        assert plain.exit_code == threaded.exit_code == 0
        assert threaded.stdout_bytes == plain.stdout_bytes

    def test_search_node_threads_option_removed(self, runner):
        res = runner.invoke(main, ["search-node", "--family", "collatz", "--k1", "3",
                                   "--k2", "2", "--threads", "2"])
        assert res.exit_code == 2
        assert "No such option" in res.output

    def test_search_node_cli(self, runner):
        res = invoke(runner, "search-node", "--family", "collatz",
                     "--k1", 3, "--k2", 2)
        assert res.exit_code == 0 and "4, 5, 7, 9, 6" in res.output

    def test_empty_search_node_names_the_backend(self, runner):
        # the bound gives C below 1, so no start is searched
        args = ["search-node", "--family", "collatz", "--k1", 7, "--k2", 5,
                "--constant", "1/1000"]
        res = invoke(runner, *args)
        assert res.exit_code == 0 and "(backend: pure)" in res.output
        payload = json.loads(invoke(runner, *args, "--format", "json").output)
        assert payload["range"] == [1, 0] and payload["backend"] == "pure"

    def test_search_node_rejects_non_node(self, runner):
        res = runner.invoke(main, ["search-node", "--family", "collatz",
                                   "--k1", "5", "--k2", "1"])
        assert res.exit_code == 2


@pytest.fixture(scope="module")
def float_range_node():
    """The first Collatz node whose bound C passes the float range and on
    which bound_C resolves (ln C = 712.249)."""
    node = gx.generate_nodes("collatz", max_nodes=2786)[2785]
    assert node.ln_c > 709.78
    return node


def test_bound_beyond_the_float_range_prints_null_c(runner, float_range_node):
    n = float_range_node
    res = invoke(runner, "bound", "--family", "collatz", "--counts", f"{n.k1},{n.k2}",
                 "--format", "json")

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    payload = json.loads(res.output, parse_constant=reject)
    assert payload["C"] is None
    assert payload["ln_C"] == pytest.approx(n.ln_c, abs=1e-6)


def test_search_node_beyond_the_float_range_is_usage_error(runner, float_range_node):
    n = float_range_node
    res = runner.invoke(main, ["search-node", "--family", "collatz",
                               "--k1", str(n.k1), "--k2", str(n.k2)])
    assert res.exit_code == 2, res.output
    assert "beyond the float range" in res.output


def _run_python(args, cwd, address_space=None, timeout=120):
    """Run the interpreter with the package importable, optionally with its
    address space limited to `address_space` bytes."""
    src = str(Path(gx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=timeout,
                          preexec_fn=limit if address_space else None)


def test_commands_without_a_log_do_not_load_mpmath(tmp_path):
    calls = [["search", "--family", "collatz", "--lo", "-20", "--hi", "20"],
             ["search", "--family", "3x1", "--lo", "1", "--hi", "50", "--format", "csv"],
             ["oracle", "--family", "collatz", "--max-period", "5"],
             ["verify", str(catalog_path("collatz"))],
             ["trajectory", "--family", "3x1", "--start", "7", "--steps", "5"]]
    script = (
        "import json, sys\n"
        "from click.testing import CliRunner\n"
        "from gx1cycles.cli import main\n"
        "runner = CliRunner()\n"
        "codes = [runner.invoke(main, argv).exit_code for argv in json.loads(sys.argv[1])]\n"
        "loaded = 'mpmath' in sys.modules\n"
        "code = runner.invoke(main, ['lambda', '--family', 'collatz', '--counts', '3,2'])"
        ".exit_code\n"
        "print(json.dumps([codes, loaded, code]))\n")
    proc = _run_python(["-c", script, json.dumps(calls)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    codes, loaded, lambda_code = json.loads(proc.stdout)
    assert codes == [0] * len(calls)
    assert not loaded
    assert lambda_code == 0


class TestVerify:
    def test_bundled_catalogs_pass(self, runner):
        for name in ("collatz", "3x1", "matthews"):
            res = invoke(runner, "verify", catalog_path(name))
            assert res.exit_code == 0, res.output

    def test_tampered_catalog_exits_1(self, runner, tmp_path):
        raw = json.loads(catalog_path("collatz").read_text())
        raw["cycles"][3]["elements"][0] += 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        res = invoke(runner, "verify", bad)
        assert res.exit_code == 1
        assert "FAIL" in res.output

    def test_emitted_catalog_reverifies(self, runner, tmp_path):
        out = tmp_path / "cat.json"
        res = invoke(runner, "oracle", "--family", "collatz", "--max-period", 5,
                     "--output", out)
        assert res.exit_code == 0
        res = invoke(runner, "verify", out)
        assert res.exit_code == 0
        assert "7/7" in res.output


class TestTrajectory:
    def test_collatz_4(self, runner):
        res = invoke(runner, "trajectory", "--family", "collatz", "--start", 4,
                     "--steps", 5)
        assert res.output.splitlines()[0] == "4 5 7 9 6 4"

    def test_zero_fixed_point(self, runner):
        res = invoke(runner, "trajectory", "--family", "collatz", "--start", 0,
                     "--steps", 3)
        assert res.output.splitlines()[0] == "0 0 0 0"

    def test_variant_3(self, runner):
        res = invoke(runner, "trajectory", "--family", "perm:3", "--start", 8,
                     "--steps", 6)
        assert res.output.splitlines()[0] == "8 6 5 4 7 11 8"
        assert res.output.strip().splitlines()[-1].split() == ["6", "8", "2", "3", "3"]

    def test_running_counts(self, runner):
        res = invoke(runner, "trajectory", "--family", "3x1", "--start", -17,
                     "--steps", 11)
        last = res.output.strip().splitlines()[-1].split()
        assert last == ["11", "-17", "0", "7", "4"]

    def test_two_slope_pretty_text(self, runner):
        res = invoke(runner, "trajectory", "--family", "perm:3", "--start", 8,
                     "--steps", 6)
        assert res.output == (
            "8 6 5 4 7 11 8\n"
            "  step        value branch    k1    k2\n"
            "     0            8      -     0     0\n"
            "     1            6      2     0     1\n"
            "     2            5      0     1     1\n"
            "     3            4      2     1     2\n"
            "     4            7      1     2     2\n"
            "     5           11      1     3     2\n"
            "     6            8      2     3     3\n")

    def test_per_branch_counts_pretty_text(self, runner):
        res = invoke(runner, "trajectory", "--family", "matthews", "--start", 6,
                     "--steps", 12)
        assert res.output == (
            "6 7 29 21 15 63 267 1134 1417 1062 1327 5639 23965\n"
            "  step        value branch  counts\n"
            "     0            6      -  [0, 0, 0, 0]\n"
            "     1            7      2  [0, 0, 1, 0]\n"
            "     2           29      3  [0, 0, 1, 1]\n"
            "     3           21      1  [0, 1, 1, 1]\n"
            "     4           15      1  [0, 2, 1, 1]\n"
            "     5           63      3  [0, 2, 1, 2]\n"
            "     6          267      3  [0, 2, 1, 3]\n"
            "     7         1134      3  [0, 2, 1, 4]\n"
            "     8         1417      2  [0, 2, 2, 4]\n"
            "     9         1062      1  [0, 3, 2, 4]\n"
            "    10         1327      2  [0, 3, 3, 4]\n"
            "    11         5639      3  [0, 3, 3, 5]\n"
            "    12        23965      3  [0, 3, 3, 6]\n")


class TestOracle:
    def test_collatz_p5(self, runner):
        res = invoke(runner, "oracle", "--family", "collatz", "--max-period", 5)
        payload = json.loads(res.output)
        assert len(payload["cycles"]) == 7

    def test_3x1_p3(self, runner):
        res = invoke(runner, "oracle", "--family", "3x1", "--max-period", 3)
        assert len(json.loads(res.output)["cycles"]) == 4

    def test_p0_empty(self, runner):
        res = invoke(runner, "oracle", "--family", "collatz", "--max-period", 0)
        assert json.loads(res.output)["cycles"] == []

    def test_budget_exceeded_fails_cleanly(self, runner):
        res = runner.invoke(main, ["oracle", "--family", "collatz",
                                   "--max-period", "30", "--budget", "1000"])
        assert res.exit_code == 1


class TestLambdaBound:
    def test_lambda_pair(self, runner):
        res = invoke(runner, "lambda", "--family", "collatz", "--counts", "31,22",
                     "--format", "json")
        payload = json.loads(res.output)
        assert payload["decimal"].startswith("0.997914046257")

    def test_lambda_full_vector(self, runner):
        res = invoke(runner, "lambda", "--family", "matthews", "--counts",
                     "1,1,1,1", "--format", "json")
        payload = json.loads(res.output)
        assert payload["lambda"] == "255/256"

    def test_bound(self, runner):
        res = invoke(runner, "bound", "--family", "collatz", "--counts", "7,5",
                     "--format", "json")
        payload = json.loads(res.output)
        assert abs(payload["ln_C"] - 5.0150589) < 1e-5

    def test_two_counts_on_mod_2_mapping_are_per_branch(self, runner):
        # on 3x1, "4,7" is 4 uses of x/2 and 7 of (3x+1)/2: node k1=7, k2=4
        res = invoke(runner, "lambda", "--family", "3x1", "--counts", "4,7",
                     "--format", "json")
        assert json.loads(res.output)["lambda"] == "2187/2048"
        res = invoke(runner, "bound", "--family", "3x1", "--counts", "4,7",
                     "--format", "json")
        payload = json.loads(res.output)
        assert payload["k_growth"] == 7
        assert abs(payload["ln_C"] - 3.7935996) < 1e-6

    @pytest.mark.parametrize("counts,text,value,decimal", [
        ("6475,9126,0", "2^6475*4^9126/3^15601",
         Fraction(2**6475 * 4**9126, 3**15601), "1.000018194753893"),
        ("0,9126,6475", "4^15601/3^15601", Fraction(4**15601, 3**15601), None),
    ])
    def test_lambda_too_long_for_p_q_stays_exact(self, runner, counts, text, value,
                                                 decimal):
        # p and q have more digits than Python converts to text by default
        res = invoke(runner, "lambda", "--family", "collatz", "--counts", counts,
                     "--format", "json")
        payload = json.loads(res.output)
        vec = tuple(int(c) for c in counts.split(","))
        assert payload["lambda"] == text
        assert value == gx.lambda_exact(gx.collatz(), vec)
        assert payload["decimal"] == decimal
        assert payload["ln_lambda"] == float(gx.ln_lambda(gx.collatz(), vec).value)

    def test_lambda_of_huge_counts_builds_no_huge_number(self, tmp_path):
        # lambda = 3/2^(10^12 + 1): as p/q it would take 125 GB
        proc = _run_python(["-m", "gx1cycles.cli", "lambda", "--family", "3x1", "--counts",
                            "1000000000000,1", "--format", "json"], tmp_path,
                           address_space=1 << 30, timeout=30)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["lambda"] == "1^1000000000000*3^1/2^1000000000001"
        assert payload["decimal"] == "0.000000000000000"

    def test_lambda_text_does_not_follow_the_int_to_str_limit(self, tmp_path):
        script = ("from click.testing import CliRunner\n"
                  "from gx1cycles.cli import main\n"
                  "for counts in ('6475,9126,0', '0,9126,6475', '1000,1000,0'):\n"
                  "    print(CliRunner().invoke(main, ['lambda', '--family', 'collatz',\n"
                  "                                    '--counts', counts]).output)\n")
        outputs = []
        for flags in ([], ["-X", "int_max_str_digits=0"], ["-X", "int_max_str_digits=640"]):
            proc = _run_python([*flags, "-c", script], tmp_path)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        # p has 904 digits and q 955: p/q, below the 4,300 digits of the default limit
        assert f"lambda = {2**3000}/{3**2000} = 0.000" in outputs[0]
        assert "lambda = 2^6475*4^9126/3^15601 = 1.000018194753893" in outputs[0]

    def test_bound_atkin(self, runner):
        res = invoke(runner, "bound", "--family", "collatz", "--counts", "1,1",
                     "--constant", "atkin", "--format", "json")
        assert json.loads(res.output)["constant"] == "63/248"

    def test_generalized_bound_needs_par(self, runner):
        res = runner.invoke(main, ["bound", "--family", "matthews",
                                   "--counts", "1,1,1,1"])
        assert res.exit_code == 2
        res = invoke(runner, "bound", "--family", "matthews", "--counts",
                     "1,1,1,1", "--constant", "1/4", "--format", "json")
        assert json.loads(res.output)["k_growth"] == 3

    def test_bound_at_lambda_one_is_usage_error(self, runner, tmp_path):
        # slopes 1/2 and 4/2: one use of each makes lambda exactly 1
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"d": 2, "branches": [{"m": 1, "r": 0},
                                                         {"m": 4, "r": 0}]}))
        res = runner.invoke(main, ["bound", "--file", str(path), "--counts", "1,1",
                                   "--constant", "1"])
        assert res.exit_code == 2, res.output
        assert "lambda exactly 1" in res.output


@pytest.mark.parametrize("args, header", [
    (["search-node", "--family", "3x1", "--k1", "12", "--k2", "7"],
     ["period", "min", "min_abs", "counts", "hits"]),
    (["search", "--family", "collatz", "--lo", "1", "--hi", "5", "--max-steps", "0"],
     ["period", "min", "min_abs", "counts", "hits"]),
    (["nodes", "--family", "collatz", "--max-nodes", "0"],
     ["i", "j", "side", "k1", "k2", "k", "lambda", "ln_C"]),
    (["nodes", "--family", "collatz", "--max-k", "0"],
     ["i", "j", "side", "k1", "k2", "k", "lambda", "ln_C"]),
], ids=["search-node", "search", "nodes-max-nodes", "nodes-max-k"])
def test_csv_of_an_empty_table_has_its_header(runner, args, header):
    res = invoke(runner, *args, "--format", "csv")
    assert res.exit_code == 0, res.output
    reader = csv.DictReader(io.StringIO(res.output))
    assert reader.fieldnames == header
    assert list(reader) == []


@pytest.mark.parametrize("args", [
    ["oracle", "--family", "collatz", "--max-period", "-1"],
    ["search", "--family", "collatz", "--lo", "1", "--hi", "5", "--max-steps", "-1"],
    ["search", "--family", "collatz", "--lo", "1", "--hi", "5", "--max-magnitude", "0"],
    ["trajectory", "--family", "collatz", "--start", "4", "--steps", "-1"],
    ["nodes", "--family", "matthews"],
    ["nodes", "--max-nodes", "-1"],
    ["nodes", "--family", "carnielli-T:3", "--check-paper"],
    ["nodes", "--depth", "-1"],
    ["nodes", "--max-k", "-5"],
    ["oracle", "--family", "collatz", "--max-period", "3", "--budget", "-1"],
    ["search-node", "--family", "matthews", "--k1", "1", "--k2", "1"],
    ["search", "--family", "collatz", "--lo", "1", "--hi", "5", "--threads", "0"],
    ["search", "--family", "collatz", "--lo", "1", "--hi", "5", "--threads", "-5"],
    ["lambda", "--family", "collatz", "--counts", "a,b"],
    ["bound", "--family", "collatz", "--counts", "1,x"],
    ["bound", "--family", "collatz", "--counts", "0,5"],
    ["bound", "--family", "collatz", "--counts", "0,0"],
    ["bound", "--family", "matthews", "--counts", "1,1,1,1"],
    ["bound", "--family", "carnielli-T:3", "--counts", "1,1"],
    ["bound", "--family", "collatz", "--counts", "5,-3"],
    ["lambda", "--family", "collatz", "--counts", "-1,0,0"],
    ["bound", "--family", "collatz", "--counts", "7,5", "--constant", "-1"],
    ["bound", "--family", "collatz", "--counts", "7,5", "--constant", "0", "--format", "json"],
    ["nodes", "--constant", "-1/2"],
    ["search-node", "--family", "collatz", "--k1", "3", "--k2", "2", "--constant", "-1"],
    ["search-node", "--family", "collatz", "--k1", "0", "--k2", "1"],
    ["search-node", "--family", "3x1", "--k1", "0", "--k2", "1"],
    ["search-node", "--family", "perm:3", "--k1", "3", "--k2", "2"],
    ["bound", "--family", "perm:3", "--counts", "1,0,0"],
], ids=" ".join)
def test_bad_argument_is_usage_error(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output


@pytest.mark.parametrize("selector", ["perm:x", "carnielli-T:x", "carnielli-L:"])
def test_bad_selector_number_is_usage_error_naming_the_selector(runner, selector):
    res = runner.invoke(main, ["search", "--family", selector, "--lo", "1", "--hi", "2"])
    assert res.exit_code == 2
    assert f"mapping selector {selector!r}" in res.output


_COLLATZ_JSON = json.dumps(gx.collatz().to_json())
_3X1_JSON = json.dumps(gx.three_x_plus_one().to_json())


@pytest.mark.parametrize("command, text", [
    ("verify {}", "{}"),
    ("verify {}", "not json"),
    ("verify {}", '{"mapping": %s}' % _COLLATZ_JSON),
    ("verify {}", '{"mapping": %s, "cycles": [{"elements": ["a"]}]}' % _COLLATZ_JSON),
    ("verify {}", '{"mapping": {"d": 2}, "cycles": []}'),
    ("search --file {} --lo 1 --hi 5", '{"d": 2}'),
    ("search --file {} --lo 1 --hi 5", "not json"),
    ("search --file {} --lo 1 --hi 5", '{"d": 2, "branches": 7}'),
    ("search --file {} --lo 1 --hi 5", '{"d": 2, "branches": [{"m": 1, "r": 0}]}'),
    ("search --family custom:{} --lo 1 --hi 5", '{"d": 2}'),
    ("nodes --family custom:{}", "not json"),
    ("search --family custom:{}.missing --lo 1 --hi 5", "{}"),
    ("verify {}", '{"mapping": %s, "cycles": [{"elements": [1.7, 2]}]}' % _3X1_JSON),
    ("verify {}", '{"mapping": %s, "cycles": [{"elements": [true, 2]}]}' % _3X1_JSON),
    ("verify {}", '{"mapping": %s, "cycles": [{"elements": "12"}]}' % _3X1_JSON),
    ("search --file {} --lo 1 --hi 5", '{"d": 2.9, "branches": [{"m": 1, "r": 0}, '
                                       '{"m": 3, "r": -1}]}'),
    ("search --file {} --lo 1 --hi 5", '{"d": 2, "branches": [{"m": 1.9, "r": 0}, '
                                       '{"m": 3, "r": -1}]}'),
    ("search --file {} --lo 1 --hi 5", '{"name": 5, "d": 2, "branches": [{"m": 1, "r": 0}, '
                                       '{"m": 3, "r": -1}]}'),
    ("search --file {} --lo 1 --hi 5", '{"name": ["a"], "d": 2, "branches": [{"m": 1, "r": 0}, '
                                       '{"m": 3, "r": -1}]}'),
], ids=["verify-empty", "verify-not-json", "verify-no-cycles", "verify-non-integer",
        "verify-bad-mapping", "file-no-branches", "file-not-json", "file-branches-not-list",
        "file-too-few-branches", "custom-no-branches", "custom-not-json", "custom-missing",
        "verify-float-element", "verify-bool-element", "verify-string-elements",
        "file-float-modulus", "file-float-multiplier", "file-number-name",
        "file-list-name"])
def test_malformed_input_file_is_usage_error(runner, tmp_path, command, text):
    # input from outside the program: a clean message and exit 2, no traceback
    path = tmp_path / "input.json"
    path.write_text(text)
    res = runner.invoke(main, shlex.split(command.format(path)))
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert str(path) in res.output


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("gx1cycles ")]


@pytest.mark.parametrize("args", [
    args for args in _readme_commands()
    if not {"--file", "verify", "--output"} & set(args)
], ids=" ".join)
def test_readme_command_line_examples_run(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
