import csv
import io
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import gx1cycles as gx
from gx1cycles.cli import main
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

    def test_bound_atkin(self, runner):
        res = invoke(runner, "bound", "--family", "collatz", "--counts", "1,1",
                     "--constant", "atkin", "--format", "json")
        assert json.loads(res.output)["constant"] == "63/248"

    def test_generalized_bound_needs_par(self, runner):
        res = runner.invoke(main, ["bound", "--family", "matthews",
                                   "--counts", "1,1,1,1"])
        assert res.exit_code == 1
        res = invoke(runner, "bound", "--family", "matthews", "--counts",
                     "1,1,1,1", "--constant", "1/4", "--format", "json")
        assert json.loads(res.output)["k_growth"] == 3


@pytest.mark.parametrize("args", [
    ["oracle", "--family", "collatz", "--max-period", "-1"],
    ["search", "--family", "collatz", "--lo", "1", "--hi", "5", "--max-steps", "-1"],
    ["search", "--family", "collatz", "--lo", "1", "--hi", "5", "--max-magnitude", "0"],
    ["trajectory", "--family", "collatz", "--start", "4", "--steps", "-1"],
    ["nodes", "--family", "matthews"],
    ["nodes", "--max-nodes", "-1"],
    ["search-node", "--family", "matthews", "--k1", "1", "--k2", "1"],
    ["search", "--family", "collatz", "--lo", "1", "--hi", "5", "--threads", "0"],
    ["search", "--family", "collatz", "--lo", "1", "--hi", "5", "--threads", "-5"],
    ["search-node", "--family", "collatz", "--k1", "3", "--k2", "2", "--threads", "0"],
    ["search-node", "--family", "collatz", "--k1", "3", "--k2", "2", "--threads", "-5"],
], ids=" ".join)
def test_bad_argument_is_usage_error(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output


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
