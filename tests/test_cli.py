"""End-to-end CLI coverage via click's test runner."""

import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from cardvote import bounds, cli, generators, mechanisms
from cardvote.bounds import ProjectionMove, ProjectionTrace, ReductionTrace, SlideRun
from cardvote.cli import _array, _json_text, _profile_record, fit_slope, main
from cardvote.core import Preference, Profile, profile_to_json_dict
from cardvote.errors import CardvoteError, DataError
from cardvote.generators import rand_grid_profile
from cardvote.properties import enumerate_Rk_prefs, grid_pref_count

ROOT = Path(__file__).resolve().parent.parent

F = Fraction


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    return result


class TestEvalAndRatio:
    def test_gen_then_eval(self, runner, tmp_path):
        profile_path = tmp_path / "u.json"
        result = invoke(runner, "gen", "negative", "--m", "8", "--out", str(profile_path))
        assert result.exit_code == 0
        result = invoke(runner, "eval", "--mech", "jstar", "--profile", str(profile_path))
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["config"]["subcommand"] == "eval"
        probs = [F(p) for p in report["distribution"]["exact"]]
        assert sum(probs) == 1
        assert report["rv_winner"] == 8

    def test_ratio_command(self, runner, tmp_path):
        profile_path = tmp_path / "u.json"
        invoke(runner, "gen", "cyclic", "--m", "5", "--star", "2", "--eps", "1/1000",
               "--out", str(profile_path))
        result = invoke(runner, "ratio", "--mech", "j1:1", "--profile", str(profile_path))
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert F(report["ratio"]["exact"]) <= 1

    def test_quota_flagged_for_pairwise(self, runner, tmp_path):
        profile_path = tmp_path / "u.json"
        invoke(runner, "gen", "grid", "--m", "3", "--n", "3", "--k", "4",
               "--seed", "1", "--out", str(profile_path))
        result = invoke(runner, "eval", "--mech", "j2:1", "--profile", str(profile_path))
        assert json.loads(result.output)["quota_in_range"] is False
        result = invoke(runner, "eval", "--mech", "j2:2", "--profile", str(profile_path))
        assert json.loads(result.output)["quota_in_range"] is True

    def test_symmetrized_anonymous_scheme_on_eleven_voters(self, runner, tmp_path):
        # j1:1 is anonymous, so sym: averages 3! relabelings, not 3! * 11!.
        profile_path = tmp_path / "u.json"
        invoke(runner, "gen", "grid", "--m", "3", "--n", "11", "--k", "4",
               "--seed", "1", "--out", str(profile_path))
        result = invoke(runner, "eval", "--mech", "sym:j1:1", "--profile", str(profile_path))
        assert result.exit_code == 0
        assert sum(F(p) for p in json.loads(result.output)["distribution"]["exact"]) == 1

    def test_nested_symmetrization_evaluates_once(self, runner, tmp_path):
        # Each sym: level averaged the one below over all m! relabelings, so
        # sym:sym:sym:j1:1 at m = 7 evaluated j1:1 on 5040**3 profiles.
        profile_path = tmp_path / "u.json"
        seven = rand_grid_profile(7, 2, 3, 0, tie_free=False)  # with ties
        profile_path.write_text(json.dumps(profile_to_json_dict(seven)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "cardvote.cli", "eval", "--mech", "sym:sym:sym:j1:1",
             "--profile", str(profile_path)],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["mechanism"] == "sym:sym:sym:j1:1"
        once = invoke(runner, "eval", "--mech", "sym:j1:1", "--profile", str(profile_path))
        assert report["distribution"] == json.loads(once.output)["distribution"]

    def test_sym_of_a_mixture_of_sym_parts_evaluates_once(self, runner, tmp_path):
        # The outer sym: averaged its relabel-invariant mixture again, so at
        # m = 7 j1:1 was evaluated on 5040**2 profiles.
        profile_path = tmp_path / "u.json"
        invoke(runner, "gen", "cyclic", "--m", "7", "--star", "1", "--eps", "1/343",
               "--out", str(profile_path))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "cardvote.cli", "eval", "--mech", "sym:mix:1*sym:j1:1",
             "--profile", str(profile_path)],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["mechanism"] == "sym:mix:1*sym:j1:1"
        once = invoke(runner, "eval", "--mech", "sym:j1:1", "--profile", str(profile_path))
        assert report["distribution"] == json.loads(once.output)["distribution"]

    def test_csv_profile_round_trip(self, runner, tmp_path):
        csv_path = tmp_path / "u.csv"
        invoke(runner, "gen", "grid", "--m", "3", "--n", "2", "--k", "6",
               "--seed", "3", "--format", "csv", "--out", str(csv_path))
        result = invoke(runner, "eval", "--mech", "rv", "--profile", str(csv_path))
        assert result.exit_code == 0

    def test_bad_mechanism_spec_fails_cleanly(self, runner, tmp_path):
        profile_path = tmp_path / "u.json"
        invoke(runner, "gen", "grid", "--m", "3", "--n", "2", "--k", "4",
               "--seed", "0", "--out", str(profile_path))
        result = runner.invoke(main, ["eval", "--mech", "zzz", "--profile", str(profile_path)])
        assert result.exit_code == 1
        assert "zzz" in result.output

    @pytest.mark.parametrize("spec", ["j1:9", "const:7"])
    def test_mechanism_out_of_range_fails_cleanly(self, runner, tmp_path, spec):
        profile_path = tmp_path / "u.json"
        invoke(runner, "gen", "grid", "--m", "3", "--n", "2", "--k", "4",
               "--seed", "0", "--out", str(profile_path))
        result = invoke(runner, "eval", "--mech", spec, "--profile", str(profile_path))
        assert result.exit_code == 1
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "name,text",
        [
            ("zero_den.json", '{"m": 2, "n": 1, "prefs": [[[1, 0], [0, 1]]]}'),
            ("float_pair.json", '{"m": 2, "n": 1, "prefs": [[[0.5, 1], [1, 1]]]}'),
            ("bad_cell.csv", "abc,1\n0,1\n"),
            ("rows.json", '{"m": 2, "n": 1, "prefs": [5]}'),
            ("truncated.json", "{"),
        ],
        ids=["zero_denominator", "float_pair", "non_rational_csv_cell", "row_not_a_list",
             "not_json"],
    )
    def test_malformed_profile_fails_cleanly(self, runner, tmp_path, name, text):
        profile_path = tmp_path / name
        profile_path.write_text(text)
        result = invoke(runner, "eval", "--mech", "rv", "--profile", str(profile_path))
        assert result.exit_code == 1
        assert "Traceback" not in result.output


class TestBadInput:
    """Bad flags and data files exit 1 with a one-line error, no traceback."""

    @pytest.mark.parametrize(
        "args",
        [
            "gen cyclic --m 5 --star 1 --eps abc",
            "gen cyclic --m 5 --star 1 --eps 1/0",
            "experiment cyclic --m 5 --eps abc",
            "experiment cyclic --m 5 --eps 1/0",
            "verify truthful --mech j1:1 --m 2 --n -1 --k 2",
            "verify ordinal --mech j1:1 --m 2 --n -1 --k 2",
            "verify neutral --mech j1:1 --m 2 --n -1 --k 2",
            "verify anonymous --mech j1:1 --m 2 --n -1 --k 2",
            "experiment minratio --mech rv --m 2 --n -1 --k 2",
            "gen grid --m 1 --n 2 --k 3",
            "gen grid --m 1 --n 2 --k 3 --ties",
            "gen grid --m 3 --n 2 --k -1 --ties",
            "gen grid --m 3 --n 2 --k 99999999999999999999",
            "experiment cyclic --m 0",
            "experiment cyclic --m 3,0",
            "experiment minratio --mech rv --m 2 --n 1 --k 2 --budget -1",
            "experiment minratio --mech rv --m 2 --n 1 --k 2 --budget 0",
            "experiment minratio --mech rv --profile {grid} --budget 0",
            "experiment minratio --mech rv --m 2 --n 1 --k 2 --budget 99999999999999999999",
            # A profile file and grid flags describe two different runs.
            "experiment minratio --mech rv --profile {grid} --m 2 --n 1 --k 2",
            "experiment minratio --mech rv --profile {grid} --k 2",
            "experiment minratio --mech rv --profile {grid} --tie-free",
            "experiment negative --m 8 --repeat 99999999999999999999",
            "gen negative --m 8 --repeat 99999999999999999999",
            "experiment lower --m 8 --n 0 --k 32 --grid-step 1",
            "experiment lower --m 8 --n -3 --k 32 --grid-step 1",
            "experiment lower --m 8 --n 2 --k 32 --grid-step 1 --seeds ,",
            "experiment lower --m 8 --n 5 --k 32 --grid-step 9",
            "experiment negative --m ,",
            "experiment cyclic --m ,",
            # Budget counts with more digits than int() converts to text.
            "verify ordinal --mech rv --m 3000 --n 300 --k 2",
            "verify anonymous --mech rv --m 30 --n 2000 --k 2",
            # Grid resolutions below 1, rejected before any value is read.
            "reduce --profile {grid} --k -3",
            "reduce --profile {grid} --k 0",
        ],
    )
    def test_bad_flag(self, runner, tmp_path, args):
        if "{grid}" in args:
            grid = tmp_path / "g.json"
            grid.write_text(json.dumps(profile_to_json_dict(rand_grid_profile(8, 6, 64, 3))))
            args = args.format(grid=grid)
        result = invoke(runner, *args.split())
        assert result.exit_code == 1
        assert "Traceback" not in result.output
        assert result.output.startswith("Error: ")

    @pytest.mark.parametrize(
        "args",
        [
            "verify truthful --mech rv --m 3 --n 2 --k 10 --budget 1e3",
            "verify truthful --mech rv --m abc --n 2 --k 10",
            "verify truthful --mech rv --m 3 --n 2",
            "--bogus",
            "nosuch",
            "fit --data {missing}",
        ],
    )
    def test_usage_error(self, runner, tmp_path, args):
        """click exits 2 on a usage error, the code that here means a
        violation was found; the root group makes it 1."""
        result = invoke(runner, *args.format(missing=tmp_path / "missing.csv").split())
        assert result.exit_code == 1
        assert "Traceback" not in result.output
        assert "Error: " in result.output

    @pytest.mark.parametrize(
        "args, code", [("", 1), ("verify", 1), ("--help", 0), ("verify --help", 0)]
    )
    def test_bare_group_prints_help(self, runner, args, code):
        result = invoke(runner, *args.split())
        assert result.exit_code == code
        assert "Commands:" in result.output

    @pytest.mark.parametrize(
        "text",
        ["m,ratio\n8,1/2\n27,1/0\n64,1/4\n", "m,ratio\n8,1/2\n27\n64,1/4\n"],
        ids=["zero_denominator", "missing_ratio"],
    )
    def test_bad_fit_row(self, runner, tmp_path, text):
        data = tmp_path / "points.csv"
        data.write_text(text)
        result = invoke(runner, "fit", "--data", str(data))
        assert result.exit_code == 1
        assert "bad fit row" in result.output

    @pytest.mark.parametrize(
        "text",
        [
            '{"m": "2", "n": 1, "prefs": [[[1, 1], [0, 1]]]}',
            '{"m": 2, "n": 1.0, "prefs": [[[1, 1], [0, 1]]]}',
        ],
        ids=["string_m", "float_n"],
    )
    def test_non_integer_shape(self, runner, tmp_path, text):
        profile_path = tmp_path / "u.json"
        profile_path.write_text(text)
        result = invoke(runner, "eval", "--mech", "rv", "--profile", str(profile_path))
        assert result.exit_code == 1
        assert "must be an integer" in result.output

    @pytest.mark.parametrize(
        "text",
        [
            '{"m": 2, "n": 1, "prefs": [[[true, 1], [false, 1]]]}',
            '{"m": 2, "n": 1, "prefs": [[[1, 1], [0, true]]]}',
        ],
        ids=["bool_numerators", "bool_denominator"],
    )
    def test_bool_utility(self, runner, tmp_path, text):
        profile_path = tmp_path / "u.json"
        profile_path.write_text(text)
        result = invoke(runner, "eval", "--mech", "rv", "--profile", str(profile_path))
        assert result.exit_code == 1
        assert "true and false are not integers" in result.output

    def test_directory_as_profile(self, runner, tmp_path):
        result = invoke(runner, "eval", "--mech", "rv", "--profile", str(tmp_path))
        assert result.exit_code == 1
        assert result.output.startswith("Error: cannot read profile")

    @pytest.mark.parametrize("kind", ["directory", "non_utf8"])
    def test_unreadable_fit_data(self, runner, tmp_path, kind):
        data = tmp_path
        if kind == "non_utf8":
            data = tmp_path / "points.csv"
            data.write_bytes(b"m,ratio\n8,\xff\n")
        result = invoke(runner, "fit", "--data", str(data))
        assert result.exit_code == 1
        assert result.output.startswith("Error: cannot read fit data")


class TestVerify:
    def test_truthful_holds_exit_zero(self, runner):
        result = invoke(runner, "verify", "truthful", "--mech", "j1:1",
                        "--m", "2", "--n", "2", "--k", "2")
        assert result.exit_code == 0
        assert json.loads(result.output)["verdict"] == "holds"

    def test_truthful_violated_exit_two(self, runner):
        result = invoke(runner, "verify", "truthful", "--mech", "rv",
                        "--m", "3", "--n", "2", "--k", "10")
        assert result.exit_code == 2
        report = json.loads(result.output)
        assert report["verdict"] == "violated"
        assert F(report["witness"]["gain"]) > 0

    def test_neutral_with_tie_free_flag(self, runner):
        result = invoke(runner, "verify", "neutral", "--mech", "j1:1",
                        "--m", "3", "--n", "2", "--k", "3", "--tie-free")
        assert result.exit_code == 0

    def test_budget_exceeded_is_an_error(self, runner):
        result = runner.invoke(main, ["verify", "truthful", "--mech", "j1:1",
                                      "--m", "3", "--n", "3", "--k", "3",
                                      "--budget", "10"])
        assert result.exit_code == 1

    def test_sym_is_priced_by_its_relabelings(self, runner):
        # 254 preferences at (8, 1, 1), each evaluation averaging 8! relabelings:
        # priced as one evaluation, this scan passed the gate and ran for minutes.
        start = time.perf_counter()
        result = runner.invoke(main, ["verify", "truthful", "--mech", "sym:rv",
                                      "--m", "8", "--n", "1", "--k", "1"])
        assert time.perf_counter() - start < 0.1
        assert result.exit_code == 1
        assert result.output == (f"Error: truthfulness scan needs {254 * 254 * 40320} steps, "
                                 "budget is 10000000\n")

    @pytest.mark.parametrize("args", [
        ["--mech", "sym:rv", "--m", "-1", "--n", "2"],
        ["--mech", "sym:rv", "--m", "3", "--n", "0"],
        ["--mech", "jstar", "--m", "1", "--n", "2"],
    ], ids=["sym_negative_m", "sym_no_voters", "jstar_one_candidate"])
    def test_bad_shape_fails_cleanly(self, runner, args):
        # jstar and sym: are built for the flags' shape before the scan checks it.
        result = runner.invoke(main, ["verify", "truthful", *args, "--k", "2"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error: need at least 2 candidates")
        assert "Traceback" not in result.output


class TestExperiments:
    def test_negative_csv_and_fit(self, runner, tmp_path):
        csv_path = tmp_path / "negative.csv"
        result = invoke(runner, "experiment", "negative", "--m", "8,27",
                        "--out", str(csv_path))
        assert result.exit_code == 0
        text = csv_path.read_text()
        assert text.startswith("# config:")
        assert "m,scheme,q,ratio" in text.splitlines()[1]
        fit = invoke(runner, "fit", "--data", str(csv_path), "--aggregate", "max")
        assert fit.exit_code == 1  # only two m values: honest failure

    def test_negative_repeated_m_prints_its_rows_again(self, runner):
        once = invoke(runner, "experiment", "negative", "--m", "8").output.splitlines()
        twice = invoke(runner, "experiment", "negative", "--m", "8,8").output.splitlines()
        header, rows = once[1], once[2:]
        assert len(rows) == 15
        assert twice[1:] == [header, *rows, *rows]

    def test_negative_work_past_the_budget_is_refused(self, runner):
        start = time.perf_counter()
        result = runner.invoke(main, ["experiment", "negative",
                                      "--m", f"27,{bounds.NEGATIVE_BUDGET - 26}"])
        assert time.perf_counter() - start < 0.1
        assert result.exit_code == 1
        assert result.output == (f"Error: adversarial sweep needs {bounds.NEGATIVE_BUDGET + 1} "
                                 f"steps, budget is {bounds.NEGATIVE_BUDGET}\n")

    def test_fit_on_exact_power_law(self, runner, tmp_path):
        data = tmp_path / "points.csv"
        rows = ["m,ratio"]
        for m in (8, 27, 64):
            rows.append(f"{m},{F(1, round(m ** (2 / 3)))}")
        data.write_text("\n".join(rows) + "\n")
        result = invoke(runner, "fit", "--data", str(data))
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["config"]["aggregate"] == "none"
        assert abs(float(report["slope"]) + 2 / 3) < 1e-9
        result = invoke(runner, "fit", "--data", str(data), "--aggregate", "max")
        assert json.loads(result.output)["config"]["aggregate"] == "max"

    def test_fit_constant_slope_zero(self, runner, tmp_path):
        data = tmp_path / "points.csv"
        data.write_text("m,ratio\n8,1/2\n27,1/2\n64,1/2\n")
        result = invoke(runner, "fit", "--data", str(data))
        assert abs(float(json.loads(result.output)["slope"])) < 1e-12

    def test_lower_sweep(self, runner, tmp_path):
        csv_path = tmp_path / "lower.csv"
        result = invoke(runner, "experiment", "lower", "--m", "8", "--n", "8",
                        "--k", "512", "--grid-step", "4", "--seeds", "0,1",
                        "--out", str(csv_path))
        assert result.exit_code == 0
        lines = csv_path.read_text().splitlines()
        assert all(line.endswith("True") for line in lines[2:])

    def test_cyclic_experiment(self, runner):
        result = invoke(runner, "experiment", "cyclic", "--m", "5")
        assert result.exit_code == 0
        for line in result.output.splitlines()[2:]:
            assert line.endswith("True,True")

    @pytest.mark.parametrize("ms", ["101", "5,10,20,100", "1" + "0" * 30, f"-{10**20}"])
    def test_cyclic_work_past_the_budget_is_refused(self, runner, monkeypatch, ms):
        def refuse(*args):
            raise AssertionError("a cyclic profile was built")

        monkeypatch.setattr(generators, "gen_cyclic", refuse)
        start = time.perf_counter()
        result = runner.invoke(main, ["experiment", "cyclic", "--m", ms])
        assert time.perf_counter() - start < 0.1
        assert result.exit_code == 1
        work = sum(abs(int(m)) ** 3 for m in ms.split(","))
        assert result.output == (f"Error: cyclic sweep needs {work} steps, "
                                 f"budget is {cli.CYCLIC_BUDGET}\n")

    def test_cyclic_work_at_the_budget_runs(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "CYCLIC_BUDGET", 2 ** 3 + 5 ** 3)
        result = invoke(runner, "experiment", "cyclic", "--m", "2,5")
        assert result.exit_code == 0 and len(result.output.splitlines()) == 2 + 2 + 5
        result = runner.invoke(main, ["experiment", "cyclic", "--m", "2,5,1"])
        assert result.exit_code == 1
        assert result.output == "Error: cyclic sweep needs 134 steps, budget is 133\n"

    def test_minratio_grid(self, runner):
        result = invoke(runner, "experiment", "minratio", "--mech", "rv",
                        "--m", "2", "--n", "2", "--k", "2")
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["min_ratio"]["exact"] == "1"
        assert report["visited"] == 4

    def test_minratio_profile_file(self, runner, tmp_path):
        profile_path = tmp_path / "u.json"
        invoke(runner, "gen", "negative", "--m", "8", "--out", str(profile_path))
        result = invoke(runner, "experiment", "minratio", "--mech", "j1:1",
                        "--profile", str(profile_path))
        assert json.loads(result.output)["visited"] == 1


class TestReduceProject:
    def test_reduce_then_project(self, runner, tmp_path):
        profile_path = tmp_path / "u.json"
        invoke(runner, "gen", "grid", "--m", "8", "--n", "4", "--k", "64",
               "--seed", "3", "--out", str(profile_path))
        result = invoke(runner, "reduce", "--profile", str(profile_path), "--k", "64")
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["anomalies"] == []
        reduced_path = tmp_path / "reduced.json"
        reduced_path.write_text(json.dumps(report["result"]))
        result = invoke(runner, "project", "--profile", str(reduced_path), "--k", "64")
        assert result.exit_code == 0
        moves = json.loads(result.output)["moves"]
        assert all(mv["target_class"] in ("a", "b", "c") for mv in moves)


# ---------------------------------------------------------------------------
# The report writer: reduce steps and profiles from templates, every other
# value through json.dumps, against one json.dumps of the whole report.

def dumped(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def reduce_reference(trace: ReductionTrace, path: str, k: int) -> str:
    """The ``reduce`` report as one dict per step, dumped whole, with the
    anomalies found by `Fraction` comparison.  Each run is stepped here from
    its fields, not by ``SlideRun.slides``, which the writer shares: slide i
    of a run sits at ``lo + i*shift`` (left for "left", right for any other
    label) and moves the functional from g(i) to g(i+1)."""
    steps, rises = [], []
    for r in trace.runs:
        shift = -1 if r.direction == "left" else 1
        lo, hi = r.run
        g = [Fraction(r.numer + i * r.d_numer, r.den * (r.denom + i * r.d_denom))
             for i in range(r.gap + 1)]
        for i in range(r.gap):
            rises.append(g[i + 1] > g[i])
            steps.append({
                "voter": r.voter,
                "run": [lo + i * shift, hi + i * shift],
                "direction": r.direction,
                "g_before": str(g[i]),
                "g_after": str(g[i + 1]),
            })
    return dumped({
        "config": {"subcommand": "reduce", "profile": path, "k": k},
        "result": profile_to_json_dict(trace.result),
        "g_initial": str(trace.g_initial),
        "g_final": str(trace.g_final),
        "anomalies": [i for i, rose in enumerate(rises) if rose],
        "steps": steps,
    })


def project_reference(trace: ProjectionTrace, path: str, k: int) -> str:
    return dumped({
        "config": {"subcommand": "project", "profile": path, "k": k},
        "result": profile_to_json_dict(trace.result),
        "moves": [
            {
                "voter": mv.voter,
                "kept": mv.kept,
                "target_class": mv.target_class,
                "before": [str(v) for v in mv.before.values],
                "after": [str(v) for v in mv.after.values],
            }
            for mv in trace.moves
        ],
    })


# The move writer ``project`` used before its moves went through json.dumps
# as records: one fixed template per move.
_MOVE = """{
      "after": %s,
      "before": %s,
      "kept": %s,
      "target_class": %s,
      "voter": %d
    }"""


def _values_array(pref: Preference) -> str:
    return _array((_quote(str(v)) for v in pref.values), "      ")


def _moves_array(moves) -> str:
    return _array(
        (
            _MOVE % (_values_array(mv.after), _values_array(mv.before), json.dumps(mv.kept),
                     json.dumps(mv.target_class), mv.voter)
            for mv in moves
        ),
        "  ",
    )


def template_project_report(trace: ProjectionTrace, path: str, k: int) -> str:
    """The ``project`` report with its moves written from ``_MOVE``."""
    return _json_text(
        {"config": {"subcommand": "project", "profile": path, "k": k}},
        {"result": _profile_record(trace.result), "moves": _moves_array(trace.moves)},
    )


@st.composite
def profiles(draw, n=None):
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 3)) if n is None else n
    k = draw(st.integers(1, 6))
    return rand_grid_profile(m, n, k, draw(st.integers(0, 2**32)), tie_free=False)


fractions = st.fractions(max_denominator=10**12)
labels = st.one_of(st.sampled_from(["left", "right", "a", "b", "c"]), st.text())


@st.composite
def slide_runs(draw) -> SlideRun:
    """Runs of up to 6 slides in either direction (any other label shifts
    right, as the writer must render it), zero gaps included, whose
    functional may rise, fall or stay: the signed changes take either sign,
    and the denominator stays positive before and after every slide.  Small
    denominators give values that reduce to integers."""
    gap = draw(st.integers(0, 6))
    d_denom = draw(st.integers(-3, 3))
    denom = draw(st.integers(1, 40)) + max(0, -d_denom * gap)
    big = st.integers(-(2**80), 2**80)
    return SlideRun(
        voter=draw(st.integers()),
        run=draw(st.tuples(st.integers(), st.integers())),
        direction=draw(labels),
        gap=gap,
        den=draw(st.sampled_from([1, 2, 3]) | st.integers(1, 2**70)),
        numer=draw(st.integers(-60, 60) | big),
        denom=denom,
        d_numer=draw(st.integers(-9, 9) | big),
        d_denom=d_denom,
    )


moves = st.builds(ProjectionMove, st.integers(), st.booleans(), st.none() | labels,
                  profiles(n=1).map(lambda p: p.prefs[0]),
                  profiles(n=1).map(lambda p: p.prefs[0]))
reduce_traces = st.builds(ReductionTrace, profiles(), st.lists(slide_runs(), max_size=6).map(tuple),
                          fractions, fractions)
# Two runs of voter 2: 6/2 -> 5/2 -> 4/2 -> 3/2, whose values 3 and 2 reduce
# to integers, then a rise from 1/3 to 2/3.
INTEGER_RUNS = (
    SlideRun(2, (5, 6), "left", 3, 2, 6, 1, -1, 0),
    SlideRun(2, (9, 9), "right", 1, 3, 1, 1, 1, 0),
)
# A label with a format directive in it, which the writer must copy as text.
PERCENT_RUN = (SlideRun(1, (2, 3), "100%s", 2, 1, 4, 1, -1, 0),)
project_traces = st.builds(ProjectionTrace, profiles(), st.lists(moves, max_size=4).map(tuple))

# Relaxed voters over mixed denominators, with zeros and ones among them.
utilities = st.sampled_from([F(0), F(1)]) | st.fractions(0, 1, max_denominator=10**9)
any_profiles = st.integers(2, 6).flatmap(lambda m: st.lists(
    st.lists(utilities, min_size=m, max_size=m).map(Preference.relaxed), min_size=1, max_size=4,
).map(lambda prefs: Profile(tuple(prefs))))

BASE = rand_grid_profile(3, 2, 3, 0)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def profile_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("writer") / "in.json"
    path.write_text(json.dumps(profile_to_json_dict(BASE)))
    return str(path)


class TestReportWriter:
    @given(reduce_traces, st.integers(1, 10**6))
    @example(ReductionTrace(BASE, (), Fraction(1, 3), Fraction(1, 3)), 3)
    @example(ReductionTrace(BASE, INTEGER_RUNS, Fraction(3), Fraction(2, 3)), 3)
    @example(ReductionTrace(BASE, PERCENT_RUN, Fraction(4), Fraction(2)), 3)
    @settings(max_examples=150, deadline=None)
    def test_reduce_report_matches_json_dumps(self, profile_file, trace, k):
        with mock.patch.object(bounds, "reduce_to_Ck_trace", lambda profile, k: trace):
            result = CliRunner().invoke(
                main, ["reduce", "--profile", profile_file, "--k", str(k)], catch_exceptions=False
            )
        assert result.exit_code == 0
        assert result.output == reduce_reference(trace, profile_file, k)

    @given(project_traces, st.integers(1, 10**6))
    @example(ProjectionTrace(BASE, ()), 3)
    @settings(max_examples=150, deadline=None)
    def test_project_report_matches_json_dumps(self, profile_file, trace, k):
        with mock.patch.object(bounds, "project_to_Dk_trace", lambda profile, k: trace):
            result = CliRunner().invoke(
                main, ["project", "--profile", profile_file, "--k", str(k)], catch_exceptions=False
            )
        assert result.exit_code == 0
        assert result.output == project_reference(trace, profile_file, k)
        assert result.output == template_project_report(trace, profile_file, k)

    @given(st.dictionaries(st.text(), json_values, min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_other_values_match_json_dumps(self, report):
        assert _json_text(report, {}) == dumped(report)

    @given(any_profiles)
    @example(Profile((Preference.relaxed([0, 1]),)))  # m=2, n=1
    @settings(max_examples=150, deadline=None)
    def test_profile_record_matches_json_dumps(self, profile):
        report = {"argmin_profile": profile_to_json_dict(profile), "visited": 1}
        assert _json_text({"visited": 1}, {"argmin_profile": _profile_record(profile)}) == (
            dumped(report)
        )

    @given(any_profiles, fractions, st.integers(0, 10**6))
    @example(Profile((Preference.relaxed([1, 0]),)), Fraction(1), 1)
    @settings(max_examples=100, deadline=None)
    def test_minratio_report_matches_json_dumps(self, profile_file, profile, value, visited):
        found = bounds.MinRatioResult(profile, value, visited)
        with mock.patch.object(bounds, "min_ratio_search", lambda mech, family, budget: found):
            result = CliRunner().invoke(
                main, ["experiment", "minratio", "--mech", "rv", "--profile", profile_file],
                catch_exceptions=False,
            )
        assert result.exit_code == 0
        assert result.output == dumped({
            "config": {"subcommand": "experiment minratio", "mech": "rv", "m": None, "n": None,
                       "k": None, "tie_free": False, "profile": profile_file,
                       "budget": 1_000_000},
            "mechanism": "rv",
            "min_ratio": {"exact": str(value), "decimal": format(float(value), ".12g")},
            "visited": visited,
            "argmin_profile": profile_to_json_dict(profile),
        })

    def test_real_chain_matches_json_dumps(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(profile_to_json_dict(rand_grid_profile(8, 6, 64, 3))))
        trace = bounds.reduce_to_Ck_trace(rand_grid_profile(8, 6, 64, 3), 64)
        assert len(trace.steps) > 100
        reduced = invoke(CliRunner(), "reduce", "--profile", str(path), "--k", "64").output
        assert reduced == reduce_reference(trace, str(path), 64)
        path.write_text(json.dumps(json.loads(reduced)["result"]))
        projected = invoke(CliRunner(), "project", "--profile", str(path), "--k", "64").output
        projection = bounds.project_to_Dk_trace(trace.result, 64)
        assert projected == project_reference(projection, str(path), 64)
        assert projected == template_project_report(projection, str(path), 64)

    def test_reduce_builds_no_steps(self, tmp_path):
        # The report is written from the trace's runs: with SlideStep unusable
        # the real chain still gives the same bytes.
        path = tmp_path / "g.json"
        path.write_text(json.dumps(profile_to_json_dict(rand_grid_profile(8, 6, 64, 3))))
        expected = invoke(CliRunner(), "reduce", "--profile", str(path), "--k", "64").output
        refused = mock.Mock(side_effect=AssertionError("reduce built a SlideStep"))
        with mock.patch.object(bounds, "SlideStep", refused):
            result = invoke(CliRunner(), "reduce", "--profile", str(path), "--k", "64")
        assert result.exit_code == 0
        assert result.output == expected
        assert len(json.loads(expected)["steps"]) > 100
        refused.assert_not_called()


def per_slide_anomalies(runs) -> tuple[int, ...]:
    """Reference: every slide re-checked on its own by cross-multiplying the
    integers before and after it."""
    found, index = [], 0
    for r in runs:
        numer, denom = r.numer, r.denom
        for i in range(index, index + r.gap):
            next_numer, next_denom = numer + r.d_numer, denom + r.d_denom
            if next_numer * denom > numer * next_denom:
                found.append(i)
            numer, denom = next_numer, next_denom
        index += r.gap
    return tuple(found)


class TestRunAnomalies:
    """``ReductionTrace.anomalies`` tests each run once from its integers;
    the references compare the derived steps' `Fraction`s and re-check every
    slide's integers on its own."""

    @given(st.lists(slide_runs(), max_size=8).map(tuple))
    @example(INTEGER_RUNS)
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_comparison(self, runs):
        trace = ReductionTrace(BASE, runs, Fraction(0), Fraction(0))
        assert len(trace.steps) == sum(r.gap for r in runs)
        assert trace.anomalies == tuple(
            i for i, s in enumerate(trace.steps) if s.g_after > s.g_before
        )
        assert trace.anomalies == per_slide_anomalies(runs)

    def test_rising_runs_are_flagged(self):
        trace = ReductionTrace(BASE, INTEGER_RUNS, Fraction(3), Fraction(2, 3))
        assert [str(s.g_after) for s in trace.steps] == ["5/2", "2", "3/2", "2/3"]
        assert trace.anomalies == (3,)


def _grid_shapes(limit: int = 200) -> list[tuple[int, int, int, bool, int]]:
    """(m, n, k, tie_free, P^n) for every valid grid with P^n <= limit."""
    shapes = []
    for m, n, k, tie_free in itertools.product(range(2, 5), range(1, 4), range(1, 5),
                                               (False, True)):
        if tie_free and k < m - 1:
            continue
        size = grid_pref_count(m, k, tie_free) ** n
        if size <= limit:
            shapes.append((m, n, k, tie_free, size))
    return shapes


GRID_SHAPES = _grid_shapes()
SHAPE_BUDGETS = st.sampled_from(GRID_SHAPES).flatmap(
    lambda shape: st.tuples(st.just(shape), st.integers(0, shape[-1] + 1)))


class TestLazyProduct:
    """``experiment minratio`` lists only the grid preferences its budget
    reaches, and walks the same profiles as the whole product."""

    @settings(max_examples=60, deadline=None)
    @given(SHAPE_BUDGETS, st.sampled_from(["rv", "j1:1", "jstar", "mix:1/2*rv+1/2*j1:1"]))
    @example(((3, 2, 2, False, 144), 0), "rv")
    @example(((3, 2, 2, False, 144), 145), "jstar")
    @example(((3, 2, 3, True, 144), 7), "mix:1/2*rv+1/2*j1:1")
    def test_matches_the_whole_product(self, shape_budget, spec):
        (m, n, k, tie_free, size), budget = shape_budget
        args = ["experiment", "minratio", "--mech", spec, "--m", str(m), "--n", str(n),
                "--k", str(k), "--budget", str(budget)] + (["--tie-free"] if tie_free else [])
        result = CliRunner().invoke(main, args)
        mech = mechanisms.parse_mechanism(spec, m, n)
        prefs = list(enumerate_Rk_prefs(m, k, tie_free))
        family = map(Profile, itertools.product(prefs, repeat=n))
        try:
            expected = bounds.min_ratio_search(mech, family, budget)
        except CardvoteError as e:
            assert result.exit_code == 1
            assert result.output == f"Error: {e}\n"
            return
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        del report["config"]
        assert report == {
            "mechanism": mech.name,
            "min_ratio": {"exact": str(expected.ratio),
                          "decimal": format(float(expected.ratio), ".12g")},
            "visited": expected.visited,
            "argmin_profile": profile_to_json_dict(expected.profile),
        }

    @pytest.mark.parametrize(
        "args, message",
        [
            ("--m 1 --n 2 --k 2 --budget -1", "need at least 2 candidates"),
            ("--m 3 --n 2 --k 1 --tie-free --budget 0", "cannot host 3 distinct"),
        ],
    )
    def test_grid_errors_come_before_the_budget(self, runner, args, message):
        # Listing the grid used to check m and k before the budget applied.
        result = runner.invoke(main, ["experiment", "minratio", "--mech", "rv", *args.split()])
        assert result.exit_code == 1
        assert message in result.output

    def test_minratio_on_a_huge_grid_returns(self):
        # 3^3000 grid preferences: listing them never ends, and one profile
        # answers --budget 1.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "cardvote.cli", "experiment", "minratio", "--mech", "rv",
             "--m", "3000", "--n", "2", "--k", "2", "--budget", "1"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["visited"] == 1
        first = next(enumerate_Rk_prefs(3000, 2))
        assert report["argmin_profile"] == profile_to_json_dict(Profile((first, first)))

    @pytest.mark.parametrize("tie_free", [False, True])
    def test_minratio_never_counts_the_family(self, monkeypatch, tie_free):
        # Counting P built (k+1)**m exactly and ran the filter that found
        # the first preference: at k = 10**7 that took seconds.
        def refuse(*args):
            raise AssertionError("minratio counted the grid family")

        monkeypatch.setattr("cardvote.properties.grid_pref_count", refuse)
        args = ["experiment", "minratio", "--mech", "rv", "--m", "3", "--n", "1",
                "--k", str(10**7), "--budget", "1"] + (["--tie-free"] if tie_free else [])
        start = time.perf_counter()
        result = CliRunner().invoke(main, args)
        assert time.perf_counter() - start < 1
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["visited"] == 1
        first = next(enumerate_Rk_prefs(3, 10**7, tie_free))
        assert report["argmin_profile"] == profile_to_json_dict(Profile((first,)))

    def test_minratio_on_a_tie_free_grid_returns(self):
        # 11! tie-free grid preferences at k = m-1: the product filter walked
        # billions of step vectors before the first, and one profile answers
        # --budget 1.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "cardvote.cli", "experiment", "minratio", "--mech", "jstar",
             "--m", "11", "--n", "1", "--k", "10", "--tie-free", "--budget", "1"],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["visited"] == 1
        first = Preference.from_steps(range(11), 10)
        assert report["argmin_profile"] == profile_to_json_dict(Profile((first,)))

    def test_minratio_at_a_huge_tie_free_m_returns(self):
        # Each tie-free level rescanned every used step below its first offer,
        # so the first of these preferences took about 4 minutes.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "cardvote.cli", "experiment", "minratio", "--mech", "rv",
             "--m", "60000", "--n", "1", "--k", str(10**60), "--tie-free", "--budget", "1"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["visited"] == 1 and report["min_ratio"]["exact"] == "1"
        steps = [num * 10**60 // den for num, den in report["argmin_profile"]["prefs"][0]]
        assert steps == [*range(59999), 10**60]


class TestDeterminism:
    def test_identical_reruns_byte_identical(self, runner, tmp_path):
        args = ["experiment", "lower", "--m", "8", "--n", "8", "--k", "512",
                "--grid-step", "8", "--seeds", "0"]
        first = invoke(runner, *args)
        second = invoke(runner, *args)
        assert first.output == second.output

    def test_gen_seeded_determinism(self, runner):
        a = invoke(runner, "gen", "dk", "--m", "8", "--k", "64", "--a", "2",
                   "--b", "2", "--c", "2", "--seed", "5")
        b = invoke(runner, "gen", "dk", "--m", "8", "--k", "64", "--a", "2",
                   "--b", "2", "--c", "2", "--seed", "5")
        assert a.output == b.output


class TestFitSlope:
    def test_minimum_points(self):
        with pytest.raises(DataError):
            fit_slope([(8, F(1, 2)), (27, F(1, 3))])

    def test_monotone_m_required(self):
        with pytest.raises(DataError):
            fit_slope([(8, F(1, 2)), (8, F(1, 3)), (27, F(1, 4))])

    def test_positive_ratio_required(self):
        with pytest.raises(DataError):
            fit_slope([(8, F(1, 2)), (27, F(0)), (64, F(1, 4))])
