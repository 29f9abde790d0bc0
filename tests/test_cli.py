"""End-to-end CLI coverage via click's test runner."""

import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from cardvote.cli import fit_slope, main
from cardvote.errors import DataError

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
            "experiment cyclic --m 0",
            "experiment cyclic --m 3,0",
            "experiment minratio --mech rv --m 2 --n 1 --k 2 --budget -1",
            "experiment minratio --mech rv --m 2 --n 1 --k 2 --budget 99999999999999999999",
            "experiment negative --m 8 --repeat 99999999999999999999",
            "gen negative --m 8 --repeat 99999999999999999999",
            "experiment lower --m 8 --n 0 --k 32 --grid-step 1",
            "experiment lower --m 8 --n -3 --k 32 --grid-step 1",
            "experiment lower --m 8 --n 2 --k 32 --grid-step 1 --seeds ,",
            "experiment lower --m 8 --n 5 --k 32 --grid-step 9",
            "experiment negative --m ,",
            "experiment cyclic --m ,",
        ],
    )
    def test_bad_flag(self, runner, args):
        result = invoke(runner, *args.split())
        assert result.exit_code == 1
        assert "Traceback" not in result.output
        assert result.output.startswith("Error: ")

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
