"""Hypothesis fuzzing of the input boundary.

Mechanism specs, JSON profile data (as Python values and as file bytes) and
CSV profile text come from outside the program.  Every input must either be
accepted or raise a ``CardvoteError``; through the CLI, that is exit code 0 or
1 with no traceback.  Parsed specs are also evaluated on a one-voter profile,
where a mechanism that cannot apply must fail the same way.  The rational
text that CSV cells, mixture weights, ``--eps`` and ``fit`` rows share goes
through ``core.parse_rational``, which refuses values too long to print.
A parsed spec flagged ``anonymous`` must also give every voter order of a
random grid profile the same distribution, since the truthfulness scan
trusts the flag.  Every parsed spec's name, which each report echoes, parses
back to the same scheme.
"""

import itertools
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cardvote.cli import main
from cardvote.core import (
    Preference,
    Profile,
    parse_rational,
    profile_from_csv_text,
    profile_from_json_dict,
)
from cardvote.errors import CardvoteError, DataError, MechanismSpecError
from cardvote.generators import rand_grid_profile
from cardvote.mechanisms import MAX_NESTING, parse_mechanism

# Specs built from the grammar's own pieces, so most are valid or one token
# away from valid.
atoms = st.one_of(
    st.sampled_from(["rv", "jstar", "j1:1", "j1:2", "j2:1", "j2:2", "const:1", "const:2"]),
    st.builds("{}:{}".format, st.sampled_from(["j1", "j2", "const", "j3", "sym", "mix"]),
              st.integers(-2, 12)),
)
weights = st.one_of(
    st.sampled_from(["1", "0", "1/2", "1/3", "2/3", "-1/2", "1/0", "x", "", "0.5", "5e-1",
                     "1e-5000", "1e", "1e+0", "0.5e+0"]),
    st.fractions(-1, 2, max_denominator=6).map(str),
)


def _extend(inner):
    component = st.builds("{}*{}".format, weights, inner)
    return st.one_of(
        st.builds("sym:{}".format, inner),
        st.builds("({})".format, inner),
        st.lists(component, min_size=1, max_size=3).map(lambda cs: "mix:" + "+".join(cs)),
    )


grammar_specs = st.recursive(atoms, _extend, max_leaves=4)
spec_alphabet = "rvjstaimxcon12:/*+() ,.-"
specs = st.one_of(
    grammar_specs,
    st.text(max_size=30),
    st.text(alphabet=spec_alphabet, max_size=30),
    st.tuples(grammar_specs, st.integers(0, 40), st.text(alphabet=spec_alphabet, max_size=3))
    .map(lambda t: t[0][: t[1]] + t[2] + t[0][t[1]:]),
)

TINY = Profile((Preference.relaxed([1, Fraction(1, 2)]),))


def _outcome(mech):
    """The distribution on ``TINY``, or the type of the error that refuses it."""
    try:
        return mech.evaluate(TINY)
    except CardvoteError as e:
        return type(e)


class TestMechanismSpecs:
    @settings(max_examples=400, deadline=None)
    @given(specs)
    def test_parse_and_evaluate_succeed_or_raise_cardvote_error(self, spec):
        try:
            mech = parse_mechanism(spec, TINY.m, TINY.n)
            dist = mech.evaluate(TINY)
        except CardvoteError:
            return
        assert sum(dist.probs) == 1

    @settings(max_examples=300, deadline=None)
    @given(grammar_specs)
    @example("mix:1/2*(mix:1/2*rv+1/2*j1:1)+1/2*j1:2")
    def test_names_parse_back(self, spec):
        # Every report echoes the name, so it must name the same scheme.
        try:
            mech = parse_mechanism(spec, TINY.m, TINY.n)
        except CardvoteError:
            return
        again = parse_mechanism(mech.name, TINY.m, TINY.n)
        assert again.name == mech.name
        assert _outcome(again) == _outcome(mech)

    @pytest.mark.parametrize("spec", [
        "sym:" * (MAX_NESTING + 1) + "rv",
        "(" * (MAX_NESTING + 1) + "rv" + ")" * (MAX_NESTING + 1),
        "sym:" * 1000 + "rv",
        "(" * 1000 + "rv" + ")" * 1000,
    ], ids=["sym_past_cap", "parens_past_cap", "sym_1000", "parens_1000"])
    def test_deep_nesting_is_a_spec_error(self, spec):
        with pytest.raises(MechanismSpecError, match="nests deeper"):
            parse_mechanism(spec, TINY.m, TINY.n)

    def test_nesting_up_to_the_cap_parses(self):
        spec = "(" * MAX_NESTING + "rv" + ")" * MAX_NESTING
        assert parse_mechanism(spec, TINY.m, TINY.n).evaluate(TINY).probs == (1, 0)

    def test_number_past_int_digit_limit_is_a_spec_error(self):
        with pytest.raises(MechanismSpecError, match="too long"):
            parse_mechanism("j1:" + "1" * 5000, TINY.m, TINY.n)

    @settings(max_examples=300, deadline=None)
    @given(grammar_specs, st.integers(2, 3), st.integers(2, 3), st.integers(1, 3),
           st.integers(0, 2**32))
    def test_anonymous_flag_is_sound(self, spec, m, n, k, seed):
        profile = rand_grid_profile(m, n, k, seed, tie_free=False)
        try:
            mech = parse_mechanism(spec, m, n)
            dist = mech.evaluate(profile)
        except CardvoteError:
            return
        if mech.anonymous:
            for sigma in itertools.permutations(range(n)):
                permuted = Profile(tuple(profile.prefs[i] for i in sigma))
                assert mech.evaluate(permuted) == dist


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
    st.floats(allow_nan=True), st.text(max_size=5),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
    ),
    max_leaves=20,
)
pairs = st.one_of(
    st.tuples(st.integers(-2, 5), st.integers(-2, 5)).map(list),
    st.tuples(st.one_of(st.booleans(), st.integers(0, 2)),
              st.one_of(st.booleans(), st.integers(1, 2))).map(list),
    st.lists(json_scalars, max_size=3),
    json_scalars,
)


@st.composite
def near_profile_dicts(draw):
    m = draw(st.one_of(st.integers(-1, 4), json_scalars))
    n = draw(st.one_of(st.integers(-1, 3), json_scalars))
    rows = draw(st.lists(st.one_of(st.lists(pairs, max_size=4), json_scalars), max_size=3))
    data = {"m": m, "n": n, "prefs": rows}
    for key in draw(st.sets(st.sampled_from(["m", "n", "prefs"]), max_size=1)):
        del data[key]
    return data


csv_text = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="01/2.,-\n\r \"e3x", max_size=40),
    st.lists(
        st.lists(st.one_of(st.fractions(-1, 2, max_denominator=5).map(str),
                           st.sampled_from(["", "x", "1/0", "0.5", "1e0"])),
                 min_size=1, max_size=4).map(",".join),
        min_size=1, max_size=4,
    ).map("\n".join),
)


def _check_profile(load, data) -> bool:
    """Whether ``load`` accepted the data; it must raise nothing but a
    CardvoteError, and what it accepts must be a profile of utilities in
    [0, 1]."""
    try:
        profile = load(data)
    except CardvoteError:
        return False
    assert isinstance(profile, Profile)
    assert all(0 <= v <= 1 for p in profile.prefs for v in p.values)
    return True


class TestProfileLoaders:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(near_profile_dicts(), json_values))
    @example({"m": 2, "n": 1, "prefs": [[[True, 1], [False, 1]]]})
    def test_json_dict_loads_or_raises_cardvote_error(self, data):
        if _check_profile(profile_from_json_dict, data):  # true and false are not integers
            assert not any(isinstance(x, bool) for row in data["prefs"] for pair in row
                           for x in pair)

    @settings(max_examples=300, deadline=None)
    @given(csv_text)
    def test_csv_text_loads_or_raises_cardvote_error(self, text):
        _check_profile(profile_from_csv_text, text)

    @pytest.mark.parametrize("text", ["\r0", "1,0\r0,1", "1," + "0" * 200_000])
    def test_malformed_csv_is_a_data_error(self, text):
        with pytest.raises(DataError):
            profile_from_csv_text(text)


def _eval_file(name: str, data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        return CliRunner().invoke(main, ["eval", "--mech", "rv", "--profile", str(path)])


profile_bytes = st.one_of(
    st.binary(max_size=60),
    near_profile_dicts().map(lambda d: json.dumps(d).encode()),
    json_values.map(lambda v: json.dumps(v).encode()),
    csv_text.map(str.encode),
)


class TestProfileFiles:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(["p.json", "p.csv"]), profile_bytes)
    def test_cli_exits_cleanly(self, name, data):
        result = _eval_file(name, data)
        assert result.exit_code in (0, 1), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            repr(result.exception)
        )

    def test_unprintable_utility_in_csv_exits_1(self):
        result = _eval_file("p.csv", b"1e-5000,1\n1,0\n")
        assert result.exit_code == 1
        assert "not an exact rational" in result.output

    @pytest.mark.parametrize("data", [
        b"1" * 5000,
        b'{"m": 2, "n": 1, "prefs": [[[' + b"1" * 5000 + b', 1], [0, 1]]]}',
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["long_integer", "long_integer_in_pair", "deep_nesting"])
    def test_unparseable_json_exits_1(self, data):
        result = _eval_file("p.json", data)
        assert result.exit_code == 1
        assert "cannot parse profile" in result.output


# More digits, exponent included, than int() converts back to text: such a
# value cannot be printed in a report or an error message.
HUGE = ["1e-5000", "1e5000", "0." + "1" * 3000 + "e-2000", "1" * 3000 + "/" + "3" * 2000]


class TestRationalText:
    @given(st.one_of(
        st.fractions(max_denominator=10 ** 6).map(str),
        st.decimals(allow_nan=False, allow_infinity=False, places=6).map(str),
        st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-30, 30)),
    ))
    def test_matches_fraction_on_ordinary_text(self, text):
        assert parse_rational(text) == Fraction(text)

    @pytest.mark.parametrize("text", HUGE, ids=["exp_neg", "exp_pos", "long_decimal", "long_pq"])
    def test_rejects_values_too_long_to_print(self, text):
        with pytest.raises(ValueError, match="exceeds the limit"):
            parse_rational(text)

    def test_exponent_up_to_the_limit_is_accepted(self):
        assert parse_rational("1e-4299") == Fraction(1, 10 ** 4299)

    @pytest.mark.parametrize("args", [
        ["eval", "--mech", "mix:1e-5000*rv+1*rv", "--profile", "p.csv"],
        ["gen", "cyclic", "--m", "3", "--star", "1", "--eps", "1e-5000"],
        ["fit", "--data", "huge.csv"],
    ], ids=["mix_weight", "eps", "fit_ratio"])
    def test_cli_rejects_huge_rationals(self, args):
        result = _invoke_with_files(args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), repr(result.exception)


FIT_DATA = {
    "huge.csv": "m,ratio\n8,1/2\n27,1e-5000\n64,1/8\n",
    "underflow.csv": "m,ratio\n8,1/2\n27,1e-400\n64,1/8\n",
    "overflow.csv": "m,ratio\n8,1/2\n27,1e400\n64,1/8\n",
    "zero_m.csv": "m,ratio\n0,1/2\n27,1/4\n64,1/8\n",
    "bare_cr.csv": "m,ratio\n8,1/2\r3\n27,1/4\n64,1/8\n",
    "long_field.csv": "m,ratio\n8," + "1" * 200_000 + "\n27,1/4\n64,1/8\n",
}


def _invoke_with_files(args):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "p.csv").write_text("1,0\n0,1\n")
        for name, text in FIT_DATA.items():
            (Path(tmp) / name).write_text(text)
        args = [str(Path(tmp) / a) if a.endswith(".csv") else a for a in args]
        return CliRunner().invoke(main, args)


@pytest.mark.parametrize("name, message", [
    ("underflow.csv", "outside the range of a float"),
    ("overflow.csv", "outside the range of a float"),
    ("zero_m.csv", "nonpositive m"),
])
def test_fit_rejects_points_without_a_float_logarithm(name, message):
    result = _invoke_with_files(["fit", "--data", name])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert message in result.output


@pytest.mark.parametrize("name", ["bare_cr.csv", "long_field.csv"])
def test_fit_rejects_malformed_csv(name):
    # csv.DictReader raises csv.Error on a bare carriage return inside a line
    # and on a field past csv.field_size_limit().
    result = _invoke_with_files(["fit", "--data", name])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert "malformed CSV" in result.output
