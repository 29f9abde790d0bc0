"""Ordinal, anonymous and neutral verdicts of ballot schemes without the
grid walk.

A ballot scheme reads only the voters' tie-broken strict orders, so it is
ordinal and anonymous by construction: its ordinal and anonymous scans
evaluate it once, at the first grid profile, and report "holds".  Its
neutral scan checks one profile per multiset of weak orders.  Each verdict
must equal the reference scan's, witness included (``run_both``); an
evaluator error must still surface with its message; and the ordinal and
anonymous verdicts must not build the grid.
"""

from __future__ import annotations

import dataclasses

import pytest
from click.testing import CliRunner

from cardvote import properties
from cardvote.cli import main
from cardvote.mechanisms import parse_mechanism
from cardvote.properties import (
    check_anonymous,
    check_neutral,
    check_ordinal,
    grid_pref_count,
)
from test_scan_reference import PAIRS, SHAPES, assert_same_report, run_both

# Two nested mixtures, each a ballot scheme at every shape below.
NESTED_MIXES = [
    "mix:1/2*j1:1+1/2*(mix:1/3*jstar+2/3*j2:2)",
    "mix:1/4*const:1+3/4*(mix:1/2*j1:2+1/2*j2:1)",
]

# The reference shapes, plus (3,3,3) in both tie modes and (4,2,2) with
# ties; tie-free, k = 2 has no grid at m = 4 (it needs k >= m - 1), so
# (4,2,3) stands in for it.
BALLOT_SHAPES = SHAPES + [
    (3, 3, 3, False), (3, 3, 3, True), (4, 2, 2, False), (4, 2, 3, True),
]


def ballot_specs(m: int, n: int) -> list[str]:
    """Every top-q quota 1..m, every pairwise quota 1..n+1, a constant, the
    stacked lottery and the nested mixtures."""
    return ([f"j1:{q}" for q in range(1, m + 1)] + [f"j2:{q}" for q in range(1, n + 2)]
            + ["const:1", "jstar"] + NESTED_MIXES)


CASES = [(check, spec, shape)
         for shape in BALLOT_SHAPES
         for spec in ballot_specs(*shape[:2])
         for check in sorted(PAIRS)]


@pytest.mark.parametrize("check, spec, shape", CASES)
def test_ballot_scan_matches_reference(check, spec, shape):
    assert parse_mechanism(spec, *shape[:2]).evaluate_ballot is not None
    report = run_both(check, spec, shape)
    if check != "neutral":
        assert report.holds


@pytest.mark.parametrize("spec", ["jstar", "j1:1", "const:1"])
def test_tied_neutral_violations_keep_their_witness(spec):
    # With ties a ballot scheme breaks them toward the lower candidate, so
    # relabeling can move its outcome.  The first failing multiset of weak
    # orders names the key where the profile-keyed walk of the same
    # evaluator finds its first witness.
    report = run_both("neutral", spec, (3, 2, 2, False))
    assert not report.holds
    mech = parse_mechanism(spec, 3, 2)
    walk = check_neutral(dataclasses.replace(mech, evaluate_ballot=None), 3, 2, 2)
    assert_same_report(report, walk)


@pytest.mark.parametrize("check", [check_ordinal, check_anonymous])
def test_large_grid_builds_one_preference(check, monkeypatch):
    # (4,1,300) tie-free holds 1,069,224 preferences; the verdict draws one.
    drawn = []
    enumerate_prefs = properties.enumerate_Rk_prefs

    def counted(*args, **kwargs):
        for pref in enumerate_prefs(*args, **kwargs):
            drawn.append(pref)
            yield pref

    monkeypatch.setattr(properties, "enumerate_Rk_prefs", counted)
    report = check(parse_mechanism("j1:1", 4, 1), 4, 1, 300, tie_free=True)
    assert report.holds
    assert report.search_space.preference_count == grid_pref_count(4, 300, True) == 1_069_224
    assert len(drawn) <= 1


@pytest.mark.parametrize("check", ["ordinal", "anonymous", "neutral"])
@pytest.mark.parametrize("spec, message", [
    ("j1:4", "Error: q=4 exceeds candidate count 3"),
    ("const:5", "Error: candidate 5 out of range 1..3"),
])
def test_cli_evaluator_errors_unchanged(check, spec, message):
    result = CliRunner().invoke(
        main, ["verify", check, "--mech", spec, "--m", "3", "--n", "2", "--k", "2"])
    assert result.exit_code == 1
    assert result.output.strip() == message


@pytest.mark.parametrize("check", ["ordinal", "anonymous"])
def test_cli_zero_weight_part_is_not_evaluated(check):
    # j1:9 would raise at m = 3, but its weight is 0.
    result = CliRunner().invoke(main, [
        "verify", check, "--mech", "mix:1*j1:1+0*j1:9", "--m", "3", "--n", "2", "--k", "2"])
    assert result.exit_code == 0
    assert '"verdict": "holds"' in result.output
