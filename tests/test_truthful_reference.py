"""Differential test of the grouped integer truthfulness scan against a
simple exact reference.

The reference below tests every (profile, voter, misreport) with `Fraction`
expected utilities in the documented enumeration order and returns the first
strict gain.  ``check_truthful`` must produce the same report, witness
included, on every case.
"""

from fractions import Fraction

import pytest

from cardvote.core import ZERO, CandidateDistribution, Profile
from cardvote.errors import BudgetError
from cardvote.mechanisms import Mechanism, parse_mechanism
from cardvote.properties import (
    DEFAULT_BUDGET,
    TruthfulnessWitness,
    WitnessReport,
    _GridScan,
    check_truthful,
)


def reference_check_truthful(
    mech, m, n, k, tie_free=False, budget=DEFAULT_BUDGET
) -> WitnessReport:
    scan = _GridScan(mech, m, n, k, tie_free)
    pref_count = len(scan.prefs)
    work = scan.profile_count * n * pref_count
    if work > budget:
        raise BudgetError(work, budget, "truthfulness scan")

    # Expected utility of holding preference p while the ballot box holds
    # the profile encoded by key.
    utility_cache: dict[tuple[int, tuple[int, ...]], Fraction] = {}

    def utility(pref_idx: int, key: tuple[int, ...]) -> Fraction:
        cached = utility_cache.get((pref_idx, key))
        if cached is None:
            values = scan.prefs[pref_idx].values
            probs = scan.dist(key).probs
            cached = sum((p * v for p, v in zip(probs, values)), ZERO)
            utility_cache[(pref_idx, key)] = cached
        return cached

    for key in scan.keys():
        for voter in range(n):
            honest_idx = key[voter]
            honest = utility(honest_idx, key)
            for mis_idx in range(pref_count):
                if mis_idx == honest_idx:
                    continue
                mis_key = key[:voter] + (mis_idx,) + key[voter + 1:]
                gained = utility(honest_idx, mis_key)
                if gained > honest:
                    witness = TruthfulnessWitness(
                        scan.profile(key),
                        voter + 1,
                        scan.prefs[mis_idx],
                        honest,
                        gained,
                    )
                    return WitnessReport(
                        "truthful", mech.name, False, scan.space(), witness
                    )
    return WitnessReport("truthful", mech.name, True, scan.space())


SPECS = [
    "rv",
    "const:2",
    "j1:1",
    "j1:2",
    "j2:1",
    "j2:2",
    "j2:3",
    "jstar",
    "mix:1/2*rv+1/2*j1:1",
    "mix:9/10*j1:1+1/10*rv",
    "sym:rv",
    "sym:j2:1",
]

GRIDS = [(2, 2, 2), (3, 2, 2), (3, 2, 3), (2, 3, 3), (3, 3, 2), (3, 2, 4), (4, 2, 2)]

CASES = [
    (spec, m, n, k, tie_free)
    for spec in SPECS
    for m, n, k in GRIDS
    for tie_free in (False, True)
    if not tie_free or k >= m - 1
] + [("rv", 3, 2, 10, False)]


def _expected_verdict(spec: str, m: int) -> str:
    # Every scheme with a range-voting component is manipulable once there
    # are three candidates; everything else in the table is truthful.
    return "violated" if "rv" in spec and m > 2 else "holds"


def _shared_evaluations(spec: str) -> Mechanism:
    # Both scans read one memo of distributions, so the comparison pays for
    # each mechanism evaluation once.
    mech = parse_mechanism(spec)
    memo: dict[Profile, CandidateDistribution] = {}

    def evaluate(profile: Profile) -> CandidateDistribution:
        found = memo.get(profile)
        if found is None:
            found = memo[profile] = mech.evaluate(profile)
        return found

    return Mechanism(mech.name, evaluate)


@pytest.mark.parametrize("spec,m,n,k,tie_free", CASES)
def test_matches_reference(spec, m, n, k, tie_free):
    mech = _shared_evaluations(spec)
    expected = reference_check_truthful(mech, m, n, k, tie_free).to_json_dict()
    assert expected["verdict"] == _expected_verdict(spec, m)
    assert check_truthful(mech, m, n, k, tie_free).to_json_dict() == expected


def test_cases_exercise_witness_replay():
    # The first-witness replay only runs on violated cases.
    violated = [case for case in CASES if _expected_verdict(case[0], case[1]) == "violated"]
    assert len(violated) >= 30
