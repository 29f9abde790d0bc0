"""Differential tests of the verify path against simple exact references.

``reference_check_truthful`` tests every (profile, voter, misreport) with
`Fraction` expected utilities in the documented enumeration order and
returns the first strict gain.  ``check_truthful`` must produce the same
report, witness included, on every case, both on the orbit walk that a
mechanism flagged ``anonymous`` takes and on the full scan with the flag
forced off.

``reference_check_ordinal`` remembers, per tuple of the voters' weak
orders, the first profile seen with it.  ``check_ordinal`` compares each
profile with the first of its class built from per-preference class heads;
it must return the same report and evaluate the same profiles in the same
order.

Reports are compared as the CLI renders them.  ``reference_verify_body``
writes one hand-written branch per witness class, as ``cli._verify_body``
did before it rendered witnesses field by field; ``cli._verify_body`` must
render every report, a violation of each witness kind included, exactly as
it does.
"""

import dataclasses
import functools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cardvote.cli import _verify_body
from cardvote.core import ZERO, CandidateDistribution, Profile, welfare_vector
from cardvote.errors import BudgetError
from cardvote.mechanisms import Mechanism, parse_mechanism
from cardvote.properties import (
    DEFAULT_BUDGET,
    OrdinalWitness,
    SymmetryWitness,
    TruthfulnessWitness,
    WitnessReport,
    _GridScan,
    _order_pattern,
    check_anonymous,
    check_neutral,
    check_ordinal,
    check_truthful,
)


def _profile_json(profile: Profile) -> list[list[str]]:
    return [[str(v) for v in p.values] for p in profile.prefs]


def reference_verify_body(report: WitnessReport) -> dict:
    out = {
        "check": report.check,
        "mechanism": report.mechanism,
        "verdict": "holds" if report.holds else "violated",
        "search_space": {
            "m": report.search_space.m,
            "n": report.search_space.n,
            "k": report.search_space.k,
            "tie_free": report.search_space.tie_free,
            "preference_count": report.search_space.preference_count,
            "profile_count": report.search_space.profile_count,
        },
    }
    w = report.witness
    if isinstance(w, TruthfulnessWitness):
        out["witness"] = {
            "profile": _profile_json(w.profile),
            "voter": w.voter,
            "misreport": [str(v) for v in w.misreport.values],
            "honest_utility": str(w.honest_utility),
            "misreport_utility": str(w.misreport_utility),
            "gain": str(w.gain),
        }
    elif isinstance(w, OrdinalWitness):
        out["witness"] = {
            "profile_a": _profile_json(w.profile_a),
            "profile_b": _profile_json(w.profile_b),
            "dist_a": [str(p) for p in w.dist_a.probs],
            "dist_b": [str(p) for p in w.dist_b.probs],
        }
    elif isinstance(w, SymmetryWitness):
        out["witness"] = {
            "profile": _profile_json(w.profile),
            "permutation": list(w.permutation),
            "expected": None if w.expected is None
            else [str(p) for p in w.expected.probs],
            "actual": [str(p) for p in w.actual.probs],
        }
    return out


def reference_check_truthful(
    mech, m, n, k, tie_free=False, budget=DEFAULT_BUDGET
) -> WitnessReport:
    scan = _GridScan(mech, m, n, k, tie_free, budget, "truthfulness scan", lambda p: n * p)
    pref_count = len(scan.prefs)
    work = scan.space.profile_count * n * pref_count
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
                    return WitnessReport("truthful", mech.name, scan.space, witness)
    return WitnessReport("truthful", mech.name, scan.space)


def reference_check_ordinal(
    mech, m, n, k, tie_free=False, budget=DEFAULT_BUDGET
) -> WitnessReport:
    scan = _GridScan(mech, m, n, k, tie_free, budget, "ordinal scan", lambda _: 1)
    if scan.space.profile_count > budget:
        raise BudgetError(scan.space.profile_count, budget, "ordinal scan")
    patterns = [_order_pattern(p) for p in scan.prefs]
    seen: dict[tuple, tuple[tuple[int, ...], CandidateDistribution]] = {}
    for key in scan.keys():
        signature = tuple(patterns[i] for i in key)
        dist = scan.dist(key)
        first = seen.get(signature)
        if first is None:
            seen[signature] = (key, dist)
        elif first[1] != dist:
            witness = OrdinalWitness(
                scan.profile(first[0]), scan.profile(key), first[1], dist
            )
            return WitnessReport("ordinal", mech.name, scan.space, witness)
    return WitnessReport("ordinal", mech.name, scan.space)


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


def rv_voter_one_twice() -> Mechanism:
    """Range voting that counts voter 1's utilities twice: not anonymous, so
    it keeps the default full scan, and manipulable like rv from m = 3."""

    def evaluate(profile: Profile) -> CandidateDistribution:
        first = profile.prefs[0].values
        totals = [w + v for w, v in zip(welfare_vector(profile), first)]
        return CandidateDistribution.point(totals.index(max(totals)) + 1, profile.m)

    return Mechanism("rv-voter-1-twice", evaluate)


TEST_DEFINED = {"rv-voter-1-twice": rv_voter_one_twice}

GRIDS = [(2, 2, 2), (3, 2, 2), (3, 2, 3), (2, 3, 3), (3, 3, 2), (3, 2, 4), (4, 2, 2)]

CASES = [
    (spec, m, n, k, tie_free)
    for spec in SPECS + list(TEST_DEFINED)
    for m, n, k in GRIDS
    for tie_free in (False, True)
    if not tie_free or k >= m - 1
] + [("rv", 3, 2, 10, False)]


def _expected_verdict(spec: str, m: int) -> str:
    # Every scheme with a range-voting component is manipulable once there
    # are three candidates; everything else in the table is truthful.
    return "violated" if "rv" in spec and m > 2 else "holds"


def _build(spec: str, m: int, n: int) -> Mechanism:
    return TEST_DEFINED[spec]() if spec in TEST_DEFINED else parse_mechanism(spec, m, n)


@functools.cache
def _memo(spec: str) -> dict[Profile, CandidateDistribution]:
    return {}


def _shared_evaluations(spec: str, flag: str, m: int, n: int) -> Mechanism:
    # The reference and both flag cases read one memo of distributions per
    # spec, so the comparison pays for each mechanism evaluation once.  The
    # wrapper keeps the built flag unless the case forces the full scan.
    mech = _build(spec, m, n)
    memo = _memo(spec)

    def evaluate(profile: Profile) -> CandidateDistribution:
        found = memo.get(profile)
        if found is None:
            found = memo[profile] = mech.evaluate(profile)
        return found

    anonymous = mech.anonymous and flag == "as_built"
    return dataclasses.replace(mech, evaluate=evaluate, anonymous=anonymous)


@functools.cache
def _reference_report(spec: str, m: int, n: int, k: int, tie_free: bool) -> dict:
    # The reference never reads the flag, so both flag cases share one run.
    mech = _shared_evaluations(spec, "forced_off", m, n)
    return reference_verify_body(reference_check_truthful(mech, m, n, k, tie_free))


def _assert_matches_reference(spec, m, n, k, tie_free, flag):
    expected = _reference_report(spec, m, n, k, tie_free)
    assert expected["verdict"] == _expected_verdict(spec, m)
    mech = _shared_evaluations(spec, flag, m, n)
    assert _verify_body(check_truthful(mech, m, n, k, tie_free)) == expected


@pytest.mark.parametrize("spec,m,n,k,tie_free", CASES)
def test_matches_reference(spec, m, n, k, tie_free):
    _assert_matches_reference(spec, m, n, k, tie_free, "as_built")


@pytest.mark.parametrize("spec,m,n,k,tie_free", CASES)
def test_full_scan_matches_reference(spec, m, n, k, tie_free):
    _assert_matches_reference(spec, m, n, k, tie_free, "forced_off")


def test_cases_exercise_witness_replay():
    # The first-witness replay only runs on violated cases.
    violated = [case for case in CASES if _expected_verdict(case[0], case[1]) == "violated"]
    assert len(violated) >= 30


def test_flag_is_set_by_constructors_only():
    assert all(parse_mechanism(spec, 3, 2).anonymous for spec in SPECS)
    # A hand-built mechanism keeps the default full scan.
    assert Mechanism("x", rv_voter_one_twice().evaluate).anonymous is False


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("m,n,k", [(3, 2, 2), (2, 3, 2)])
def test_flagged_specs_are_anonymous(spec, m, n, k):
    assert check_anonymous(parse_mechanism(spec, m, n), m, n, k).holds


def test_unflagged_scheme_is_not_anonymous():
    # The test-defined scheme really needs the full scan.
    assert not check_anonymous(rv_voter_one_twice(), 3, 2, 2).holds


CHECKS = {
    "truthful": check_truthful,
    "ordinal": check_ordinal,
    "neutral": check_neutral,
    "anonymous": check_anonymous,
}


@pytest.mark.parametrize(
    "check,spec,m,n,k,verdict",
    [
        ("truthful", "jstar", 3, 2, 3, "holds"),
        ("ordinal", "j1:1", 3, 2, 2, "holds"),
        ("neutral", "sym:rv", 3, 2, 2, "holds"),
        ("anonymous", "jstar", 3, 2, 2, "holds"),
        ("truthful", "rv", 3, 2, 2, "violated"),
        ("ordinal", "mix:1/2*rv+1/2*j1:1", 3, 2, 4, "violated"),
        ("neutral", "jstar", 3, 2, 2, "violated"),
        ("anonymous", "rv-voter-1-twice", 3, 2, 2, "violated"),
    ],
)
def test_verify_body_matches_reference(check, spec, m, n, k, verdict):
    report = CHECKS[check](_build(spec, m, n), m, n, k)
    expected = reference_verify_body(report)
    assert expected["verdict"] == verdict
    assert _verify_body(report) == expected


# m <= 3, n <= 3 and k <= 3, with a tie-free grid only where it exists.
SMALL_SHAPES = [
    (m, n, k, tie_free)
    for m in (2, 3)
    for n in (1, 2, 3)
    for k in (1, 2, 3)
    for tie_free in (False, True)
    if not tie_free or k >= m - 1
]

# A violating mix, a cardinal scheme, a hand-built scheme that is not
# anonymous, and one that holds on every ordinal grid.
SCAN_SPECS = ["mix:1/2*rv+1/2*j1:1", "rv", "rv-voter-1-twice", "j1:1"]


def _logged(spec: str, m: int, n: int) -> tuple[Mechanism, list[Profile]]:
    mech = _build(spec, m, n)
    log: list[Profile] = []

    def evaluate(profile: Profile) -> CandidateDistribution:
        log.append(profile)
        return mech.evaluate(profile)

    return dataclasses.replace(mech, evaluate=evaluate), log


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_SHAPES), st.sampled_from(SCAN_SPECS))
@example((3, 3, 3, False), "j1:1")
@example((3, 3, 3, False), "mix:1/2*rv+1/2*j1:1")
def test_ordinal_matches_reference(shape, spec):
    # Same report, witness included, and the same evaluations in the same
    # order, so an evaluator error is raised at the same profile.  A ballot
    # scheme is ordinal by construction: it is evaluated once, at the
    # reference's first profile.
    m, n, k, tie_free = shape
    mech, log = _logged(spec, m, n)
    ref_mech, ref_log = _logged(spec, m, n)
    report = check_ordinal(mech, m, n, k, tie_free)
    assert report == reference_check_ordinal(ref_mech, m, n, k, tie_free)
    assert log == (ref_log[:1] if mech.evaluate_ballot else ref_log)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_SHAPES), st.sampled_from(SCAN_SPECS),
       st.sampled_from(sorted(CHECKS)))
@example((3, 3, 3, False), "j1:1", "truthful")
def test_verify_body_matches_reference_on_small_shapes(shape, spec, check):
    m, n, k, tie_free = shape
    report = CHECKS[check](_build(spec, m, n), m, n, k, tie_free)
    assert _verify_body(report) == reference_verify_body(report)


def test_small_shapes_reach_every_witness_kind():
    # The drawn cases above meet a violation of each check.
    cases = [("truthful", "rv"), ("ordinal", "mix:1/2*rv+1/2*j1:1"), ("neutral", "j1:1"),
             ("anonymous", "rv-voter-1-twice")]
    assert not any(CHECKS[check](_build(spec, 3, 2), 3, 2, 3).holds for check, spec in cases)
