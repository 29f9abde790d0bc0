"""Differential tests of the ordinal, neutral and anonymous grid scans.

The reference bodies below are the scans as they were before they compared
distributions as ``(den, nums)`` integers and permuted keys with
``operator.itemgetter``: they build every permuted key with a generator,
build and validate an expected `CandidateDistribution` for every (key, tau)
of the neutral scan, and compare with the dataclass ``==``.  They take the
gate, the search space and the preference list from ``_GridScan`` but build
profiles and cache distributions themselves.

Each comparison checks the report field by field, the witness included,
and the evaluations the mechanism saw, in order, so an evaluator error is
raised at the same profile.  A ballot scheme (``jstar``, ``j1:1``,
``const:1``) reads only the voters' tie-broken strict orders: its ordinal
and anonymous verdicts follow from one evaluation, at the reference's
first profile, and its neutral scan evaluates it once per ballot, first at
that profile, and when it holds reads every ballot the reference reads.
The schemes are ones that hold and test-defined violators: voter 1's
favorite (a dictatorship, not anonymous), ``const:1`` (not neutral) and
``rv`` (not ordinal).  The shapes cover n = 1, where no non-identity
voter permutation exists, and m = 2.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from cardvote.core import CandidateDistribution, Profile
from cardvote.mechanisms import Mechanism, parse_mechanism
from cardvote.properties import (
    DEFAULT_BUDGET,
    OrdinalWitness,
    SymmetryWitness,
    WitnessReport,
    _GridScan,
    _order_pattern,
    check_anonymous,
    check_neutral,
    check_ordinal,
)


class ReferenceScan:
    """The budget gate, search space and grid of ``_GridScan``, with a
    profile builder and a distribution memo of its own."""

    def __init__(self, mech, m, n, k, tie_free, budget, what, work):
        self.gate = _GridScan(mech, m, n, k, tie_free, budget, what, work)
        self.mech, self.prefs, self.space = mech, self.gate.prefs, self.gate.space
        self.memo: dict[tuple[int, ...], CandidateDistribution] = {}

    def keys(self):
        return itertools.product(range(len(self.prefs)), repeat=self.space.n)

    def profile(self, key) -> Profile:
        return Profile(tuple(self.prefs[i] for i in key))

    def dist(self, key) -> CandidateDistribution:
        if key not in self.memo:
            self.memo[key] = self.mech.evaluate(self.profile(key))
        return self.memo[key]

    def report(self, check, witness=None) -> WitnessReport:
        return WitnessReport(check, self.mech.name, self.space, witness)


def reference_check_ordinal(mech, m, n, k, tie_free=False, budget=DEFAULT_BUDGET):
    scan = ReferenceScan(mech, m, n, k, tie_free, budget, "ordinal scan", lambda _: 1)
    firsts: dict[tuple[int, ...], int] = {}
    head = [firsts.setdefault(_order_pattern(p), i) for i, p in enumerate(scan.prefs)]
    for key in scan.keys():
        dist = scan.dist(key)
        first = tuple(head[i] for i in key)
        first_dist = scan.dist(first)
        if first_dist != dist:
            witness = OrdinalWitness(scan.profile(first), scan.profile(key), first_dist, dist)
            return scan.report("ordinal", witness)
    return scan.report("ordinal")


def reference_check_neutral(mech, m, n, k, tie_free=False, budget=DEFAULT_BUDGET):
    scan = ReferenceScan(mech, m, n, k, tie_free, budget, "neutrality scan",
                         lambda _: math.factorial(m))
    perms = list(itertools.permutations(range(1, m + 1)))
    index = {p.nums: i for i, p in enumerate(scan.prefs)}
    relabelings = [(tau, [index[tuple(p.nums[t - 1] for t in tau)] for p in scan.prefs])
                   for tau in perms[1:]]
    for key in scan.keys():
        base = scan.dist(key)
        for tau, relabel in relabelings:
            actual = scan.dist(tuple(relabel[i] for i in key))
            expected = CandidateDistribution(
                base.den, tuple(base.nums[tau[j] - 1] for j in range(m))
            )
            if actual != expected:
                witness = SymmetryWitness(scan.profile(key), tau, expected, actual)
                return scan.report("neutral", witness)
    return scan.report("neutral")


def reference_check_anonymous(mech, m, n, k, tie_free=False, budget=DEFAULT_BUDGET):
    scan = ReferenceScan(mech, m, n, k, tie_free, budget, "anonymity scan",
                         lambda _: math.factorial(n))
    perms = list(itertools.permutations(range(n)))
    for key in scan.keys():
        base = scan.dist(key)
        for sigma in perms[1:]:
            permuted_key = tuple(key[sigma[i]] for i in range(n))
            actual = scan.dist(permuted_key)
            if actual != base:
                permutation = tuple(s + 1 for s in sigma)
                witness = SymmetryWitness(scan.profile(key), permutation, base, actual)
                return scan.report("anonymous", witness)
    return scan.report("anonymous")


PAIRS = {
    "ordinal": (check_ordinal, reference_check_ordinal),
    "neutral": (check_neutral, reference_check_neutral),
    "anonymous": (check_anonymous, reference_check_anonymous),
}


def voter_one_favorite() -> Mechanism:
    """Voter 1's favorite wins: a dictatorship, neutral on tie-free grids
    and ordinal, but not anonymous once n >= 2."""

    def evaluate(profile: Profile) -> CandidateDistribution:
        return CandidateDistribution.point(profile.prefs[0].order[0], profile.m)

    return Mechanism("voter-1-favorite", evaluate)


def build(spec: str, m: int, n: int) -> Mechanism:
    return voter_one_favorite() if spec == "voter-1-favorite" else parse_mechanism(spec, m, n)


def logged(spec: str, m: int, n: int) -> tuple[Mechanism, list[Profile]]:
    mech, log = build(spec, m, n), []

    def evaluate(profile: Profile) -> CandidateDistribution:
        log.append(profile)
        return mech.evaluate(profile)

    return dataclasses.replace(mech, evaluate=evaluate), log


SPECS = ["rv", "const:1", "jstar", "j1:1", "mix:1/2*rv+1/2*j1:1", "voter-1-favorite"]

# (m, n, k, tie_free): n = 1 and m = 2 included.
SHAPES = [
    (2, 1, 1, False), (2, 1, 3, False), (2, 2, 1, True), (2, 2, 2, False),
    (2, 3, 2, False), (3, 1, 2, False), (3, 1, 3, True), (3, 2, 2, False),
    (3, 2, 3, True), (3, 3, 2, True), (4, 1, 3, True), (4, 2, 1, False),
]


def assert_same_report(got: WitnessReport, expected: WitnessReport) -> None:
    for field in dataclasses.fields(WitnessReport):
        if field.name != "witness":
            assert getattr(got, field.name) == getattr(expected, field.name), field.name
    assert type(got.witness) is type(expected.witness)
    if expected.witness is not None:
        for field in dataclasses.fields(expected.witness):
            mine = getattr(got.witness, field.name)
            theirs = getattr(expected.witness, field.name)
            assert type(mine) is type(theirs) and mine == theirs, field.name
    assert got == expected


def ballot_of(profile: Profile) -> tuple[tuple[int, ...], ...]:
    """The profile's multiset of tie-broken strict orders, sorted."""
    return tuple(sorted(p.order for p in profile.prefs))


def run_both(check: str, spec: str, shape) -> WitnessReport:
    # A ballot scheme's ordinal and anonymous scans evaluate it once, at the
    # reference's first profile.  Its neutral scan evaluates it once per
    # ballot, first at that profile, and reads the reference's ballots when
    # it holds.  Any other scheme is evaluated at every profile the
    # reference evaluates, in the same order.
    fast, reference = PAIRS[check]
    mech, log = logged(spec, *shape[:2])
    ref_mech, ref_log = logged(spec, *shape[:2])
    report = fast(mech, *shape)
    assert_same_report(report, reference(ref_mech, *shape))
    if mech.evaluate_ballot is None:
        assert log == ref_log
    elif check != "neutral":
        assert log == ref_log[:1]
    else:
        assert log[:1] == ref_log[:1]
        ballots = [ballot_of(profile) for profile in log]
        assert len(set(ballots)) == len(ballots)
        if report.holds:
            assert set(ballots) == {ballot_of(profile) for profile in ref_log}
    return report


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(PAIRS)), st.sampled_from(SPECS), st.sampled_from(SHAPES))
@example("anonymous", "voter-1-favorite", (3, 2, 2, False))
@example("neutral", "const:1", (2, 1, 1, False))
@example("ordinal", "rv", (3, 2, 3, True))
def test_scan_matches_reference(check, spec, shape):
    run_both(check, spec, shape)


@pytest.mark.parametrize("check, spec, shape, holds", [
    ("anonymous", "voter-1-favorite", (3, 2, 2, False), False),
    ("anonymous", "voter-1-favorite", (2, 3, 2, False), False),
    ("anonymous", "voter-1-favorite", (3, 1, 3, True), True),  # n = 1: no sigma but the identity
    ("anonymous", "jstar", (3, 3, 2, True), True),
    ("neutral", "const:1", (2, 1, 1, False), False),
    ("neutral", "const:1", (3, 2, 3, True), False),
    ("neutral", "voter-1-favorite", (3, 2, 3, True), True),
    ("neutral", "jstar", (3, 2, 2, False), False),
    ("neutral", "jstar", (3, 2, 3, True), True),
    ("ordinal", "rv", (3, 2, 3, True), False),
    ("ordinal", "rv", (3, 2, 2, False), True),
    ("ordinal", "rv", (2, 2, 2, False), True),  # m = 2: every grid voter is a point mass
    ("ordinal", "rv", (3, 1, 3, True), True),
    ("ordinal", "j1:1", (4, 2, 1, False), True),
    ("ordinal", "voter-1-favorite", (2, 3, 2, False), True),
])
def test_verdicts_and_witnesses_match_reference(check, spec, shape, holds):
    report = run_both(check, spec, shape)
    assert report.holds is holds
