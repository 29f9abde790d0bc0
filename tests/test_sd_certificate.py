"""The stochastic-dominance certificate of ``check_truthful`` against simple
exact references.

``properties._sd_holds`` decides Gibbard's stochastic-dominance condition
for a ballot scheme at (m, n) over one pass of strict-order multisets.
``reference_sd_holds`` decides it the long way: for every multiset of
strict orders, every voter, every strict misreport and every utility that
is the indicator of a prefix of the voter's order, in `Fraction`s, through
``evaluate`` on a profile of tie-free voters.

When the condition holds, ``check_truthful`` returns "holds" without a grid
walk; when it fails, the grid scan runs as before.  Either way the report
must be the one the grid scan alone gives, which a profile scheme with the
same ``evaluate`` forces.  Borda and plurality winners, defined here as
ballot schemes, fail the condition from m = 3 on and exercise the fallback.
"""

import itertools
import operator
from fractions import Fraction

import pytest

from cardvote.cli import _verify_body
from cardvote.core import Ballot, CandidateDistribution, Preference, Profile
from cardvote.mechanisms import Mechanism, _ballot_scheme, parse_mechanism
from cardvote.properties import _GridScan, _sd_holds, _sd_steps, check_truthful
from test_truthful_reference import CASES, _build


def _winner(scores: list[int], m: int) -> CandidateDistribution:
    # Score ties go to the lowest candidate index.
    return CandidateDistribution.point(scores.index(max(scores)) + 1, m)


def borda() -> Mechanism:
    def evaluate_ballot(ballot: Ballot) -> CandidateDistribution:
        m = ballot.m
        return _winner([sum(count * (m - 1 - place) for place, count in enumerate(row))
                        for row in ballot.places], m)

    return _ballot_scheme("borda", evaluate_ballot)


def plurality() -> Mechanism:
    def evaluate_ballot(ballot: Ballot) -> CandidateDistribution:
        return _winner([row[0] for row in ballot.places], ballot.m)

    return _ballot_scheme("plurality", evaluate_ballot)


TEST_DEFINED = {"borda": borda, "plurality": plurality}

BALLOT_SPECS = ["const:2", "j1:1", "j1:2", "j2:1", "j2:2", "j2:3", "jstar",
                "mix:1/3*j1:1+2/3*j1:2", "mix:1/2*jstar+1/2*j2:2"]


def build(spec: str, m: int, n: int) -> Mechanism:
    return TEST_DEFINED[spec]() if spec in TEST_DEFINED else parse_mechanism(spec, m, n)


def strict_voter(order: tuple[int, ...]) -> Preference:
    """A tie-free voter whose strict order is ``order``."""
    m = len(order)
    values = [Fraction(0)] * m
    for place, cand in enumerate(order):
        values[cand - 1] = Fraction(m - 1 - place, m - 1)
    return Preference.normalized(values)


def reference_sd_holds(mech: Mechanism, m: int, n: int) -> bool:
    orders = list(itertools.permutations(range(1, m + 1)))
    dists: dict[tuple, tuple[Fraction, ...]] = {}

    def prefix_masses(profile_orders: tuple, order: tuple[int, ...]) -> list[Fraction]:
        # The voters' expected utilities for the indicators of the m-1
        # proper prefixes of order.
        probs = dists.get(profile_orders)
        if probs is None:
            profile = Profile(tuple(map(strict_voter, profile_orders)))
            probs = dists[profile_orders] = mech.evaluate(profile).probs
        return list(itertools.accumulate(probs[c - 1] for c in order[:-1]))

    for ballot in itertools.combinations_with_replacement(orders, n):
        for voter in range(n):
            honest = ballot[voter]
            own = prefix_masses(ballot, honest)
            for misreport in orders:
                reported = ballot[:voter] + (misreport,) + ballot[voter + 1:]
                if any(map(operator.gt, prefix_masses(reported, honest), own)):
                    return False
    return True


SD_SHAPES = [(2, n) for n in (1, 2, 3, 4)] + [(3, n) for n in (1, 2, 3, 4)] + [(4, 1), (4, 2)]


@pytest.mark.parametrize("m,n", SD_SHAPES)
@pytest.mark.parametrize("spec", BALLOT_SPECS + sorted(TEST_DEFINED))
def test_sd_matches_reference(spec, m, n):
    mech = build(spec, m, n)
    assert _sd_holds(mech, m, n) == reference_sd_holds(mech, m, n)


@pytest.mark.parametrize("m,n", [(m, n) for m, n in SD_SHAPES if m >= 3 and n >= 2])
@pytest.mark.parametrize("spec", sorted(TEST_DEFINED))
def test_sd_flags_borda_and_plurality(spec, m, n):
    assert not _sd_holds(build(spec, m, n), m, n)


def forced_grid_scan(mech: Mechanism) -> Mechanism:
    """The same scheme as a profile scheme, which the grid scan alone decides."""
    return Mechanism(mech.name, mech.evaluate, anonymous=True)


BALLOT_CASES = [case for case in CASES
                if _build(case[0], case[1], case[2]).evaluate_ballot is not None]


def test_reference_cases_include_ballot_schemes():
    assert {case[0] for case in BALLOT_CASES} == {
        "const:2", "j1:1", "j1:2", "j2:1", "j2:2", "j2:3", "jstar"}


@pytest.mark.parametrize("spec,m,n,k,tie_free", BALLOT_CASES)
def test_report_equals_forced_grid_scan(spec, m, n, k, tie_free):
    mech = _build(spec, m, n)
    expected = _verify_body(check_truthful(forced_grid_scan(mech), m, n, k, tie_free))
    assert _verify_body(check_truthful(mech, m, n, k, tie_free)) == expected


# (spec, m, n, k, tie_free) where the condition fails but the grid holds.
# On the 0/1 grid at k = 1 a voter's tie-broken favorite is the lowest
# candidate worth 1 to them; of two plurality voters, one who loses their
# favorite can only move the win to a lower candidate, worth 0.
SD_FAILS_GRID_HOLDS = {("plurality", 3, 2, 1, False)}

FALLBACK_SHAPES = [(m, n, k, tie_free) for m, n, k in [(3, 2, 1), (3, 2, 2), (3, 2, 3), (3, 3, 2),
                                                      (3, 3, 3), (4, 2, 2)]
                   for tie_free in (False, True) if not tie_free or k >= m - 1]


@pytest.mark.parametrize("m,n,k,tie_free", FALLBACK_SHAPES)
@pytest.mark.parametrize("spec", sorted(TEST_DEFINED))
def test_fallback_returns_first_grid_witness(spec, m, n, k, tie_free):
    mech = build(spec, m, n)
    scan = _GridScan(mech, m, n, k, tie_free, 10 ** 7, "truthfulness scan",
                     lambda p: n * p, orbits=True)
    assert _sd_steps(m, n) <= scan.priced  # the certificate runs, and fails
    assert not _sd_holds(mech, m, n)
    report = check_truthful(mech, m, n, k, tie_free)
    assert _verify_body(report) == _verify_body(
        check_truthful(forced_grid_scan(mech), m, n, k, tie_free))
    assert report.holds == ((spec, m, n, k, tie_free) in SD_FAILS_GRID_HOLDS)


def test_certified_scan_walks_no_grid_key(monkeypatch):
    def keys(self):
        raise AssertionError("the grid was walked")

    monkeypatch.setattr(_GridScan, "keys", keys)
    report = check_truthful(parse_mechanism("jstar", 3, 3), 3, 3, 3)
    assert report.holds and report.search_space.profile_count == 18 ** 3
    with pytest.raises(AssertionError, match="the grid was walked"):
        check_truthful(plurality(), 3, 3, 3)


def test_certificate_runs_only_within_the_gated_work():
    # At m = 2 the grid holds two preferences, and the certificate's two
    # groups of two outcomes on two candidate sets cost 8 steps against the
    # grid's C(3, 2) * 2 * 2 = 12; at (4, 2, 1) the grid holds 14 of the 24
    # strict orders, so the certificate's 24 * 24 * 14 steps exceed it.
    def gated(m, n, k):
        return _GridScan(plurality(), m, n, k, False, 10 ** 7, "truthfulness scan",
                         lambda p: n * p, orbits=True).priced

    assert _sd_steps(2, 2) == 8 <= gated(2, 2, 5) == 12
    assert _sd_steps(4, 2) == 24 * 24 * 14 > gated(4, 2, 1) == 105 * 2 * 14
