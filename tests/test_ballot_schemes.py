"""Ballot schemes against the profile evaluators they replaced.

A ballot scheme (``j1:q``, ``j2:q``, ``const:j``, ``jstar`` and every
mixture of them) reads a profile only through ``Profile.ballot``, the
voters' tie-broken strict orders with their multiplicities.  The references
below are the profile evaluators these schemes had before the ballot: the
same formulas over the tables counted voter by voter.  Each scheme must
give the same distribution, or raise the same error, on every profile;
re-valuing voters without changing their tie-broken orders must leave its
distribution unchanged; and a grid scan must evaluate it at most once per
ballot, with the same report as the scan of the same evaluator as a
profile scheme.
"""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cardvote.core import Ballot, CandidateDistribution, Preference, Profile
from cardvote.errors import CardvoteError, OutOfRangeError, PreconditionError
from cardvote.generators import rand_grid_profile
from cardvote.mechanisms import (
    Mechanism,
    _weighted_sum,
    integer_cbrt,
    pair_units,
    parse_mechanism,
    top_q_counts,
)
from cardvote.properties import check_anonymous, check_ordinal, check_truthful
from test_ballot_reference import chunked_pairwise_beats, tied_profiles, voter_places
from test_sd_certificate import plurality


def profile_j1q(q: int) -> Mechanism:
    def evaluate(profile: Profile) -> CandidateDistribution:
        places = voter_places(profile)
        if q > len(places):
            raise OutOfRangeError(f"q={q} exceeds candidate count {len(places)}")
        return CandidateDistribution.over(profile.n * q, top_q_counts(places, q))

    return Mechanism(f"j1:{q}", evaluate, anonymous=True)


def profile_j2q(q: int) -> Mechanism:
    def evaluate(profile: Profile) -> CandidateDistribution:
        m = profile.m
        units = pair_units(chunked_pairwise_beats(profile), profile.n, q)
        return CandidateDistribution.over(m * (m - 1), units)

    return Mechanism(f"j2:{q}", evaluate, q=q, anonymous=True)


def profile_constant(j: int) -> Mechanism:
    def evaluate(profile: Profile) -> CandidateDistribution:
        if not 1 <= j <= profile.m:
            raise OutOfRangeError(f"candidate {j} out of range 1..{profile.m}")
        return CandidateDistribution.point(j, profile.m)

    return Mechanism(f"const:{j}", evaluate, anonymous=True)


def profile_j_star(m: int) -> Mechanism:
    t = integer_cbrt(m)

    def evaluate(profile: Profile) -> CandidateDistribution:
        places = voter_places(profile)
        if len(places) != m:
            raise PreconditionError(f"stacked lottery fixed at m={m}; got m={profile.m}")
        return CandidateDistribution.over(
            2 * profile.n * t, [t * row[0] + sum(row[:t]) for row in places])

    return Mechanism("jstar", evaluate, anonymous=True)


def profile_mix(parts) -> Mechanism:
    def evaluate(profile: Profile) -> CandidateDistribution:
        dists = ((w, mech.evaluate(profile)) for w, mech in parts if w)
        return _weighted_sum(profile.m, ((w, d.den, d.nums) for w, d in dists))

    return Mechanism("mix", evaluate, anonymous=True)


def reference(spec: str, m: int) -> Mechanism:
    """The profile evaluator of a spec that ``specs`` draws."""
    if spec.startswith("mix:"):
        parts = []
        for token in spec[len("mix:"):].split("+"):
            weight, sub = token.split("*")
            parts.append((Fraction(weight), reference(sub, m)))
        return profile_mix(parts)
    if spec == "jstar":
        return profile_j_star(m)
    head, arg = spec.split(":")
    return {"j1": profile_j1q, "j2": profile_j2q, "const": profile_constant}[head](int(arg))


@st.composite
def simple_specs(draw):
    return draw(st.one_of(
        st.integers(1, 8).map("j1:{}".format),
        st.integers(1, 9).map("j2:{}".format),
        st.integers(1, 8).map("const:{}".format),
        st.just("jstar"),
    ))


@st.composite
def specs(draw):
    parts = draw(st.lists(simple_specs(), min_size=1, max_size=3))
    if len(parts) == 1:
        return parts[0]
    weights = [Fraction(1, len(parts))] * len(parts)
    if draw(st.booleans()):  # a zero-weight part is not evaluated
        weights = [Fraction(0)] + [Fraction(1, len(parts) - 1)] * (len(parts) - 1)
    return "mix:" + "+".join(f"{w}*{p}" for w, p in zip(weights, parts))


@st.composite
def profiles(draw):
    if draw(st.booleans()):
        return draw(tied_profiles())
    m, n, k = draw(st.integers(2, 7)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    return rand_grid_profile(m, n, k, draw(st.integers(0, 10 ** 6)), tie_free=False)


def outcome(mech: Mechanism, profile: Profile):
    try:
        return mech.evaluate(profile)
    except CardvoteError as e:
        return type(e), str(e)


def same_orders(pref: Preference, gaps: list[int]) -> Preference:
    """A preference with new values whose tie-broken strict order is
    ``pref.order``: walking the order from last to first, each value exceeds
    the one after it by its gap, and by at least one where a tie would break
    the other way (toward the lower index)."""
    order, steps = pref.order, [0] * pref.m
    step = 0
    for place in range(pref.m - 2, -1, -1):
        step += gaps[place] + (order[place] > order[place + 1])
        steps[order[place] - 1] = step
    return Preference.relaxed(Fraction(s, max(step, 1)) for s in steps)


class TestBallotSchemes:
    @settings(max_examples=200, deadline=None)
    @given(specs(), profiles())
    def test_matches_profile_evaluator(self, spec, profile):
        mech = parse_mechanism(spec, profile.m, profile.n)
        assert mech.evaluate_ballot is not None and mech.anonymous
        assert outcome(mech, profile) == outcome(reference(spec, profile.m), profile)

    @settings(max_examples=100, deadline=None)
    @given(specs(), profiles(), st.data())
    def test_revaluing_voters_keeps_the_distribution(self, spec, profile, data):
        gaps = st.lists(st.integers(0, 3), min_size=profile.m - 1, max_size=profile.m - 1)
        revalued = Profile(tuple(same_orders(p, data.draw(gaps)) for p in profile.prefs))
        assert [p.order for p in revalued.prefs] == [p.order for p in profile.prefs]
        mech = parse_mechanism(spec, profile.m, profile.n)
        assert outcome(mech, revalued) == outcome(mech, profile)

    def test_profile_schemes_keep_no_ballot_evaluator(self):
        for spec in ("rv", "sym:j1:1", "mix:1/2*rv+1/2*j1:1", "sym:jstar"):
            assert parse_mechanism(spec, 3, 2).evaluate_ballot is None
        assert parse_mechanism("mix:1/2*j1:1+1/2*(mix:1/3*jstar+2/3*j2:2)", 3, 2).evaluate_ballot


SCANS = {"ordinal": check_ordinal, "anonymous": check_anonymous, "truthful": check_truthful}

# Evaluations of each scan on jstar at (3, 3, 3) as a profile scheme, with
# ties and tie-free: every key for the ordinal and anonymous scans, one
# sorted key per voter-permutation orbit for the truthfulness scan.
PROFILE_SCHEME_EVALUATIONS = {
    ("ordinal", False): 5832, ("anonymous", False): 5832, ("truthful", False): 1140,
    ("ordinal", True): 1728, ("anonymous", True): 1728, ("truthful", True): 364,
}


def logged(mech: Mechanism) -> tuple[Mechanism, list[tuple[str, Ballot]]]:
    """The scheme with each evaluation logged as (entry point, ballot)."""
    log: list[tuple[str, Ballot]] = []

    def evaluate(profile: Profile) -> CandidateDistribution:
        log.append(("evaluate", profile.ballot))
        return mech.evaluate(profile)

    def evaluate_ballot(ballot: Ballot) -> CandidateDistribution:
        log.append(("evaluate_ballot", ballot))
        return mech.evaluate_ballot(ballot)

    if mech.evaluate_ballot is None:
        return dataclasses.replace(mech, evaluate=evaluate), log
    return dataclasses.replace(mech, evaluate=evaluate, evaluate_ballot=evaluate_ballot), log


@pytest.mark.parametrize("check, tie_free", sorted(PROFILE_SCHEME_EVALUATIONS))
def test_grid_scans_evaluate_each_ballot_once(check, tie_free):
    # Both grids hold all 6 strict orders of 3 candidates, so 3 voters make
    # C(6+2, 3) = 56 ballots.  The truthfulness scan certifies a ballot
    # scheme by stochastic dominance, which reads every ballot of 3 strict
    # orders through evaluate_ballot, once each.  A ballot scheme is ordinal
    # and anonymous by construction, so those scans evaluate it once, at the
    # first profile.
    jstar = parse_mechanism("jstar", 3, 3)
    as_ballot, ballot_log = logged(jstar)
    as_profile, profile_log = logged(Mechanism("jstar", jstar.evaluate, anonymous=True))
    report = SCANS[check](as_ballot, 3, 3, 3, tie_free)
    assert report == SCANS[check](as_profile, 3, 3, 3, tie_free) and report.holds
    entry = "evaluate_ballot" if check == "truthful" else "evaluate"
    assert len(ballot_log) == (math.comb(6 + 2, 3) if check == "truthful" else 1)
    assert {name for name, _ in ballot_log} == {entry}
    assert len(profile_log) == PROFILE_SCHEME_EVALUATIONS[check, tie_free]
    assert len({ballot for _, ballot in ballot_log}) == len(ballot_log)


@pytest.mark.parametrize("tie_free", [False, True])
def test_truthfulness_grid_scan_evaluates_each_ballot_once(tie_free):
    # Plurality fails stochastic dominance, so the grid scan runs after the
    # certificate and stops at the first witness; each pass evaluates each
    # ballot it reads once.
    as_ballot, ballot_log = logged(plurality())
    report = check_truthful(as_ballot, 3, 3, 3, tie_free)
    assert report == check_truthful(
        Mechanism("plurality", plurality().evaluate, anonymous=True), 3, 3, 3, tie_free)
    assert not report.holds
    by_entry = {name: [ballot for entry, ballot in ballot_log if entry == name]
                for name in ("evaluate_ballot", "evaluate")}
    assert len(by_entry["evaluate_ballot"]) == len(set(by_entry["evaluate_ballot"])) <= 56
    assert 0 < len(by_entry["evaluate"]) == len(set(by_entry["evaluate"]))
