"""Exhaustive property checkers and the grid enumeration they run on."""

import itertools
import json
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cardvote.cli import _verify_body
from cardvote.core import Preference, Profile, CandidateDistribution, scaled
from cardvote.errors import BudgetError, PreconditionError
from cardvote.mechanisms import (
    Mechanism,
    constant_winner,
    j1q,
    j2q,
    j_star,
    parse_mechanism,
    range_voting,
    symmetrize,
)
from cardvote.properties import (
    DEFAULT_BUDGET,
    check_anonymous,
    check_neutral,
    check_ordinal,
    check_truthful,
    enumerate_Rk_prefs,
    grid_pref_count,
    ordinal_equivalent,
)

F = Fraction


def pref(*values) -> Preference:
    return Preference.normalized([F(v) for v in values])


def swap_voter(profile: Profile, i: int, new: Preference) -> Profile:
    """The profile with voter i's (1-indexed) preference replaced by ``new``."""
    return Profile(profile.prefs[:i - 1] + (new,) + profile.prefs[i:])


def refusal(check, anonymous: bool, m: int, n: int, k: int, tie_free: bool = False):
    """The ``BudgetError`` of ``check`` on range voting at (m, n, k), with
    the seconds and the peak traced bytes it took to raise."""
    mech = Mechanism("rv", range_voting().evaluate, anonymous=anonymous)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(BudgetError) as refused:
            check(mech, m, n, k, tie_free=tie_free)
        return refused.value, time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


ALL_CHECKS = [check_truthful, check_ordinal, check_neutral, check_anonymous]


def reference_enumerate(m: int, k: int, tie_free: bool = False):
    """The grid family as first built: every one of the (k+1)^m step vectors,
    kept when it holds 0 and k (and, tie-free, when its entries are
    distinct)."""
    grid_pref_count(m, k, tie_free)  # validates the arguments
    for steps in itertools.product(range(k + 1), repeat=m):
        if 0 not in steps or k not in steps:
            continue
        if tie_free and len(set(steps)) != m:
            continue
        yield Preference.from_steps(steps, k)


def filter_enumerate(m: int, k: int, tie_free: bool = False):
    """The grid family as built before the backtracking walk: the (k+1)^m
    vectors of ``product`` (tie-free, the ``permutations`` of ``range(k+1)``,
    the same vectors with distinct entries in the same order), kept when they
    hold both 0 and k."""
    grid_pref_count(m, k, tie_free)  # validates the arguments
    walk = (itertools.permutations(range(k + 1), m) if tie_free
            else itertools.product(range(k + 1), repeat=m))
    for steps in walk:
        if 0 in steps and k in steps:
            yield Preference.from_steps(steps, k)


class TestEnumeration:
    def test_m2_k1_is_the_two_point_family(self):
        got = {p.values for p in enumerate_Rk_prefs(2, 1)}
        assert got == {(F(0), F(1)), (F(1), F(0))}

    def test_m3_k2_count_by_direct_enumeration(self):
        # Independent count: all step vectors over {0,1,2}^3 containing both
        # endpoints.
        direct = sum(
            1
            for steps in itertools.product(range(3), repeat=3)
            if 0 in steps and 2 in steps
        )
        got = list(enumerate_Rk_prefs(3, 2))
        assert direct == 12
        assert len(got) == 12
        assert grid_pref_count(3, 2) == 12

    def test_m3_k3_count(self):
        assert len(list(enumerate_Rk_prefs(3, 3))) == 18
        assert grid_pref_count(3, 3) == 4**3 - 2 * 3**3 + 2**3

    @pytest.mark.parametrize("m,k", [(2, 2), (3, 2), (3, 4), (4, 2)])
    def test_formula_matches_enumeration(self, m, k):
        assert len(list(enumerate_Rk_prefs(m, k))) == grid_pref_count(m, k)

    def test_pref_count_closed_form_matches_enumeration(self):
        for m in range(2, 6):
            for k in range(1, 7):
                for tie_free in (False, True)[: 1 + (k >= m - 1)]:
                    family = list(enumerate_Rk_prefs(m, k, tie_free))
                    assert grid_pref_count(m, k, tie_free) == len(family), (m, k, tie_free)

    @pytest.mark.parametrize("check", ALL_CHECKS)
    def test_budget_is_checked_before_enumerating(self, monkeypatch, check):
        # 4^14 - 2*3^14 + 2^14 preferences: enumerating them would take
        # minutes, and every check's work exceeds the default budget.
        def refuse(*args):
            raise AssertionError("grid enumerated before the budget check")

        monkeypatch.setattr("cardvote.properties.enumerate_Rk_prefs", refuse)
        with pytest.raises(BudgetError):
            check(range_voting(), 14, 1, 3)

    @pytest.mark.parametrize("anonymous", [True, False])
    @pytest.mark.parametrize("check", ALL_CHECKS)
    def test_millions_of_voters_are_refused_before_any_count(self, check, anonymous):
        # 12 preferences at (m, k) = (3, 2): 12**(10**7) alone takes seconds
        # and megabytes to build, and 2**(10**7) a megabyte.  Every walk
        # visits at least 12**n >= 2**(3n) keys, so the gate refuses from
        # that bound; the orbit walk's bounds 2**min(n, 11) and (12/n)**n are
        # small, so it counts C(12+n-1, n) sorted keys.
        error, _, peak = refusal(check, anonymous, 3, 10**7, 2)
        assert peak < 2**20
        if not (anonymous and check is check_truthful):
            assert "needs at least 2**30000000 steps" in str(error)

    @pytest.mark.parametrize("anonymous", [True, False])
    @pytest.mark.parametrize("check", ALL_CHECKS)
    @pytest.mark.parametrize("m,n,k,tie_free,least,orbit_least", [
        (3 * 10**6, 1, 1, False, 2999999, 2999999),
        (3 * 10**6, 1, 2, False, 2999999, 2999999),
        (3, 60000, 10**300, False, 60000 * 999, 60000 * (999 - 16)),
        (60000, 1, 10**300, False, 59998 * 996, 59998 * 996),
        (60000, 1, 10**300, True, 59998 * 996, 59998 * 996),
    ], ids=["huge_m_k1", "huge_m_k2", "huge_k", "huge_m_and_k", "huge_m_and_k_tie_free"])
    def test_huge_m_or_k_is_refused_before_any_count(self, check, anonymous, m, n, k, tie_free,
                                                     least, orbit_least):
        # At m = 3*10**6 the grid holds P >= 2**(m-1) preferences, a bound
        # read before P (3**m at k = 2) or m! is built.  At k = 10**300,
        # P = 6k, a 1000-bit number: P**n >= 2**(n*999), and the orbit walk
        # C(P+n-1, n) >= (P/n)**n >= 2**(n*(999 - 16)) for the 16-bit n.
        # At (60000, 1, 10**300), P >= base**(m-2) for the 997-bit base = k+1,
        # or k-m+2 tie-free, read before P ((k+1)**m or math.perm(k-1, m-2))
        # is built.  Each exact count takes seconds.
        error, seconds, peak = refusal(check, anonymous, m, n, k, tie_free)
        assert seconds < 0.1 and peak < 2**20
        if anonymous and check is check_truthful:
            least = orbit_least
        assert f"needs at least 2**{least} steps" in str(error)

    @pytest.mark.parametrize("check", ALL_CHECKS)
    @pytest.mark.parametrize("m,n,k,tie_free", [
        (1, 10**7, 2, False),
        (3 * 10**6, 1, 0, False),
        (3 * 10**6, 1, 2, True),
    ], ids=["one_candidate", "zero_k", "tie_free_k_below_m"])
    def test_shape_errors_come_before_the_budget(self, check, m, n, k, tie_free):
        with pytest.raises(PreconditionError):
            check(range_voting(), m, n, k, tie_free=tie_free)

    def test_printable_counts_are_exact(self):
        with pytest.raises(BudgetError, match=f"ordinal scan needs {12 ** 30} steps"):
            check_ordinal(range_voting(), 3, 30, 2)

    def test_every_member_is_normalized_grid(self):
        for p in enumerate_Rk_prefs(3, 4):
            assert p.is_normalized()
            assert all((v * 4).denominator == 1 for v in p.values)

    def test_tie_free_filter(self):
        family = list(enumerate_Rk_prefs(3, 2, tie_free=True))
        assert len(family) == 6  # permutations of (0, 1/2, 1)
        assert all(len(set(p.nums)) == p.m for p in family)

    def test_infeasible_tie_free_request(self):
        with pytest.raises(PreconditionError):
            list(enumerate_Rk_prefs(4, 2, tie_free=True))

    def test_lexicographic_order(self):
        family = [p.values for p in enumerate_Rk_prefs(2, 2)]
        assert family == sorted(family)

    @settings(deadline=None)
    @given(st.integers(2, 5), st.integers(1, 6), st.booleans())
    def test_walk_matches_the_product_filter(self, m, k, tie_free):
        assume(not tie_free or k >= m - 1)
        expected = list(reference_enumerate(m, k, tie_free))
        assert list(enumerate_Rk_prefs(m, k, tie_free)) == expected
        assert list(filter_enumerate(m, k, tie_free)) == expected

    @pytest.mark.parametrize("tie_free", [True, False])
    def test_walk_cost_does_not_grow_with_the_unused_vectors(self, tie_free):
        # The filter walked 7,999,800 permutations (8,120,601 tuples with
        # ties) for P = 1,194 (1,200) and took about 1 s; the walk visits at
        # most m prefixes per preference.
        start = time.perf_counter()
        report = check_ordinal(range_voting(), 3, 1, 200, tie_free=tie_free)
        assert time.perf_counter() - start < 0.5
        assert report.holds
        assert report.search_space.preference_count == (1194 if tie_free else 1200)

    @pytest.mark.parametrize("tie_free, first", [(False, (0, 0, 10**7)), (True, (0, 1, 10**7))])
    def test_first_preference_at_a_huge_k_is_immediate(self, tie_free, first):
        # The filter walked about 10**7 vectors before the first it kept.
        start = time.perf_counter()
        pref = next(enumerate_Rk_prefs(3, 10**7, tie_free))
        assert time.perf_counter() - start < 0.5
        assert pref == Preference.from_steps(first, 10**7)

    def test_first_tie_free_preference_is_immediate(self):
        # The product filter walked the 2,853,116,705 step vectors below
        # (0, 1, ..., 10) before it kept one; the permutation walk starts there.
        start = time.perf_counter()
        first = next(enumerate_Rk_prefs(11, 10, tie_free=True))
        assert time.perf_counter() - start < 1
        assert first == Preference.from_steps(range(11), 10)

    @pytest.mark.parametrize("tie_free", [False, True])
    def test_first_preference_at_a_huge_m_is_immediate(self, tie_free):
        # Each tie-free level rescanned every used step below its first
        # offer: m = 12000 took 8.6 s, and m = 60000 about 4 minutes.
        m, k = 60000, 10**60
        start = time.perf_counter()
        first = next(enumerate_Rk_prefs(m, k, tie_free))
        assert time.perf_counter() - start < 1
        assert first == Preference.from_steps([*(range(m - 1) if tie_free else [0] * (m - 1)), k], k)


class TestOrdinalEquivalent:
    def test_same_strict_order(self):
        assert ordinal_equivalent(pref(1, "1/2", 0), pref(1, "3/4", 0))

    def test_tie_appears(self):
        assert not ordinal_equivalent(pref(1, "1/2", 0), pref(1, 1, 0))

    def test_reversed(self):
        assert not ordinal_equivalent(pref(1, 0), pref(0, 1))

    def test_mismatched_m(self):
        with pytest.raises(PreconditionError):
            ordinal_equivalent(pref(1, 0), pref(1, "1/2", 0))


class TestTruthfulness:
    def test_random_dictator_holds(self):
        report = check_truthful(j1q(1), 2, 2, 2)
        assert report.holds
        assert report.search_space.profile_count == 4

    def test_stacked_lottery_holds(self):
        assert check_truthful(j_star(3), 3, 2, 3).holds

    def test_range_voting_violated_with_replayable_witness(self):
        report = check_truthful(range_voting(), 3, 2, 10)
        assert not report.holds
        w = report.witness
        assert w.gain > 0
        # Replay: recompute both expected utilities from scratch.
        mech = range_voting()
        honest_pref = w.profile.prefs[w.voter - 1]
        honest_dist = mech.evaluate(w.profile)
        mis_dist = mech.evaluate(swap_voter(w.profile, w.voter, w.misreport))
        honest_u = sum(p * v for p, v in zip(honest_dist.probs, honest_pref.values))
        mis_u = sum(p * v for p, v in zip(mis_dist.probs, honest_pref.values))
        assert honest_u == w.honest_utility
        assert mis_u == w.misreport_utility
        assert mis_u - honest_u == w.gain

    def test_concrete_welfare_tie_manipulation(self):
        # Honest (1, 9/10, 0) against (0, 1, 9/10): welfares (1, 19/10, 9/10)
        # elect candidate 2 worth 9/10 to voter 1; misreporting (1, 0, 0)
        # forces a welfare tie broken to candidate 1, worth 1.
        mech = range_voting()
        honest = Profile((pref(1, "9/10", 0), pref(0, 1, "9/10")))
        assert mech.evaluate(honest).probs == (F(0), F(1), F(0))
        manipulated = swap_voter(honest, 1, pref(1, 0, 0))
        assert mech.evaluate(manipulated).probs == (F(1), F(0), F(0))

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            check_truthful(j1q(1), 3, 3, 3, budget=100)

    def test_budget_counts_sorted_keys_when_anonymous(self):
        # 18 preferences at (m, k) = (3, 3): the orbit walk does
        # C(22, 5)*5*18 = 2,370,060 work, the full scan 18^5*5*18.
        mech = parse_mechanism("jstar", 3, 5)
        report = check_truthful(mech, 3, 5, 3, budget=DEFAULT_BUDGET)
        assert report.holds and report.search_space.profile_count == 18 ** 5
        with pytest.raises(BudgetError, match="2370060"):
            check_truthful(mech, 3, 5, 3, budget=2_370_059)
        with pytest.raises(BudgetError, match="170061120"):
            check_truthful(Mechanism("jstar", mech.evaluate), 3, 5, 3)


class TestOrdinality:
    def test_top_one_lottery_is_ordinal(self):
        assert check_ordinal(j1q(1), 3, 2, 3).holds

    def test_pairwise_quota_is_ordinal(self):
        for q in (2, 3):
            assert check_ordinal(j2q(q), 3, 2, 3).holds

    def test_range_voting_is_not_ordinal(self):
        report = check_ordinal(range_voting(), 3, 2, 4)
        assert not report.holds
        w = report.witness
        for i in range(2):
            assert ordinal_equivalent(w.profile_a.prefs[i], w.profile_b.prefs[i])
        mech = range_voting()
        assert mech.evaluate(w.profile_a) == w.dist_a
        assert mech.evaluate(w.profile_b) == w.dist_b
        assert w.dist_a != w.dist_b


class TestSymmetries:
    def test_top_one_lottery_symmetric_on_tie_free_grid(self):
        assert check_neutral(j1q(1), 3, 2, 3, tie_free=True).holds
        assert check_anonymous(j1q(1), 3, 2, 3, tie_free=True).holds

    def test_name_tie_break_violates_neutrality_with_ties(self):
        report = check_neutral(j1q(1), 3, 1, 2)
        assert not report.holds
        w = report.witness
        # Replay the witness.
        mech = j1q(1)
        tau = w.permutation
        relabeled = Profile(tuple(
            Preference.relaxed(p.values[tau[j] - 1] for j in range(3))
            for p in w.profile.prefs
        ))
        assert mech.evaluate(relabeled) == w.actual
        base = mech.evaluate(w.profile)
        expected = CandidateDistribution(*scaled([base.probs[tau[j] - 1] for j in range(3)]))
        assert expected == w.expected
        assert w.actual != w.expected

    def test_tied_favorite_fixes_the_lottery(self):
        # Voter (1,1,0): the lottery picks candidate 1; swapping candidates
        # 1 and 2 leaves the profile unchanged, so the output cannot track
        # the relabeling.
        u = Profile((pref(1, 1, 0),))
        dist = j1q(1).evaluate(u)
        assert dist.probs == (F(1), F(0), F(0))

    def test_symmetrized_scheme_passes_both_checks(self):
        for base in (constant_winner(1), range_voting()):
            sym = symmetrize(base, 3, 2)
            assert check_neutral(sym, 3, 2, 2).holds
            assert check_anonymous(sym, 3, 2, 2).holds


class TestReports:
    def test_json_round_trip_is_serializable(self):
        report = check_truthful(range_voting(), 3, 2, 4)
        data = _verify_body(report)
        text = json.dumps(data, sort_keys=True)
        assert json.loads(text) == data
        if not report.holds:
            assert data["witness"]["gain"].count("/") <= 1

    def test_search_space_recorded(self):
        report = check_ordinal(j1q(1), 3, 2, 3)
        space = report.search_space
        assert (space.m, space.n, space.k) == (3, 2, 3)
        assert space.profile_count == space.preference_count ** 2
