"""Classification, benchmark functionals, reductions, and the bound formula."""

import itertools
import time
from fractions import Fraction

import pytest

from cardvote import bounds, generators
from cardvote.bounds import (
    NEGATIVE_BUDGET,
    _g,
    _jstar_dist,
    all_q_ratios,
    classify,
    gbar_value,
    lower_bound_experiment,
    lower_bound_formula,
    min_ratio_search,
    negative_ratios,
    project_to_Dk,
    project_to_Dk_trace,
    reduce_to_Ck,
    reduce_to_Ck_trace,
    rounded,
    upper_bound_experiment,
)
from cardvote.core import (
    Preference,
    Profile,
    descending_order,
    ratio,
    rv_winner,
    welfare_vector,
)
from cardvote.errors import (
    BudgetError,
    DegenerateProjectionError,
    GridError,
    PreconditionError,
    UndefinedRatioError,
)
from cardvote.generators import gen_negative, rand_grid_profile, two_block_preference
from cardvote.mechanisms import integer_cbrt, j1q, j2q, j2q_quota_range, j_star, range_voting
from cardvote.properties import enumerate_Rk_prefs

F = Fraction


def pref(*values) -> Preference:
    return Preference.normalized([F(v) for v in values])


def swap_voter(profile: Profile, i: int, new: Preference) -> Profile:
    """The profile with voter i's (1-indexed) preference replaced by ``new``."""
    return Profile(profile.prefs[:i - 1] + (new,) + profile.prefs[i:])


def _hand_switch_count(p: Preference, k: int) -> int:
    """Independent enumeration of the image indicator transitions."""
    present = [False] * (k + 1)
    for v in p.values:
        present[int(v * k)] = True
    return sum(1 for j in range(k) if present[j] != present[j + 1])


class TestClassify:
    def test_high_gap_preference(self):
        # Image {0, 3/4, 1} on the k=4 grid: indicator 1,0,0,1,1 switches at
        # 0->1/4 and 1/2->3/4 only, so the image is two blocks.
        info = classify(pref(0, "3/4", 1), 4)
        assert _hand_switch_count(info.pref, 4) == 2
        assert info.switches == 2
        assert info.in_Ck
        assert info.ubar == (0, 1, 1)
        assert info.count == 2

    def test_low_gap_preference(self):
        # Image {0, 1/4, 1}: indicator 1,1,0,0,1 also has exactly two
        # switches (bottom block {0, 1/4}, top block {1}).
        info = classify(pref(0, "1/4", 1), 4)
        assert _hand_switch_count(info.pref, 4) == 2
        assert info.switches == 2
        assert info.in_Ck

    def test_m2_minimal(self):
        info = classify(pref(0, 1), 2)
        assert info.switches == 2
        assert info.in_Ck
        assert info.ubar == (0, 1)
        assert info.count == 1

    def test_four_switches(self):
        info = classify(pref(0, "1/2", 1, "1/4"), 8)
        # image {0, 2/8, 4/8, 8/8}: four isolated... 0 and 2/8 and 4/8 and 1
        assert info.switches == _hand_switch_count(info.pref, 8)
        assert info.switches > 2
        assert not info.in_Ck

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_switches_even_and_at_least_two_exhaustively(self, k):
        for m in range(3, min(k, 4) + 1):
            for p in enumerate_Rk_prefs(m, k, tie_free=True):
                s = classify(p, k).switches
                assert s % 2 == 0 and s >= 2
                assert s == _hand_switch_count(p, k)

    def test_rank_table(self):
        info = classify(pref(0, "1/4", "1/2", 1), 4)
        assert info.ranks == (4, 3, 2, 1)

    def test_grid_errors(self):
        with pytest.raises(GridError):
            classify(pref(0, "1/3", 1), 4)
        with pytest.raises(GridError):
            classify(Preference.relaxed([F(1, 4), F(1, 2)]), 4)
        with pytest.raises(GridError):
            classify(pref(0, "1/2", 1), 2)  # k < m
        with pytest.raises(PreconditionError):
            classify(Preference.normalized([F(0), F(1), F(1)]), 4)

    def test_dk_classes(self):
        m, k = 8, 64
        order = list(range(1, m + 1))
        assert classify(two_block_preference(order, 1, k), k).dk_class == "a"
        assert classify(two_block_preference([2, 1] + order[2:], 2, k), k).dk_class == "a"
        b_order = [2] + [3, 4] + [1] + [5, 6, 7, 8]
        assert classify(two_block_preference(b_order, 1, k), k).dk_class == "b"
        c_order = [2, 3, 1] + [4, 5, 6, 7, 8]
        assert classify(two_block_preference(c_order, 3, k), k).dk_class == "c"
        # Two-block but outside every structured class: top block of 3 with
        # candidate 1 on top.
        none_order = [1, 2, 3] + [4, 5, 6, 7, 8]
        info = classify(two_block_preference(none_order, 3, k), k)
        assert info.in_Ck and info.dk_class is None

    def test_block_geometry_bound(self):
        m, k = 6, 24
        for top in range(1, m):
            p = two_block_preference(list(range(1, m + 1)), top, k)
            info = classify(p, k)
            for v, bit in zip(p.values, info.ubar):
                assert abs(v - bit) <= F(m - 1, k)


class TestBenchmarkFunctionals:
    def test_g_equals_ratio_when_one_wins(self):
        constructed = Profile((
            two_block_preference(list(range(1, 9)), 1, 64),
            two_block_preference([1, 3, 2, 4, 5, 6, 7, 8], 2, 64),
        ))
        checked = 0
        candidates = [constructed] + [rand_grid_profile(8, 4, 64, s) for s in range(12)]
        for u in candidates:
            if rv_winner(u) != 1:
                continue
            checked += 1
            assert _g(_jstar_dist(u), u) == ratio(j_star(8), u)
        assert checked >= 1

    def test_g_vs_gbar_gap_small_for_two_block(self):
        m, k = 8, 128
        u = Profile((
            two_block_preference(list(range(1, 9)), 1, k),
            two_block_preference([2, 1, 3, 4, 5, 6, 7, 8], 2, k),
        ))
        gap = abs(_g(_jstar_dist(u), u) - gbar_value(u))
        assert gap <= 2 * F(m - 1, k) * 4  # loose structural sanity bound

    def test_zero_denominators(self):
        u = Profile((pref(0, 1), pref(0, 1)))
        with pytest.raises(UndefinedRatioError):
            _g(_jstar_dist(u), u)
        with pytest.raises(UndefinedRatioError):
            gbar_value(u)


class TestReduceToCk:
    def test_identity_on_two_block_profile(self):
        u = Profile((
            two_block_preference(list(range(1, 9)), 2, 64),
            two_block_preference([3, 1, 2, 4, 5, 6, 7, 8], 3, 64),
        ))
        trace = reduce_to_Ck_trace(u, 64)
        assert trace.result == u
        assert trace.steps == ()

    def test_interior_block_slides_out(self):
        u = Profile((pref(1, "4/10", "5/10", 0),))
        trace = reduce_to_Ck_trace(u, 10)
        assert classify(trace.result.prefs[0], 10).in_Ck
        assert trace.result.prefs[0].values == (F(1), F(1, 10), F(1, 5), F(0))
        assert trace.g_final <= trace.g_initial
        assert all(s.direction == "left" for s in trace.steps)

    def test_stepwise_monotone_and_order_preserved(self):
        for seed in range(25):
            u = rand_grid_profile(8, 5, 64, seed)
            if welfare_vector(u)[0] == 0:
                continue
            trace = reduce_to_Ck_trace(u, 64)
            assert trace.anomalies == ()
            for s in trace.steps:
                assert s.g_after <= s.g_before
            for p in trace.result.prefs:
                assert classify(p, 64).in_Ck
            mech = j_star(8)
            assert mech.evaluate(trace.result) == mech.evaluate(u)
            for before, after in zip(u.prefs, trace.result.prefs):
                assert descending_order(before) == descending_order(after)

    def test_zero_welfare_denominator_rejected(self):
        u = Profile((pref(0, "1/2", 1),))
        with pytest.raises(UndefinedRatioError):
            reduce_to_Ck(u, 4)


class TestProjectToDk:
    def test_keeps_structured_voters_bit_identical(self):
        u = Profile((
            two_block_preference(list(range(1, 9)), 1, 64),
            two_block_preference([2] + [3, 4, 1] + [5, 6, 7, 8], 1, 64),
        ))
        trace = project_to_Dk_trace(u, 64)
        assert trace.result == u
        assert all(mv.kept for mv in trace.moves)

    def test_case_favorite_one(self):
        # Candidate 1 on top with a wide top block: projected voter keeps the
        # full ranking but rounds only candidate 1 up.
        u0 = two_block_preference(list(range(1, 9)), 3, 64)
        out = project_to_Dk(Profile((u0, u0)), 64).prefs[0]
        info = classify(out, 64)
        assert info.dk_class == "a"
        assert rounded(out) == (1, 0, 0, 0, 0, 0, 0, 0)
        assert descending_order(out) == descending_order(u0)

    def test_case_low_rank_unrounded(self):
        # Candidate 1 ranked below the selector width with value under 1/2:
        # single top candidate, ranking unchanged.  The second voter keeps
        # the rounded denominator positive.
        u0 = two_block_preference([2, 3, 4, 1, 5, 6, 7, 8], 2, 64)
        anchor = two_block_preference(list(range(1, 9)), 1, 64)
        out = project_to_Dk(Profile((u0, anchor)), 64).prefs[0]
        info = classify(out, 64)
        assert info.dk_class == "b"
        assert rounded(out) == (0, 1, 0, 0, 0, 0, 0, 0)
        assert descending_order(out) == descending_order(u0)

    def test_conditions_on_random_two_block_voters(self):
        import random

        rng = random.Random(13)
        m, k, width = 8, 64, 2
        count = 0
        while count < 100:
            seed = rng.randrange(10**6)
            base = rand_grid_profile(m, 4, k, seed)
            if welfare_vector(base)[0] == 0:
                continue
            u = reduce_to_Ck(base, k)
            trace = project_to_Dk_trace(u, k)
            mech = j_star(m)
            for mv in trace.moves:
                if mv.kept:
                    continue
                count += 1
                swapped = swap_voter(u, mv.voter, mv.after)
                assert mech.evaluate(swapped) == mech.evaluate(u)  # condition 1
                rb, ra = rounded(mv.before), rounded(mv.after)
                assert ra[0] >= rb[0]  # condition 2
                assert all(a <= b for a, b in zip(ra[1:], rb[1:]))  # condition 3

    def test_degenerate_projection(self):
        # Every voter dislikes candidate 1 and lands in the single-top class.
        u0 = two_block_preference([2, 3, 4, 1, 5, 6, 7, 8], 1, 64)
        with pytest.raises(DegenerateProjectionError):
            project_to_Dk(Profile((u0, u0)), 64)

    def test_requires_two_block_input(self):
        u = Profile((pref(0, "1/2", 1, "1/4", "3/4", "7/8", "1/8", "3/8"),))
        with pytest.raises(PreconditionError):
            project_to_Dk(u, 64)


class TestLowerBoundFormula:
    def test_all_a(self):
        n = 6
        assert lower_bound_formula(n, 0, 0, n, 8) == F(1, 4)

    def test_mixed_counts(self):
        assert lower_bound_formula(0, 9, 1, 10, 8) == F(83, 140)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            lower_bound_formula(1, 1, 1, 4, 8)
        with pytest.raises(PreconditionError):
            lower_bound_formula(0, 10, 0, 10, 8)
        with pytest.raises(PreconditionError):
            lower_bound_formula(1, 0, 0, 1, 7)


class TestLowerBoundExperiment:
    @pytest.mark.parametrize(
        "n, step, seeds",
        [(0, 1, [0]), (-3, 1, [0]), (2, 1, []), (5, 0, [0]), (5, 6, [0])],
        ids=["n0", "n_negative", "no_seeds", "step0", "step_above_n"],
    )
    def test_rejects_empty_sweeps(self, n, step, seeds):
        with pytest.raises(PreconditionError):
            lower_bound_experiment(8, n, 32, step, seeds)

    def test_step_equal_to_n_sweeps(self):
        rows = lower_bound_experiment(8, 5, 32, 5, [0])
        assert [(r.a, r.c) for r in rows] == [(0, 5), (5, 0)]


class TestMinRatioSearch:
    def test_range_voting_always_one(self):
        prefs = list(enumerate_Rk_prefs(2, 2))
        family = [Profile(tuple(c)) for c in itertools.product(prefs, repeat=2)]
        result = min_ratio_search(range_voting(), family)
        assert result.ratio == 1
        assert result.visited == len(family)

    def test_m2_grid_pinned_by_enumeration(self):
        # Four profiles over {(0,1),(1,0)}; the favorite lottery either picks
        # the consensus favorite or splits a welfare tie, so every ratio is 1.
        prefs = list(enumerate_Rk_prefs(2, 2, tie_free=True))
        family = [Profile(tuple(c)) for c in itertools.product(prefs, repeat=2)]
        assert len(family) == 4
        result = min_ratio_search(j_star(2), family)
        assert result.ratio == 1

    def test_singleton_family(self):
        u = gen_negative(27)
        result = min_ratio_search(j1q(1), [u])
        assert result.ratio == ratio(j1q(1), u)
        assert result.visited == 1

    def test_empty_family(self):
        with pytest.raises(PreconditionError):
            min_ratio_search(range_voting(), [])

    def test_zero_budget_names_the_budget(self):
        with pytest.raises(PreconditionError, match=r"budget must lie in 1\.\..*, got 0"):
            min_ratio_search(range_voting(), [gen_negative(8)], 0)


class TestAllQRatios:
    def test_agrees_with_generic_evaluators(self):
        u = gen_negative(8)
        j1, j2 = all_q_ratios(u)
        for q in range(1, 9):
            assert j1[q] == ratio(j1q(q), u)
        for q in j2q_quota_range(u.n):
            assert j2[q] == ratio(j2q(q), u)


def _listed(ratios):
    """Both families as item lists, so key order is compared too."""
    return [list(family.items()) for family in ratios]


class TestNegativeRatios:
    # The closed form against the sweep over the built profile, key order
    # included, since report rows follow it.
    MS = [*range(8, 131), 216, 343, 512]

    @pytest.mark.parametrize("repeat, ms", [
        (1, MS),
        (2, MS[::2]),
        (3, MS[1::3]),
    ])
    def test_matches_the_sweep_over_the_profile(self, repeat, ms):
        for m in ms:
            expected = all_q_ratios(gen_negative(m, repeat))
            assert _listed(negative_ratios(m, repeat)) == _listed(expected), m

    def test_m_of_a_hundred_thousand_stays_under_the_cap(self):
        # Every ratio at m = 10**5 is at most 6 * m^(-2/3), compared exactly
        # as r^3 * m^2 <= 216; building the profile there would take minutes.
        m = 10**5
        start = time.perf_counter()
        [(swept, j1, j2)] = upper_bound_experiment([m])
        assert time.perf_counter() - start < 5
        assert swept == m
        assert len(j1) + len(j2) == m + len(j2q_quota_range(m - 1 + integer_cbrt(m * m)))
        assert max(*j1.values(), *j2.values()) ** 3 * m**2 <= 216

    @pytest.mark.parametrize("m, repeat", [(7, 1), (-3, 1), (8, 0), (27, -2), (8, 10**20)])
    def test_refuses_what_gen_negative_refuses(self, m, repeat):
        with pytest.raises(PreconditionError) as built:
            gen_negative(m, repeat)
        with pytest.raises(PreconditionError) as closed:
            negative_ratios(m, repeat)
        assert str(closed.value) == str(built.value)

    def test_experiment_builds_no_profile(self, monkeypatch):
        expected = [(m, scheme, q, r)
                    for m in (8, 27, 64)
                    for scheme, family in zip(("j1", "j2"), all_q_ratios(gen_negative(m, 2)))
                    for q, r in family.items()]

        def refuse(*args):
            raise AssertionError("the experiment built or swept a profile")

        monkeypatch.setattr(generators, "gen_negative", refuse)
        monkeypatch.setattr(bounds, "all_q_ratios", refuse)
        rows = [(m, scheme, q, r)
                for m, j1, j2 in upper_bound_experiment([8, 27, 64], 2)
                for scheme, family in (("j1", j1), ("j2", j2))
                for q, r in family.items()]
        assert rows == expected

    @pytest.mark.parametrize("ms, repeat", [
        ([NEGATIVE_BUDGET + 1], 1),
        ([8, NEGATIVE_BUDGET - 7], 1),
        ([NEGATIVE_BUDGET // 2 + 1], 2),
        ([8], 10**20),
    ])
    def test_work_past_the_budget_is_refused_first(self, ms, repeat):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=f"budget is {NEGATIVE_BUDGET}"):
            upper_bound_experiment(ms, repeat)
        assert time.perf_counter() - start < 0.1

    def test_work_at_the_budget_runs(self, monkeypatch):
        monkeypatch.setattr(bounds, "NEGATIVE_BUDGET", 35)
        assert [m for m, _, _ in upper_bound_experiment([8, 27])] == [8, 27]
        with pytest.raises(BudgetError, match="needs 36 steps, budget is 35"):
            upper_bound_experiment([8, 28])
        with pytest.raises(BudgetError, match="needs 70 steps, budget is 35"):
            upper_bound_experiment([8, 27], 2)
