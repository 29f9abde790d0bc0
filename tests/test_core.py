"""Core domain types and welfare operations."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cardvote.core import (
    CandidateDistribution,
    Preference,
    Profile,
    dot,
    normalize,
    pairwise_beats,
    profile_from_csv_text,
    profile_from_json_dict,
    profile_to_csv_text,
    profile_to_json_dict,
    rank,
    ratio,
    rv_winner,
    scaled,
    top_q_set,
    welfare,
    welfare_report,
)
from cardvote.errors import (
    DataError,
    NormalizationError,
    PreconditionError,
    UndefinedRatioError,
)
from cardvote.mechanisms import j1q, range_voting

F = Fraction


def pref(*values) -> Preference:
    return Preference.normalized([F(v) for v in values])


def profile(*rows) -> Profile:
    return Profile.of(pref(*row) for row in rows)


small_fractions = st.fractions(min_value=0, max_value=1, max_denominator=16)


class TestNormalize:
    def test_affine_map(self):
        assert normalize(["0.2", "0.6", "0.4"]).values == (F(0), F(1), F(1, 2))

    def test_identity_on_normalized(self):
        assert normalize([0, 1]).values == (F(0), F(1))

    def test_constant_input_rejected(self):
        with pytest.raises(NormalizationError):
            normalize([1, 1, 1])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            normalize([0.2, 0.6, 0.4])

    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=12),
                    min_size=2, max_size=6))
    def test_order_preserved_exactly(self, raw):
        if min(raw) == max(raw):
            return
        result = normalize(raw)
        assert result.is_normalized()
        for a in range(len(raw)):
            for b in range(len(raw)):
                assert (raw[a] < raw[b]) == (result.values[a] < result.values[b])
                assert (raw[a] == raw[b]) == (result.values[a] == result.values[b])


class TestPreference:
    def test_normalized_constructor_enforces_endpoints(self):
        with pytest.raises(NormalizationError):
            pref(0, "1/2", "3/4")
        with pytest.raises(NormalizationError):
            pref("1/4", 1, "3/4")

    def test_relaxed_constructor_allows_interior(self):
        p = Preference.relaxed([F(1, 4), F(1, 2)])
        assert not p.is_normalized()

    def test_bounds_enforced(self):
        with pytest.raises(PreconditionError):
            Preference.relaxed([F(-1, 2), F(1)])
        with pytest.raises(PreconditionError):
            Preference.relaxed([F(0), F(3, 2)])

    def test_too_few_candidates(self):
        with pytest.raises(PreconditionError):
            Preference.relaxed([F(1)])

    @pytest.mark.parametrize("bad", [F(-1, 3), F(4, 3), -1, 2, "-1/3", "4/3"])
    def test_bounds_checked_on_numerator_and_denominator(self, bad):
        with pytest.raises(PreconditionError, match="outside"):
            Preference.relaxed([F(1, 2), bad])

    def test_endpoints_accepted(self):
        u = Preference.relaxed([0, 1, F(0), F(1), "0", "1", F(2, 2)])
        assert u.values == (0, 1, 0, 1, 0, 1, 1)
        assert u.is_normalized()

    def test_fractions_pass_through_unchanged(self):
        half = F(1, 2)
        assert Preference.relaxed([half, 1]).values[0] is half

    @given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=9),
                    min_size=2, max_size=6))
    def test_is_normalized_means_min_zero_max_one(self, values):
        # Built directly, so values outside [0, 1] reach the check too.
        u = Preference(tuple(values))
        assert u.is_normalized() == (min(values) == 0 and max(values) == 1)

    def test_tie_free(self):
        assert pref(1, "1/2", 0).is_tie_free()
        assert not pref(1, 1, 0).is_tie_free()


class TestFromSteps:
    def test_values_and_integer_form(self):
        u = Preference.from_steps([2, 0, 4, 1], 4)
        assert u.values == (F(1, 2), F(0), F(1), F(1, 4))
        assert u.ints == (4, (2, 0, 4, 1))
        assert u == pref("1/2", 0, 1, "1/4") and hash(u) == hash(pref("1/2", 0, 1, "1/4"))
        assert u.order == (3, 1, 4, 2)
        assert u.is_normalized() and u.is_tie_free()

    def test_integer_form_is_in_lowest_terms(self):
        u = Preference.from_steps([0, 6, 3, 3], 6)
        assert u.ints == (2, (0, 2, 1, 1)) == scaled(u.values)
        assert not u.is_tie_free()

    @pytest.mark.parametrize(
        "steps, k, error, match",
        [
            ([0, True, 2], 2, PreconditionError, "must be ints"),
            ([0, 1, 2.0], 2, PreconditionError, "must be ints"),
            ([0, F(1), 2], 2, PreconditionError, "must be ints"),
            ([-1, 0, 2], 2, PreconditionError, "outside 0..2"),
            ([0, 3, 2], 2, PreconditionError, "outside 0..2"),
            ([1, 2, 2], 2, NormalizationError, "min step 0"),
            ([0, 1, 1], 2, NormalizationError, "max step 2"),
            ([0, 0], 1, NormalizationError, "max step 1"),
            ([0, 1], 0, PreconditionError, "k must be"),
            ([0, 0], 0, PreconditionError, "k must be"),
            ([0, 1], -1, PreconditionError, "k must be"),
            ([0, 1], True, PreconditionError, "k must be"),
            ([0, 1], 1.0, PreconditionError, "k must be"),
            ([0], 1, PreconditionError, "at least 2 candidates"),
            ([], 1, PreconditionError, "at least 2 candidates"),
        ],
    )
    def test_rejects(self, steps, k, error, match):
        with pytest.raises(error, match=match):
            Preference.from_steps(steps, k)

    def test_huge_k_allocates_nothing_of_size_k(self):
        k = 10**30
        tracemalloc.start()
        try:
            u = Preference.from_steps([k, 0, k // 3, 7], k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64_000
        assert u.values == (F(1), F(0), F(k // 3, k), F(7, k))
        assert u.ints == (k, (k, 0, k // 3, 7))


class TestWelfare:
    def test_sum_of_ones(self):
        assert welfare(profile((1, 0), (1, 0)), 1) == 2

    def test_halves(self):
        assert welfare(profile((1, 0, "1/2"), (0, 1, "1/2")), 3) == 1

    def test_zero(self):
        assert welfare(profile((1, 0)), 2) == 0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            welfare(profile((1, 0)), 3)

    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_additive_under_concatenation(self, n1, n2, data):
        m = 3
        def draw():
            return pref(*data.draw(st.permutations([F(0), F(1), F(1, 2)])))
        rows1 = [draw() for _ in range(n1)]
        rows2 = [draw() for _ in range(n2)]
        joined = Profile.of(rows1 + rows2)
        for j in range(1, m + 1):
            assert welfare(joined, j) == (
                welfare(Profile.of(rows1), j) + welfare(Profile.of(rows2), j)
            )


class TestRvWinner:
    def test_clear_winner(self):
        assert rv_winner(profile((1, "1/2", 0), (0, 1, "1/2"))) == 2

    def test_tie_goes_to_lowest_index(self):
        assert rv_winner(profile((1, 0), (0, 1))) == 1

    def test_single_voter(self):
        assert rv_winner(profile((0, 1))) == 2


class TestRatio:
    def test_random_favorite_balanced(self):
        assert ratio(j1q(1), profile((1, 0), (0, 1))) == 1

    def test_rv_is_always_one(self):
        assert ratio(range_voting(), profile((1, "1/2", 0), (0, 1, "1/2"))) == 1

    def test_hand_enumerated_dictator_picks(self):
        # Favorites are candidates 1, 2, 2; welfares (1, 2, 3/2); max 2.
        # Expected welfare (1/3)*1 + (2/3)*2 = 5/3, so the ratio is 5/6.
        u = profile((1, 0, "1/2"), (0, 1, "1/2"), (0, 1, "1/2"))
        dist = j1q(1).evaluate(u)
        assert dist.probs == (F(1, 3), F(2, 3), F(0))
        assert ratio(j1q(1), u) == F(5, 6)

    def test_undefined_on_zero_welfare(self):
        zeroish = Profile.of([Preference.relaxed([F(0), F(0)])])
        with pytest.raises(UndefinedRatioError):
            welfare_report(zeroish, CandidateDistribution(1, (1, 0)))

    def test_never_exceeds_one(self):
        u = profile((1, "1/4", 0), ("1/2", 1, 0))
        for dist in (j1q(1).evaluate(u), j1q(2).evaluate(u)):
            assert welfare_report(u, dist).ratio <= 1


class TestRank:
    def test_top(self):
        assert rank(pref(1, "1/2", 0), 1) == 1

    def test_bottom(self):
        assert rank(pref(1, "1/2", 0), 3) == 3

    def test_counts_weakly_better(self):
        assert rank(pref(0, "1/4", "1/2", 1), 2) == 3

    def test_requires_tie_free(self):
        with pytest.raises(PreconditionError):
            rank(pref(1, 1, 0), 1)

    def test_bijection(self):
        p = pref(0, "1/3", 1, "2/3")
        assert sorted(rank(p, j) for j in range(1, 5)) == [1, 2, 3, 4]


class TestTopQSet:
    def test_simple(self):
        assert set(top_q_set(pref(1, "1/2", 0), 2)) == {1, 2}

    def test_tie_broken_by_name(self):
        assert top_q_set(pref(1, 1, 0), 1) == (1,)

    def test_tie_between_later_candidates(self):
        assert top_q_set(pref(0, 1, 1), 1) == (2,)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            top_q_set(pref(1, 0), 3)

    @given(st.permutations([F(0), F(1, 4), F(1, 2), F(1)]))
    def test_monotone_in_q(self, values):
        p = Preference.normalized(values)
        for q in range(1, 4):
            assert set(top_q_set(p, q)) < set(top_q_set(p, q + 1))

    @given(st.permutations([F(0), F(1, 4), F(1, 2), F(1)]))
    def test_agrees_with_rank_when_tie_free(self, values):
        p = Preference.normalized(values)
        for q in range(1, 5):
            chosen = set(top_q_set(p, q))
            for j in range(1, 5):
                assert (j in chosen) == (rank(p, j) <= q)


class TestDistribution:
    def test_rejects_negative(self):
        with pytest.raises(PreconditionError):
            CandidateDistribution(*scaled((F(3, 2), F(-1, 2))))

    def test_rejects_bad_sum(self):
        with pytest.raises(PreconditionError):
            CandidateDistribution(*scaled((F(1, 2), F(1, 3))))

    def test_point(self):
        d = CandidateDistribution.point(2, 3)
        assert d.probs == (F(0), F(1), F(0))


class TestProfile:
    def test_mixed_m_rejected(self):
        with pytest.raises(PreconditionError):
            Profile.of([pref(1, 0), pref(1, "1/2", 0)])

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            Profile.of([])

    def test_replace(self):
        u = profile((1, 0), (0, 1))
        v = u.replace(2, pref(1, 0))
        assert v.prefs[1].values == (F(1), F(0))
        assert u.prefs[1].values == (F(0), F(1))


class TestSerialization:
    def test_json_round_trip(self):
        u = profile((1, "1/2", 0), (0, 1, "2/3"))
        assert profile_from_json_dict(profile_to_json_dict(u)) == u

    def test_json_shape(self):
        data = profile_to_json_dict(profile((1, 0)))
        assert data == {"m": 2, "n": 1, "prefs": [[[1, 1], [0, 1]]]}

    def test_csv_round_trip(self):
        u = profile((1, "1/2", 0), (0, 1, "2/3"))
        assert profile_from_csv_text(profile_to_csv_text(u)) == u

    def test_relaxed_values_survive(self):
        u = Profile.of([Preference.relaxed([F(1), F(1, 3)])])
        assert profile_from_json_dict(profile_to_json_dict(u)) == u

    def test_bad_shape_rejected(self):
        with pytest.raises(PreconditionError):
            profile_from_json_dict({"m": 2, "n": 2, "prefs": [[[1, 1], [0, 1]]]})

    @pytest.mark.parametrize(
        "data",
        [
            {"m": "2", "n": 1, "prefs": [[[1, 1], [0, 1]]]},
            {"m": 2, "n": 1.0, "prefs": [[[1, 1], [0, 1]]]},
            {"m": True, "n": 1, "prefs": [[[1, 1]]]},
            {"m": 2, "n": None, "prefs": [[[1, 1], [0, 1]]]},
        ],
        ids=["string_m", "float_n", "bool_m", "null_n"],
    )
    def test_non_integer_m_or_n_rejected(self, data):
        with pytest.raises(DataError, match="must be an integer"):
            profile_from_json_dict(data)


class TestOrderAndBallots:
    def test_order_breaks_ties_to_lower_index(self):
        u = Preference.relaxed([F(1, 2), 1, F(1, 2), 0, 1])
        assert u.order == (2, 5, 1, 3, 4)

    def test_order_is_cached_and_not_part_of_equality(self):
        u, v = pref(0, 1, "1/2"), pref(0, 1, "1/2")
        assert u.order is u.order
        assert u == v and hash(u) == hash(v)
        assert u.order == v.order == (2, 3, 1)

    def test_place_table(self):
        u = profile((1, "1/2", 0), (0, 1, "1/2"), (1, 0, "1/2"))
        assert u.places == [[2, 0, 1], [1, 1, 1], [0, 2, 1]]

    def test_pairwise_beats_counts_ties_for_lower_index(self):
        u = Profile.of([Preference.relaxed([1, 1, 0]), Preference.relaxed([0, 1, 1])])
        assert pairwise_beats(u) == [[0, 1, 1], [1, 0, 2], [1, 0, 0]]

    def test_place_table_is_built_once_per_profile(self):
        u = profile((1, "1/2", 0), (0, 1, "1/2"))
        v = profile((1, "1/2", 0), (0, 1, "1/2"))
        assert u.places is u.places
        assert v.places == u.places and v.places is not u.places
        assert u == v

    def test_dot_skips_zero_weights(self):
        assert dot([0, F(1, 2), 0], [object(), F(2, 3), object()]) == F(1, 3)
        assert dot([0, 0], [1, 2]) == 0
