"""Profile family constructors."""

import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cardvote.core import Profile, ratio, rv_winner, welfare, welfare_vector
from cardvote.errors import PreconditionError
from cardvote.generators import (
    DkParams,
    gen_Dk,
    gen_cyclic,
    gen_negative,
    rand_grid_profile,
    two_block_preference,
)
from cardvote.bounds import classify, gbar_value
from cardvote.mechanisms import integer_cbrt, j_star
from cardvote.properties import ordinal_equivalent

F = Fraction


def tie_free(u: Profile) -> bool:
    return all(len(set(p.nums)) == p.m for p in u.prefs)


def normalized(u: Profile) -> bool:
    return all(p.is_normalized() for p in u.prefs)


class TestNegativeParams:
    @pytest.mark.parametrize(
        "m,k,g", [(8, 2, 4), (27, 3, 9), (64, 4, 16), (125, 5, 25), (216, 6, 36)]
    )
    def test_derived_sizes(self, m, k, g):
        u = gen_negative(m)
        assert u.n == m - 1 + g
        # The g block voters rate their favorites above 1 - 1/m^2; the
        # largest block holds k of them.
        threshold = 1 - F(1, m * m)
        assert max(sum(v > threshold for v in p.values) for p in u.prefs[m - 1:]) == k

    def test_m_too_small(self):
        with pytest.raises(PreconditionError, match="m >= 8, got 7"):
            gen_negative(7)

    def test_bad_repeat(self):
        with pytest.raises(PreconditionError, match="repeat must be >= 1, got 0"):
            gen_negative(27, repeat=0)


class TestGenNegative:
    def test_m27_structure(self):
        u = gen_negative(27)
        assert (u.m, u.n) == (27, 35)
        assert tie_free(u) and normalized(u)
        totals = welfare_vector(u)
        # Only the 9 block voters value candidate 27, each at exactly 1-1/729.
        assert totals[26] == 9 * F(728, 729)
        cap = F(2) + F(1, 27)
        assert all(totals[j] < cap for j in range(26))
        assert rv_winner(u) == 27

    def test_m27_welfare_gap_factor(self):
        u = gen_negative(27)
        totals = welfare_vector(u)
        g = integer_cbrt(27 * 27)
        floor_factor = g * F(728, 729) / (F(2) + F(1, 27))
        for j in range(26):
            assert totals[26] / totals[j] >= floor_factor

    def test_repeat_doubles_welfare(self):
        single = gen_negative(64)
        doubled = gen_negative(64, repeat=2)
        assert doubled.n == 2 * single.n == 158
        assert welfare(doubled, 64) == 2 * welfare(single, 64)

    def test_block_sizes_bounded(self):
        for m in (8, 10, 27, 30):
            k, g = integer_cbrt(m), integer_cbrt(m * m)
            u = gen_negative(m)
            # Block voters are the last block_count voters; their favorite
            # sets partition {1..min(k*g, m-1)}.
            covered = []
            threshold = 1 - F(1, m * m)
            for p in u.prefs[m - 1:]:
                block = [j + 1 for j, v in enumerate(p.values) if v > threshold]
                assert 1 <= len(block) <= k
                covered.extend(block)
            expected = list(range(1, min(k * g, m - 1) + 1))
            assert sorted(covered) == expected

    def test_pivot_is_every_block_voters_next_choice(self):
        u = gen_negative(27)
        for p in u.prefs[26:]:
            block_size = sum(1 for v in p.values if v > F(1, 2) and v != F(728, 729))
            assert p.order.index(27) + 1 == block_size + 1


class TestGenDk:
    def test_class_membership_matches_declared_counts(self):
        params = DkParams(m=8, k=64, a=3, b=4, c=2)
        for seed in range(5):
            u = gen_Dk(params, seed)
            classes = [classify(p, 64).dk_class for p in u.prefs]
            assert classes[:3] == ["a"] * 3
            assert classes[3:7] == ["b"] * 4
            assert classes[7:] == ["c"] * 2

    def test_all_voters_two_block(self):
        u = gen_Dk(DkParams(m=27, k=27 * 64, a=5, b=5, c=5), seed=9)
        for p in u.prefs:
            info = classify(p, 27 * 64)
            assert info.switches == 2

    def test_block_geometry(self):
        k = 64
        u = gen_Dk(DkParams(m=8, k=k, a=2, b=2, c=2), seed=4)
        for p in u.prefs:
            info = classify(p, k)
            for v, bit in zip(p.values, info.ubar):
                assert abs(v - bit) <= F(8 - 1, k)

    def test_gbar_when_everyone_tops_candidate_one(self):
        # All voters share the top block {1}: the favorite branch always
        # elects 1 and the top-width branch includes it with chance 1/width,
        # so the rounded benchmark is 1/2 + 1/(2*width).
        for m in (8, 27):
            k = 4 * m
            width = integer_cbrt(m)
            order = list(range(1, m + 1))
            u = Profile((two_block_preference(order, 1, k),) * 3)
            assert gbar_value(u) == F(1, 2) + F(1, 2 * width)

    def test_m8_two_voter_example(self):
        u = Profile((two_block_preference(list(range(1, 9)), 1, 32),) * 2)
        assert gbar_value(u) == F(3, 4)

    def test_param_validation(self):
        with pytest.raises(PreconditionError):
            DkParams(m=4, k=64, a=1, b=0, c=0)
        with pytest.raises(PreconditionError):
            DkParams(m=8, k=16, a=1, b=0, c=0)
        with pytest.raises(PreconditionError):
            DkParams(m=8, k=64, a=0, b=8, c=0)
        with pytest.raises(PreconditionError):
            DkParams(m=8, k=64, a=-1, b=8, c=1)

    @pytest.mark.parametrize("m", [8, 27])
    def test_two_block_preference_needs_k_at_least_m(self, m):
        # At k = m-1 the two blocks would merge into one run; below that
        # the top run overlaps the bottom one.
        order = list(range(1, m + 1))
        for k in (m - 2, m - 1):
            with pytest.raises(PreconditionError, match=f"k={k}, m={m}"):
                two_block_preference(order, 2, k)
        assert classify(two_block_preference(order, 2, m), m).in_Ck

    def test_seed_reproducible(self):
        params = DkParams(m=8, k=64, a=2, b=3, c=1)
        assert gen_Dk(params, 11) == gen_Dk(params, 11)
        assert gen_Dk(params, 11) != gen_Dk(params, 12)


class TestGenCyclic:
    def test_welfare_window(self):
        eps = F(1, 1000)
        u = gen_cyclic(3, 2, eps)
        totals = welfare_vector(u)
        assert F(1) < totals[1] < 1 + 3 * eps
        assert totals[0] < 3 * eps and totals[2] < 3 * eps

    def test_tie_free_and_relaxed(self):
        u = gen_cyclic(5, 1, F(1, 26))
        assert tie_free(u)
        assert not normalized(u)

    def test_orderings_are_cyclic_shifts(self):
        from cardvote.core import descending_order

        u = gen_cyclic(4, 3, F(1, 17))
        for i, p in enumerate(u.prefs, start=1):
            expected = [((i - 1 + t) % 4) + 1 for t in range(4)]
            assert list(descending_order(p)) == expected

    def test_star_choices_are_ordinally_equivalent(self):
        eps = F(1, 126)
        profiles = [gen_cyclic(5, star, eps) for star in range(1, 6)]
        for a, b in itertools.combinations(profiles, 2):
            for i in range(5):
                assert ordinal_equivalent(a.prefs[i], b.prefs[i])

    def test_m5_star4_ratio_bound(self):
        eps = F(1, 26)
        u = gen_cyclic(5, 4, eps)
        # Cyclic symmetry puts chance exactly 1/5 on every candidate.
        dist = j_star(5).evaluate(u)
        assert set(dist.probs) == {F(1, 5)}
        assert ratio(j_star(5), u) < F(1, 5) + 25 * eps

    def test_eps_range_enforced(self):
        with pytest.raises(PreconditionError):
            gen_cyclic(5, 1, F(1, 25))
        with pytest.raises(PreconditionError):
            gen_cyclic(5, 1, F(0))
        with pytest.raises(PreconditionError):
            gen_cyclic(5, 9, F(1, 26))


class TestRandGridProfile:
    @given(st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_tie_free_samples_valid(self, seed):
        u = rand_grid_profile(4, 3, 12, seed)
        assert tie_free(u) and normalized(u)
        for p in u.prefs:
            assert all((v * 12).denominator == 1 for v in p.values)

    def test_ties_allowed_samples_normalized(self):
        u = rand_grid_profile(4, 3, 5, seed=0, tie_free=False)
        assert normalized(u)

    def test_k_too_small(self):
        with pytest.raises(PreconditionError):
            rand_grid_profile(5, 2, 3, seed=0)


    def test_tie_free_k_must_fit_the_sampled_range(self):
        # random.sample indexes range(1, k), whose length must fit a C ssize_t.
        largest = sys.maxsize + 1
        u = rand_grid_profile(3, 2, largest, seed=0)
        assert tie_free(u) and normalized(u)
        with pytest.raises(PreconditionError, match="tie-free sampling needs k <="):
            rand_grid_profile(3, 2, largest + 1, seed=0)
        assert normalized(rand_grid_profile(3, 2, largest + 1, seed=0, tie_free=False))
