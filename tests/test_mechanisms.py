"""Mechanism evaluators, combinators, and the spec mini-language."""

import dataclasses
import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cardvote.core import Preference, Profile
from cardvote.errors import (
    BudgetError,
    MechanismSpecError,
    PreconditionError,
    WeightError,
)
from cardvote.generators import rand_grid_profile
from cardvote.mechanisms import (
    Mechanism,
    constant_winner,
    integer_cbrt,
    j1q,
    j2q,
    j2q_quota_range,
    j_star,
    mix,
    parse_mechanism,
    range_voting,
    sample,
    sample_stream,
    symmetrize,
)
from cardvote.properties import enumerate_Rk_prefs

F = Fraction


def pref(*values) -> Preference:
    return Preference.normalized([F(v) for v in values])


def profile(*rows) -> Profile:
    return Profile(tuple(pref(*row) for row in rows))


class TestIntegerCbrt:
    @pytest.mark.parametrize(
        "x,expected", [(1, 1), (7, 1), (8, 2), (26, 2), (27, 3), (63, 3), (64, 4),
                       (124, 4), (125, 5), (216, 6), (216**2, 36)]
    )
    def test_known_values(self, x, expected):
        assert integer_cbrt(x) == expected

    @given(st.integers(0, 10**9))
    def test_definition(self, x):
        t = integer_cbrt(x)
        assert t**3 <= x < (t + 1) ** 3

    def test_beyond_float_range(self):
        t = integer_cbrt(10**400)
        assert t**3 <= 10**400 < (t + 1) ** 3

    @pytest.mark.parametrize("t", [10**120 + 7, 2**700 - 1], ids=["10**120+7", "2**700-1"])
    def test_around_large_cubes(self, t):
        assert integer_cbrt(t**3 - 1) == t - 1
        assert integer_cbrt(t**3) == t
        assert integer_cbrt(t**3 + 1) == t


class TestRangeVoting:
    def test_clear_winner(self):
        assert range_voting().evaluate(profile((1, "1/2", 0), (0, 1, "1/2"))).probs == (
            F(0), F(1), F(0),
        )

    def test_tie_to_lowest_index(self):
        assert range_voting().evaluate(profile((1, 0), (0, 1))).probs == (F(1), F(0))

    def test_single_voter(self):
        assert range_voting().evaluate(profile((0, 1))).probs == (F(0), F(1))


class TestJ1q:
    def test_random_dictator(self):
        assert j1q(1).evaluate(profile((1, 0), (0, 1))).probs == (F(1, 2), F(1, 2))

    def test_top_two_single_voter(self):
        assert j1q(2).evaluate(profile((1, "1/2", 0))).probs == (F(1, 2), F(1, 2), F(0))

    def test_tie_break_by_name(self):
        assert j1q(1).evaluate(profile((1, 1, 0))).probs == (F(1), F(0), F(0))

    def test_q_above_m_rejected_at_evaluation(self):
        with pytest.raises(IndexError):
            j1q(3).evaluate(profile((1, 0)))

    def test_q_below_one_rejected(self):
        with pytest.raises(PreconditionError):
            j1q(0)

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_entries_are_multiples_of_unit(self, q, data):
        prefs = list(enumerate_Rk_prefs(3, 3, tie_free=True))
        n = data.draw(st.integers(1, 3))
        rows = [data.draw(st.sampled_from(prefs)) for _ in range(n)]
        dist = j1q(q).evaluate(Profile(tuple(rows)))
        unit = F(1, n * q)
        for p in dist.probs:
            assert (p / unit).denominator == 1


class TestJ2q:
    def test_majority_pair(self):
        assert j2q(2).evaluate(profile((1, 0), (1, 0), (0, 1))).probs == (F(1), F(0))

    def test_unreachable_quota_is_coin_flip(self):
        assert j2q(4).evaluate(profile((1, 0), (1, 0), (0, 1))).probs == (
            F(1, 2), F(1, 2),
        )

    def test_three_candidates_pinned_by_pair_oracle(self):
        # Independent enumeration of the three pairs with quota 2:
        #   {1,2}: voters prefer 1,1,2 -> candidate 1 wins 2-1
        #   {1,3}: voters prefer 1,1,3 -> candidate 1 wins 2-1
        #   {2,3}: voters prefer 2,2,3 -> candidate 2 wins 2-1
        # so the distribution is (2/3, 1/3, 0).
        u = profile((1, "1/2", 0), (1, "1/2", 0), (0, "1/2", 1))
        oracle = _pair_vote_oracle(u, q=2)
        assert oracle == (F(2, 3), F(1, 3), F(0))
        assert j2q(2).evaluate(u).probs == oracle

    def test_matches_oracle_on_tie_free_grid(self):
        prefs = list(enumerate_Rk_prefs(3, 3, tie_free=True))
        for rows in itertools.islice(itertools.product(prefs, repeat=2), 0, 144, 7):
            u = Profile(tuple(rows))
            for q in j2q_quota_range(2):
                assert j2q(q).evaluate(u).probs == _pair_vote_oracle(u, q)

    def test_unanimous_loser_gets_zero(self):
        u = profile((1, "1/2", 0), ("1/2", 1, 0), (1, "1/4", 0))
        for q in range(1, 4):
            assert j2q(q).evaluate(u).probs[2] == 0

    def test_indifference_votes_for_lower_index(self):
        # Single voter tied on {1,2}: the vote goes to candidate 1, which
        # reaches any quota q=1 alone.
        assert j2q(1).evaluate(profile((1, 1, 0))).probs[0] > F(1, 3)

    def test_quota_range(self):
        assert list(j2q_quota_range(3)) == [2, 3, 4]
        assert list(j2q_quota_range(2)) == [2, 3]


def _pair_vote_oracle(u: Profile, q: int) -> tuple[Fraction, ...]:
    """Brute-force pairwise election, independent of the evaluator."""
    m, n = u.m, u.n
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    probs = [F(0)] * m
    for j0, j1 in pairs:
        votes0 = 0
        for p in u.prefs:
            a, b = p.values[j0 - 1], p.values[j1 - 1]
            if a > b or (a == b and j0 < j1):
                votes0 += 1
        votes1 = n - votes0
        share = F(1, len(pairs))
        if votes0 >= q and votes1 < q:
            probs[j0 - 1] += share
        elif votes1 >= q and votes0 < q:
            probs[j1 - 1] += share
        else:
            probs[j0 - 1] += share / 2
            probs[j1 - 1] += share / 2
    return tuple(probs)


class TestMix:
    def test_singleton_is_identity(self):
        u = profile((1, "1/2", 0), (0, 1, "1/2"))
        assert mix([(1, j1q(2))]).evaluate(u) == j1q(2).evaluate(u)

    def test_self_mix_is_identity(self):
        u = profile((1, 0), (0, 1))
        rv = range_voting()
        assert mix([(F(1, 2), rv), (F(1, 2), rv)]).evaluate(u) == rv.evaluate(u)

    def test_average_of_two_lotteries(self):
        u = profile((1, "1/2", 0))
        got = mix([(F(1, 2), j1q(1)), (F(1, 2), j1q(2))]).evaluate(u)
        assert got.probs == (F(3, 4), F(1, 4), F(0))

    def test_flattening_preserves_distribution(self):
        u = profile((1, "1/2", 0), (0, 1, "1/2"))
        nested = mix([
            (F(1, 2), mix([(F(1, 2), j1q(1)), (F(1, 2), j1q(2))])),
            (F(1, 2), j1q(3)),
        ])
        flat = mix([(F(1, 4), j1q(1)), (F(1, 4), j1q(2)), (F(1, 2), j1q(3))])
        assert nested.evaluate(u) == flat.evaluate(u)

    def test_bad_weights(self):
        with pytest.raises(WeightError):
            mix([(F(1, 2), j1q(1))])
        with pytest.raises(WeightError):
            mix([(F(3, 2), j1q(1)), (F(-1, 2), j1q(2))])
        with pytest.raises(WeightError):
            mix([])


class TestJStar:
    def test_m7_collapses_to_random_favorite(self):
        u = profile((1, "1/2", "1/4", "1/8", "1/16", "1/32", 0))
        assert j_star(7).evaluate(u) == j1q(1).evaluate(u)

    def test_m8_uses_exact_cube_root(self):
        u = profile((1, "1/2", "1/4", "1/8", "1/16", "1/32", "1/64", 0))
        expected = mix([(F(1, 2), j1q(1)), (F(1, 2), j1q(2))]).evaluate(u)
        assert j_star(8).evaluate(u) == expected

    def test_m27_single_descending_voter(self):
        values = [F(27 - j, 27) for j in range(1, 28)]
        u = Profile((normalize_to_pref(values),))
        dist = j_star(27).evaluate(u)
        assert dist.probs[:4] == (F(2, 3), F(1, 6), F(1, 6), F(0))
        assert all(p == 0 for p in dist.probs[3:])

    @pytest.mark.parametrize("m, other", [(27, 8), (8, 27), (3, 7), (7, 3)])
    def test_other_candidate_count_raises(self, m, other):
        # j_star(27) on 8 candidates would mix in the top-3 lottery, which
        # j_star(8) does not; below m = 8 it would pass for the right scheme.
        u = Profile((Preference.from_steps(list(range(other)), other - 1),))
        with pytest.raises(PreconditionError, match=f"fixed at m={m}; got m={other}"):
            j_star(m).evaluate(u)
        assert j_star(other).evaluate(u) == mixture_j_star(other).evaluate(u)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(2, 30), st.integers(63, 65)), st.integers(1, 5),
           st.integers(1, 70), st.integers(0, 2**32), st.integers(2, 65))
    def test_matches_mixture_reference(self, m, n, k, seed, other):
        # Small k gives value ties, which both break toward the lower index.
        u = rand_grid_profile(m, n, k, seed, tie_free=False)
        assert j_star(m).evaluate(u) == mixture_j_star(m).evaluate(u)
        if other != m:
            with pytest.raises(PreconditionError) as got:
                j_star(other).evaluate(u)
            with pytest.raises(PreconditionError) as expected:
                mixture_j_star(other).evaluate(u)
            assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("m", [1, 0, -8])
    def test_too_few_candidates_matches_mixture_reference(self, m):
        with pytest.raises(PreconditionError) as got:
            j_star(m)
        with pytest.raises(PreconditionError) as expected:
            mixture_j_star(m)
        assert str(got.value) == str(expected.value)


def mixture_j_star(m: int) -> Mechanism:
    """Reference stacked lottery composed from mechanisms: the even mixture of
    ``j1q(1)`` and ``j1q(t)``, t = max(1, floor(m^(1/3))), or ``j1q(1)``
    alone when t = 1, fixed at m candidates."""
    if m < 2:
        raise PreconditionError("need at least 2 candidates")
    t = max(1, integer_cbrt(m))
    inner = j1q(1) if t == 1 else mix([(F(1, 2), j1q(1)), (F(1, 2), j1q(t))])

    def evaluate(profile: Profile):
        if profile.m != m:
            raise PreconditionError(f"stacked lottery fixed at m={m}; got m={profile.m}")
        return inner.evaluate(profile)

    return Mechanism("jstar", evaluate, anonymous=True)


def normalize_to_pref(values):
    """The normalized preference affinely equivalent to ``values``."""
    lo, hi = min(values), max(values)
    return Preference.normalized((v - lo) / (hi - lo) for v in values)


class TestSymmetrize:
    def test_constant_scheme_becomes_uniform(self):
        sym = symmetrize(constant_winner(1), 2, 1)
        assert sym.evaluate(profile((1, 0))).probs == (F(1, 2), F(1, 2))

    def test_already_symmetric_scheme_unchanged_on_tie_free_grid(self):
        prefs = list(enumerate_Rk_prefs(3, 3, tie_free=True))
        sym = symmetrize(j1q(1), 3, 2)
        base = j1q(1)
        for rows in itertools.product(prefs, repeat=2):
            u = Profile(tuple(rows))
            assert sym.evaluate(u) == base.evaluate(u)

    def test_candidate_relabeling_equivariance(self):
        import random

        rng = random.Random(7)
        prefs = list(enumerate_Rk_prefs(3, 2, tie_free=False))
        sym = symmetrize(range_voting(), 3, 2)
        for _ in range(100):
            rows = tuple(rng.choice(prefs) for _ in range(2))
            u = Profile(tuple(rows))
            tau = list(range(1, 4))
            rng.shuffle(tau)
            relabeled = Profile(tuple(
                Preference.relaxed(p.values[tau[j] - 1] for j in range(3))
                for p in rows
            ))
            base = sym.evaluate(u)
            moved = sym.evaluate(relabeled)
            for j in range(3):
                assert moved.probs[j] == base.probs[tau[j] - 1]

    def test_budget_guard(self):
        # j1:1 is anonymous, so only the 11! candidate relabelings count.
        with pytest.raises(BudgetError, match="39916800"):
            symmetrize(j1q(1), 11, 2)

    def test_huge_m_is_refused_before_the_count(self):
        # m! >= 2**(m-1) refuses m = 3*10**5 before its 1.5-million-digit
        # factorial, about a second's work, is built.
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=r"needs at least 2\*\*299999 steps"):
            symmetrize(range_voting(), 3 * 10**5, 1)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("n", [10**5, 3 * 10**5])
    def test_huge_n_is_refused_before_the_count(self, n):
        # Not flagged anonymous, so the n! voter relabelings count too:
        # n!*m! >= 2**(m+n-2) refuses before n!, up to a second's work, is built.
        hand = Mechanism("hand", range_voting().evaluate)
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=rf"needs at least 2\*\*{n + 1} steps"):
            symmetrize(hand, 3, n)
        assert time.perf_counter() - start < 0.1

    def test_n_does_not_bound_an_anonymous_scheme(self):
        # Its voter relabelings are never enumerated, so only m! counts.
        with pytest.raises(BudgetError, match=r"needs at least 2\*\*299999 steps"):
            symmetrize(range_voting(), 3 * 10**5, 10**5)
        assert symmetrize(range_voting(), 3, 10**5).name == "sym:rv"

    def test_reads_ties_that_the_strict_order_drops(self):
        # Both voters have the strict order (1, 2, 3), yet sym:j1:1 splits
        # the tie of [1, 1, 0]: sym: of an order-reading scheme does not
        # read strict orders alone, so a strict-order proof would not cover it.
        sym = parse_mechanism("sym:j1:1", 3, 1)
        tied, strict = profile((1, 1, 0)), profile((1, "1/2", 0))
        assert tied.prefs[0].order == strict.prefs[0].order == (1, 2, 3)
        assert sym.evaluate(tied).probs == (F(1, 2), F(1, 2), 0)
        assert sym.evaluate(strict).probs == (1, 0, 0)

    def test_cost_counts_the_inner_evaluations(self):
        # One evaluation of sym:X runs X once per relabeling; a mixture runs
        # each part of nonzero weight once.
        assert range_voting().cost == j1q(2).cost == 1
        assert symmetrize(j1q(1), 4, 3).cost == 24
        assert symmetrize(Mechanism("hand", range_voting().evaluate), 3, 2).cost == 12
        assert parse_mechanism("sym:sym:rv", 4, 1).cost == 24
        assert parse_mechanism("mix:1/2*sym:rv+1/2*j1:1", 3, 2).cost == 7
        assert parse_mechanism("mix:1*sym:rv+0*j1:1", 3, 2).cost == 6
        assert parse_mechanism("sym:mix:1/2*j2:2+1/2*(mix:1/2*rv+1/2*j1:1)", 3, 2).cost == 18
        sym = symmetrize(j1q(1), 3, 2)
        assert dataclasses.replace(sym, cost=1) == sym  # cost is not compared

    def test_profile_shape_enforced(self):
        sym = symmetrize(j1q(1), 2, 2)
        with pytest.raises(PreconditionError):
            sym.evaluate(profile((1, 0)))

    @pytest.mark.parametrize("m, n", [(-1, 2), (1, 2), (3, 0), (3, -1)])
    def test_bad_shape_is_refused_before_anything_is_built(self, m, n):
        # math.factorial raised a bare ValueError for a negative m or n.
        for mech in (range_voting(), Mechanism("hand", range_voting().evaluate)):
            with pytest.raises(PreconditionError, match=f"got m={m}, n={n}"):
                symmetrize(mech, m, n)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["rv", "j1:1", "j2:1", "const:2", "jstar", "mix:1/2*rv+1/2*j1:2"]),
           st.integers(2, 4), st.integers(1, 2), st.integers(1, 3), st.integers(0, 2**32))
    def test_nested_sym_matches_symmetrizing_twice(self, spec, m, n, k, seed):
        # A group average is idempotent, so the parser builds sym:sym:X as
        # sym:X renamed; the real double average agrees, ties included.
        u = rand_grid_profile(m, n, k, seed, tie_free=False)
        inner = parse_mechanism(spec, m, n)
        nested = parse_mechanism(f"sym:sym:{spec}", m, n)
        assert nested.name == f"sym:sym:{inner.name}" and nested.anonymous
        assert nested.evaluate(u) == symmetrize(symmetrize(inner, m, n), m, n).evaluate(u)


class TestSample:
    def test_degenerate_distribution(self):
        assert sample(constant_winner(1), profile((0, 1), (1, 0)), seed=123) == 1

    @given(st.integers(0, 2**30))
    @settings(max_examples=25, deadline=None)
    def test_same_seed_same_draw(self, seed):
        u = profile((1, 0), (0, 1))
        assert sample(j1q(1), u, seed) == sample(j1q(1), u, seed)

    def test_stream_matches_singles_for_first_draw(self):
        u = profile((1, "1/2", 0), (0, 1, "1/2"))
        assert sample_stream(j1q(2), u, 1, 99)[0] == sample(j1q(2), u, 99)


SIMPLE_SPECS = ["rv", "jstar", "j1:1", "j1:2", "j2:1", "j2:2", "const:1", "const:2"]


class TestParser:
    @pytest.mark.parametrize("spec", ["rv", "j1:1", "j1:3", "j2:2", "jstar", "const:2"])
    def test_simple_specs(self, spec):
        mech = parse_mechanism(spec, 3, 2)
        u = profile((1, "1/2", 0), (0, 1, "1/2"))
        assert sum(mech.evaluate(u).probs) == 1

    def test_jstar_is_the_stacked_lottery_for_the_given_m(self):
        u = profile((1, "1/2", 0))
        assert parse_mechanism("jstar", 3, 1).evaluate(u) == j_star(3).evaluate(u)

    def test_mix_spec(self):
        u = profile((1, "1/2", 0))
        mech = parse_mechanism("mix:1/2*j1:1+1/2*j1:2", 3, 1)
        assert mech.evaluate(u).probs == (F(3, 4), F(1, 4), F(0))

    def test_nested_mix_needs_parens(self):
        u = profile((1, "1/2", 0), (0, 1, "1/2"))
        mech = parse_mechanism("mix:1/2*(mix:1/2*j1:1+1/2*j1:2)+1/2*rv", 3, 2)
        direct = mix([
            (F(1, 2), mix([(F(1, 2), j1q(1)), (F(1, 2), j1q(2))])),
            (F(1, 2), range_voting()),
        ])
        assert mech.evaluate(u) == direct.evaluate(u)

    @pytest.mark.parametrize("spec, same", [
        ("mix:1e+0*rv", "mix:1*rv"),
        ("mix:0.5e+0*rv+1/2*j1:1", "mix:1/2*rv+1/2*j1:1"),
    ])
    def test_exponent_sign_in_weight_is_not_a_separator(self, spec, same):
        u = profile((1, "1/2", 0), (0, 1, "1/2"))
        mech, expected = parse_mechanism(spec, 3, 2), parse_mechanism(same, 3, 2)
        assert mech.name == expected.name
        assert mech.evaluate(u) == expected.evaluate(u)

    def test_sym_spec(self):
        u = profile((1, 0))
        mech = parse_mechanism("sym:const:1", 2, 1)
        assert mech.evaluate(u).probs == (F(1, 2), F(1, 2))

    @pytest.mark.parametrize("bad", ["j3:1", "mix:1/2*j1:1", "mix:x*rv+1*rv",
                                     "mix:1/2*j1:1+(1/2*rv", ""])
    def test_errors_name_the_token(self, bad):
        with pytest.raises((MechanismSpecError, WeightError)):
            parse_mechanism(bad, 3, 2)

    def test_jstar_and_sym_are_built_once_for_the_given_shape(self, monkeypatch):
        import cardvote.mechanisms as mechanisms

        built = []

        def counting_symmetrize(mech, m, n):
            built.append(("symmetrize", mech.name, m, n))
            return symmetrize(mech, m, n)

        def counting_j_star(m):
            built.append(("j_star", m))
            return j_star(m)

        monkeypatch.setattr(mechanisms, "symmetrize", counting_symmetrize)
        monkeypatch.setattr(mechanisms, "j_star", counting_j_star)
        sym, jstar = parse_mechanism("sym:j2:2", 3, 2), parse_mechanism("jstar", 3, 2)
        assert built == [("symmetrize", "j2:2", 3, 2), ("j_star", 3)]
        pairs = profile((1, "1/2", 0), (0, 1, "1/2"))
        other_pairs = profile((0, "1/2", 1), ("1/2", 1, 0))
        for u in (pairs, other_pairs, pairs):
            assert sym.evaluate(u) == symmetrize(j2q(2), 3, 2).evaluate(u)
            assert jstar.evaluate(u) == j_star(3).evaluate(u)
        assert len(built) == 2  # evaluation builds nothing

        # Another shape is refused, not built for.
        triple = profile((1, "1/2", 0), (0, 1, "1/2"), (1, 0, "1/2"))
        with pytest.raises(PreconditionError, match="fixed at m=3, n=2; got m=3, n=3"):
            sym.evaluate(triple)
        with pytest.raises(PreconditionError, match="fixed at m=3; got m=4"):
            jstar.evaluate(profile((1, "1/2", 0, 0)))
        assert len(built) == 2

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 2), st.integers(1, 3), st.integers(0, 2**32),
           st.fractions(0, 1, max_denominator=4), st.sampled_from(SIMPLE_SPECS),
           st.sampled_from(SIMPLE_SPECS))
    def test_sym_of_a_mixture_of_sym_parts_is_not_averaged_again(self, m, n, k, seed, w, a, b):
        # The outer sym: of a relabel-invariant mixture changes nothing, so
        # the parse skips the m!**2 evaluations of averaging it again.
        u = rand_grid_profile(m, n, k, seed, tie_free=False)
        mech = parse_mechanism(f"sym:mix:{w}*sym:{a}+{1 - w}*sym:{b}", m, n)
        parts = [(w, symmetrize(parse_mechanism(a, m, n), m, n)),
                 (1 - w, symmetrize(parse_mechanism(b, m, n), m, n))]
        assert mech.evaluate(u) == symmetrize(mix(parts), m, n).evaluate(u)
        again = parse_mechanism(mech.name, m, n)
        assert again.name == mech.name
        assert again.evaluate(u) == mech.evaluate(u)
