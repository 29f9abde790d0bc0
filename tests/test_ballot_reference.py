"""Differential tests of the integer ballot tables against simple exact
references.

The references below are the straightforward evaluators: each voter's
strict order by a ``(-value, index)`` sort, the top-q lottery as a loop over
every voter's q favorites, the pairwise-quota scheme as a per-pair `Fraction`
vote count (``>=``, so a tie votes for the lower index), and ``all_q_ratios``
from a per-voter position table.  ``Preference.order``, the ``j1q``/``j2q``
evaluators and ``bounds.all_q_ratios`` must agree with them exactly, for
every q, on profiles with value ties.

The ballot's pairwise table ``Ballot.beats`` (also against two earlier
packed bodies, with one-byte chunks of 255 voters and with fields wide
enough for n), the integer-numerator ``welfare_vector``, the ``j_star`` and
the quota sweep in ``all_q_ratios`` are checked against the plain loops
they replaced: a per-pair increment over every voter's order, a `Fraction`
sum, the even mixture of two reference top-q lotteries and the per-voter
position table above.

The ballot counts each distinct strict order once, times its
multiplicity.  Its two tables must equal the ones counted voter by voter,
by the bodies that ``Profile.places`` and ``core.pairwise_beats`` had
before the ballot owned the tables, on tied and repeated profiles and
across every field width.
"""

import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cardvote.bounds import all_q_ratios
from cardvote.core import (
    ZERO,
    Ballot,
    CandidateDistribution,
    Preference,
    Profile,
    scaled,
    welfare_vector,
)
from cardvote.errors import UndefinedRatioError
from cardvote.generators import gen_negative, rand_grid_profile
from cardvote.mechanisms import integer_cbrt, j1q, j2q, j2q_quota_range, j_star


def reference_order(pref: Preference) -> tuple[int, ...]:
    return tuple(sorted(range(1, pref.m + 1), key=lambda j: (-pref.values[j - 1], j)))


def reference_j1q(profile: Profile, q: int) -> CandidateDistribution:
    share = Fraction(1, profile.n * q)
    probs = [ZERO] * profile.m
    for p in profile.prefs:
        for j in reference_order(p)[:q]:
            probs[j - 1] += share
    return CandidateDistribution(*scaled(probs))


def reference_j2q(profile: Profile, q: int) -> CandidateDistribution:
    m, n = profile.m, profile.n
    half = Fraction(1, m * (m - 1))
    probs = [ZERO] * m
    for j0, j1 in itertools.combinations(range(1, m + 1), 2):
        votes0 = sum(1 for p in profile.prefs if p.values[j0 - 1] >= p.values[j1 - 1])
        votes1 = n - votes0
        meets0, meets1 = votes0 >= q, votes1 >= q
        if meets0 and not meets1:
            probs[j0 - 1] += 2 * half
        elif meets1 and not meets0:
            probs[j1 - 1] += 2 * half
        else:
            probs[j0 - 1] += half
            probs[j1 - 1] += half
    return CandidateDistribution(*scaled(probs))


def reference_pairwise_beats(profile: Profile) -> list[list[int]]:
    m = profile.m
    beats = [[0] * m for _ in range(m)]
    for pref in profile.prefs:
        order = [cand - 1 for cand in reference_order(pref)]
        for place, cand in enumerate(order):
            row = beats[cand]
            for other in order[place + 1:]:
                row[other] += 1
    return beats


def voter_places(profile: Profile) -> list[list[int]]:
    # The body of ``Profile.places`` before the ballot owned the table.
    m = profile.m
    places = [[0] * m for _ in range(m)]
    for pref in profile.prefs:
        for place, cand in enumerate(pref.order):
            places[cand - 1][place] += 1
    return places


def chunked_pairwise_beats(profile: Profile) -> list[list[int]]:
    # The body of ``core.pairwise_beats`` before the ballot owned the table:
    # every voter, in chunks of at most 255 with one byte per pair.
    m, prefs = profile.m, profile.prefs
    bits = [0] + [1 << (8 * c) for c in range(m)]

    def chunk_rows(start: int):
        rows = [0] * (m + 1)
        for pref in prefs[start:start + 255]:
            below = 0
            for cand in reversed(pref.order):
                rows[cand] += below
                below |= bits[cand]
        return (packed.to_bytes(m, "little") for packed in rows[1:])

    beats = [list(data) for data in chunk_rows(0)]
    for start in range(255, len(prefs), 255):
        for row, data in zip(beats, chunk_rows(start)):
            row[:] = map(operator.add, row, data)
    return beats


def packed_width_pairwise_beats(profile: Profile) -> list[list[int]]:
    # The previous packed body: one pass over every voter with fields wide
    # enough for n (two bytes from n = 256), each unpacked by int.from_bytes.
    m = profile.m
    width = max(1, (profile.n.bit_length() + 7) // 8)
    bits = [0] + [1 << (8 * width * c) for c in range(m)]
    rows = [0] * (m + 1)
    for pref in profile.prefs:
        below = 0
        for cand in reversed(pref.order):
            rows[cand] += below
            below |= bits[cand]
    size = m * width
    beats = []
    for packed in rows[1:]:
        data = packed.to_bytes(size, "little")
        beats.append(
            [int.from_bytes(data[i:i + width], "little") for i in range(0, size, width)]
        )
    return beats


def reference_welfare_vector(profile: Profile) -> tuple[Fraction, ...]:
    totals = [ZERO] * profile.m
    for p in profile.prefs:
        for idx, v in enumerate(p.values):
            totals[idx] += v
    return tuple(totals)


def reference_j_star(profile: Profile) -> CandidateDistribution:
    t = max(1, integer_cbrt(profile.m))
    favorite, wide = reference_j1q(profile, 1), reference_j1q(profile, t)
    return CandidateDistribution(
        *scaled([(f + w) / 2 for f, w in zip(favorite.probs, wide.probs)])
    )


def reference_all_q_ratios(profile: Profile):
    m, n = profile.m, profile.n
    totals = welfare_vector(profile)
    best = max(totals)
    if best <= ZERO:
        raise UndefinedRatioError("maximal welfare is zero")
    pos = []
    for pref in profile.prefs:
        row = [0] * m
        for place, cand in enumerate(reference_order(pref), start=1):
            row[cand - 1] = place
        pos.append(row)

    at_place = [[0] * (m + 1) for _ in range(m)]
    for row in pos:
        for cand_idx, place in enumerate(row):
            at_place[cand_idx][place] += 1
    j1 = {}
    for q in range(1, m + 1):
        numer = ZERO
        for cand_idx in range(m):
            numer += sum(at_place[cand_idx][1 : q + 1]) * totals[cand_idx]
        j1[q] = numer / (n * q * best)

    beats = [[0] * m for _ in range(m)]
    for row in pos:
        for a, b in itertools.combinations(range(m), 2):
            if row[a] < row[b]:
                beats[a][b] += 1
            else:
                beats[b][a] += 1
    npairs = m * (m - 1) // 2
    j2 = {}
    for q in j2q_quota_range(n):
        units = [0] * m
        for a, b in itertools.combinations(range(m), 2):
            v0, v1 = beats[a][b], n - beats[a][b]
            if v0 >= q and v1 < q:
                units[a] += 2
            elif v1 >= q and v0 < q:
                units[b] += 2
            else:
                units[a] += 1
                units[b] += 1
        j2[q] = sum((u * w for u, w in zip(units, totals)), ZERO) / (2 * npairs * best)
    return j1, j2


# Relaxed preferences on a coarse grid, so value ties are common.
def relaxed_prefs(m):
    return st.lists(
        st.integers(0, 3), min_size=m, max_size=m
    ).map(lambda steps: Preference.relaxed(Fraction(s, 3) for s in steps))


@st.composite
def tied_profiles(draw, max_m=6, max_n=6):
    m = draw(st.integers(2, max_m))
    n = draw(st.integers(1, max_n))
    return Profile(tuple(draw(relaxed_prefs(m)) for _ in range(n)))


@st.composite
def grid_profiles(draw):
    m = draw(st.integers(2, 7))
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 5))
    return rand_grid_profile(m, n, k, draw(st.integers(0, 10 ** 6)), tie_free=False)


edge_profiles = st.one_of(tied_profiles(max_m=2), tied_profiles(max_n=1))
any_profile = st.one_of(tied_profiles(), grid_profiles(), edge_profiles)


def check_evaluators(profile: Profile) -> None:
    for q in range(1, profile.m + 1):
        assert j1q(q).evaluate(profile) == reference_j1q(profile, q)
    for q in range(1, profile.n + 2):
        assert j2q(q).evaluate(profile) == reference_j2q(profile, q)


class TestOrder:
    @given(st.integers(2, 7).flatmap(relaxed_prefs))
    def test_matches_negated_key_sort(self, pref):
        assert pref.order == reference_order(pref)

    @given(any_profile)
    def test_tables_match_order(self, profile):
        m, n = profile.m, profile.n
        places, beats = profile.ballot.places, profile.ballot.beats
        for c in range(m):
            assert places[c] == [
                sum(1 for p in profile.prefs if reference_order(p)[place] == c + 1)
                for place in range(m)
            ]
        for a, b in itertools.permutations(range(m), 2):
            assert beats[a][b] + beats[b][a] == n
            expected = sum(
                1 for p in profile.prefs
                if reference_order(p).index(a + 1) < reference_order(p).index(b + 1)
            )
            assert beats[a][b] == expected
        assert all(beats[c][c] == 0 for c in range(m))


class TestEvaluators:
    @settings(max_examples=150)
    @given(any_profile)
    def test_j1q_and_j2q_match_reference_for_every_q(self, profile):
        check_evaluators(profile)

    def test_all_ties_single_voter(self):
        profile = Profile((Preference.relaxed([Fraction(1, 2)] * 4),))
        check_evaluators(profile)
        assert j1q(1).evaluate(profile).probs[0] == 1

    def test_two_candidates_tie_votes_for_lower_index(self):
        profile = Profile((Preference.relaxed([1, 1]), Preference.relaxed([0, 1])))
        check_evaluators(profile)


class TestAllQRatios:
    @settings(max_examples=150)
    @given(any_profile)
    def test_matches_reference(self, profile):
        try:
            expected = reference_all_q_ratios(profile)
        except UndefinedRatioError:
            return
        assert all_q_ratios(profile) == expected

    @settings(max_examples=50)
    @given(any_profile)
    def test_agrees_with_evaluators(self, profile):
        try:
            j1, j2 = all_q_ratios(profile)
        except UndefinedRatioError:
            return
        totals = welfare_vector(profile)
        best = max(totals)
        for q, r in j1.items():
            dist = reference_j1q(profile, q)
            assert r == sum((p * w for p, w in zip(dist.probs, totals)), ZERO) / best
        for q, r in j2.items():
            dist = reference_j2q(profile, q)
            assert r == sum((p * w for p, w in zip(dist.probs, totals)), ZERO) / best


# Mixed denominators, so the common-denominator scaling in ``order`` and
# ``welfare_vector`` meets values whose denominators differ.
def mixed_prefs(m):
    return st.lists(
        st.fractions(0, 1, max_denominator=12), min_size=m, max_size=m
    ).map(Preference.relaxed)


@st.composite
def mixed_profiles(draw, max_m=7, max_n=6):
    m = draw(st.integers(2, max_m))
    n = draw(st.integers(1, max_n))
    return Profile(tuple(draw(mixed_prefs(m)) for _ in range(n)))


@st.composite
def tie_free_profiles(draw):
    m = draw(st.integers(2, 7))
    n = draw(st.integers(1, 7))
    k = draw(st.integers(m - 1, 12))
    return rand_grid_profile(m, n, k, draw(st.integers(0, 10 ** 6)))


# Voter counts on both sides of each chunk boundary: every chunk of at most
# 255 voters is counted in one-byte fields, so these take one, two or three
# chunks.
CHUNK_EDGES = (254, 255, 256, 509, 510, 511, 765, 766)


@st.composite
def wide_profiles(draw):
    m = draw(st.integers(2, 5))
    n = draw(st.sampled_from(CHUNK_EDGES))
    k = draw(st.integers(1, 4))
    return rand_grid_profile(m, n, k, draw(st.integers(0, 10 ** 6)), tie_free=False)


packed_profile = st.one_of(any_profile, mixed_profiles(), tie_free_profiles())


# Copies per voter: a distinct order's multiplicity then crosses one, two or
# three 255-voter chunks of the voter-by-voter body, and n passes 255.
REPEATS = (1, 2, 85, 86, 255, 256, 300)


@st.composite
def repeated_profiles(draw):
    base = draw(st.one_of(tied_profiles(max_n=4), grid_profiles()))
    copies = draw(st.sampled_from(REPEATS))
    prefs = draw(st.permutations(base.prefs * copies)) if copies < 100 else base.prefs * copies
    return Profile(tuple(prefs))


class TestBallotTables:
    """The ballot's tables, counted once per distinct order times its
    multiplicity, equal the tables counted voter by voter."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(packed_profile, wide_profiles(), repeated_profiles()))
    def test_tables_match_voter_by_voter_bodies(self, profile):
        ballot = profile.ballot
        assert ballot.places == voter_places(profile)
        assert ballot.beats == chunked_pairwise_beats(profile)
        assert ballot.n == profile.n and ballot.m == profile.m

    @settings(max_examples=50)
    @given(any_profile)
    def test_holds_each_distinct_order_once_with_its_count(self, profile):
        ballot = profile.ballot
        orders = [p.order for p in profile.prefs]
        assert list(ballot.orders) == sorted(set(orders))
        assert list(ballot.counts) == [orders.count(o) for o in ballot.orders]

    @settings(max_examples=30, deadline=None)
    @given(repeated_profiles(), st.randoms(use_true_random=False))
    def test_voter_order_does_not_enter(self, profile, rng):
        prefs = list(profile.prefs)
        rng.shuffle(prefs)
        assert Profile(tuple(prefs)).ballot == profile.ballot

    @pytest.mark.parametrize("n", [2**32 - 1, 2**32, 2**64 - 1])
    def test_wide_counts_use_wide_fields(self, n):
        # Voter counts no profile held in memory reaches, on a ballot built
        # by hand: the largest n of four-byte fields and both ends of eight.
        count = n - 1
        ballot = Ballot(((2, 1, 3), (3, 2, 1)), (count, 1))
        assert ballot.beats == [[0, 0, count], [n, 0, count], [1, 1, 0]]
        assert ballot.places == [[0, count, 1], [count, 1, 0], [1, 0, count]]


class TestPackedTables:
    @settings(max_examples=150)
    @given(packed_profile)
    def test_pairwise_beats_matches_loop(self, profile):
        assert profile.ballot.beats == reference_pairwise_beats(profile)

    @settings(max_examples=20, deadline=None)
    @given(wide_profiles())
    def test_pairwise_beats_across_field_widths(self, profile):
        expected = reference_pairwise_beats(profile)
        assert profile.ballot.beats == expected
        assert chunked_pairwise_beats(profile) == expected
        assert packed_width_pairwise_beats(profile) == expected

    def test_unanimous_counts_fill_the_field(self):
        # Every count is 0 or n, so a chunk of 256 voters in one-byte fields,
        # or 65536 in two-byte ones, would carry into the next candidate's
        # entry.
        for n in (*CHUNK_EDGES, 65535, 65536):
            profile = Profile((Preference.relaxed([1, Fraction(1, 2), 0]),) * n)
            assert profile.ballot.beats == [[0, n, n], [0, 0, n], [0, 0, 0]]
            assert profile.ballot.places == [[n, 0, 0], [0, n, 0], [0, 0, n]]

    @settings(max_examples=150)
    @given(st.one_of(packed_profile, wide_profiles()))
    def test_welfare_vector_matches_fraction_sum(self, profile):
        totals = welfare_vector(profile)
        assert totals == reference_welfare_vector(profile)
        assert all(type(t) is Fraction for t in totals)


class TestOrderKeys:
    @given(st.integers(2, 7).flatmap(mixed_prefs))
    def test_mixed_denominators_match_negated_key_sort(self, pref):
        assert pref.order == reference_order(pref)


class TestJStar:
    @settings(max_examples=100)
    @given(st.one_of(packed_profile, mixed_profiles(max_m=12)))
    def test_matches_even_mixture_of_two_lotteries(self, profile):
        assert j_star(profile.m).evaluate(profile) == reference_j_star(profile)

    def test_larger_m_uses_a_wider_second_lottery(self):
        for m in (8, 27, 30):
            profile = gen_negative(m)
            assert j_star(m).evaluate(profile) == reference_j_star(profile)


class TestAllQSweep:
    def test_matches_reference_on_negative_profiles(self):
        for m in range(8, 65):
            profile = gen_negative(m)
            assert all_q_ratios(profile) == reference_all_q_ratios(profile), m

    @settings(max_examples=15, deadline=None)
    @given(wide_profiles())
    def test_matches_reference_with_many_voters(self, profile):
        try:
            expected = reference_all_q_ratios(profile)
        except UndefinedRatioError:
            return
        j1, j2 = all_q_ratios(profile)
        assert (j1, j2) == expected
        assert list(j2) == list(j2q_quota_range(profile.n))

    @settings(max_examples=100)
    @given(mixed_profiles())
    def test_matches_reference_with_mixed_denominators(self, profile):
        try:
            expected = reference_all_q_ratios(profile)
        except UndefinedRatioError:
            return
        assert all_q_ratios(profile) == expected
