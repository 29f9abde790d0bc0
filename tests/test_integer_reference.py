"""Differential tests of the paths that write rationals as integers over one
denominator (``core.scaled``) against the exact references they replaced.

- ``scaled`` must round-trip every value, and its denominator must be the
  least common one (here, an lcm folded pairwise through ``gcd``).
- ``sample_stream`` draws ``randrange(den)`` and bisects the integer
  cumulative sums; the reference scans the same sums linearly.
- ``reduce_to_Ck_trace`` finishes voters one at a time and tracks the
  benchmark functional as integers; the reference is the previous body,
  which rescans every voter for the first interior run before each slide and
  tracks the functional in `Fraction`s.  Whole traces must be equal.
- ``properties._order_pattern`` walks the cached order; the reference sorts
  the distinct values.
- ``CandidateDistribution`` holds non-negative integer numerators over one
  denominator in lowest terms.  Its validator must accept exactly the
  vectors the previous `Fraction` validator accepted, and its equality must
  be `Fraction` equality.  ``mix`` sums integer parts over their least
  common denominator; the reference is the previous `Fraction` sum.
- ``symmetrize`` skips the voter relabelings of an inner mechanism flagged
  ``anonymous``; the reference is the previous body, which averages over all
  n!*m! relabelings whatever the flag.
- Grid voters are built by ``Preference.from_steps`` and keep their integer
  form; ``two_block_preference``, ``rand_grid_profile`` and
  ``enumerate_Rk_prefs`` are compared with their previous bodies, which
  built `Fraction` vectors, and ``rounded`` and ``grid_steps`` with the
  `Fraction` comparisons they replaced.  ``reduce_to_Ck_trace`` decides each
  slide by an integer cross-product; its reference is the previous
  per-voter loop, which compared two `Fraction`s per slide.
"""

import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cardvote.bounds import (
    ReductionTrace,
    SlideStep,
    _checked_image,
    _image_runs,
    classify,
    reduce_to_Ck_trace,
    rounded,
)
from cardvote.core import (
    ONE,
    ZERO,
    CandidateDistribution,
    Preference,
    Profile,
    dot,
    grid_steps,
    scaled,
    welfare_vector,
)
from cardvote.errors import CardvoteError, GridError, PreconditionError, UndefinedRatioError
from cardvote.generators import DkParams, gen_Dk, rand_grid_profile, two_block_preference
from cardvote.mechanisms import (
    Mechanism,
    constant_winner,
    j1q,
    j2q,
    j_star,
    mix,
    range_voting,
    sample_stream,
    symmetrize,
)
from cardvote.properties import _order_pattern, enumerate_Rk_prefs, grid_pref_count


# ---------------------------------------------------------------------------
# scaled

def reference_lcm(denominators) -> int:
    return functools.reduce(lambda a, b: a * b // math.gcd(a, b), denominators, 1)


class TestScaled:
    @given(st.lists(st.fractions(max_denominator=10**6), max_size=30))
    @settings(max_examples=200)
    def test_round_trips_over_least_denominator(self, values):
        den, nums = scaled(values)
        assert den == reference_lcm(v.denominator for v in values)
        assert [Fraction(num, den) for num in nums] == values
        assert all(isinstance(num, int) for num in nums)

    def test_small_cases(self):
        assert scaled([Fraction(1, 2), Fraction(1, 3), Fraction(5, 6)]) == (6, (3, 2, 5))
        assert scaled([Fraction(2), ZERO]) == (1, (2, 0))
        assert scaled([Fraction(-3, 4), Fraction(1, 4)]) == (4, (-3, 1))
        assert scaled([]) == (1, ())


def reference_grid_steps(pref: Preference, k: int) -> list[int]:
    steps = []
    for v in pref.values:
        step = v * k
        if step.denominator != 1:
            raise GridError(f"value {v} is not a multiple of 1/{k}")
        steps.append(step.numerator)
    return steps


def outcome_of(fn, *args):
    try:
        return fn(*args)
    except CardvoteError as e:
        return type(e), str(e)


class TestGridSteps:
    def test_steps_and_error_text(self):
        assert grid_steps(Preference((Fraction(3, 4), ZERO, Fraction(1))), 4) == [3, 0, 4]
        with pytest.raises(GridError, match=r"^value 1/3 is not a multiple of 1/2$"):
            grid_steps(Preference((Fraction(1, 3), Fraction(1))), 2)

    @given(st.lists(st.fractions(0, 1, max_denominator=12), min_size=2, max_size=7),
           st.integers(1, 30))
    @settings(max_examples=300)
    def test_matches_fraction_steps(self, values, k):
        pref = Preference.relaxed(values)
        assert outcome_of(grid_steps, pref, k) == outcome_of(reference_grid_steps, pref, k)

    @given(st.integers(1, 12).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.integers(0, k), min_size=0, max_size=5))), st.integers(1, 30))
    @settings(max_examples=300)
    def test_step_built_matches_fraction_steps(self, shape, target):
        k, inner = shape
        pref = Preference.from_steps([0, k] + inner, k)
        assert outcome_of(grid_steps, pref, target) == outcome_of(
            reference_grid_steps, pref, target
        )


# ---------------------------------------------------------------------------
# sample_stream

def reference_sample_stream(dist: CandidateDistribution, count: int, seed: int) -> list[int]:
    den = math.lcm(*(p.denominator for p in dist.probs))
    cumulative = list(itertools.accumulate(int(p * den) for p in dist.probs))
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x = rng.randrange(den)
        out.append(next(j for j, acc in enumerate(cumulative, start=1) if acc > x))
    return out


def fixed(probs) -> tuple[Mechanism, CandidateDistribution]:
    dist = CandidateDistribution(*scaled([Fraction(p) for p in probs]))
    return Mechanism("fixed", lambda profile: dist), dist


ANY_PROFILE = Profile.of([Preference((Fraction(1), ZERO))])


@st.composite
def distributions(draw) -> list[Fraction]:
    weights = draw(st.lists(st.integers(0, 7), min_size=2, max_size=9).filter(any))
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


class TestSampleStream:
    @given(distributions(), st.integers(0, 2**32))
    @settings(max_examples=150)
    def test_matches_linear_scan(self, probs, seed):
        mech, dist = fixed(probs)
        draws = sample_stream(mech, ANY_PROFILE, 200, seed)
        assert draws == reference_sample_stream(dist, 200, seed)
        assert all(probs[j - 1] > 0 for j in draws)

    @pytest.mark.parametrize("probs", [[1, 0, 0, 0], [0, 0, 0, 1], [1]],
                             ids=["first", "last", "single"])
    def test_point_distributions(self, probs):
        mech, dist = fixed(probs)
        draws = sample_stream(mech, ANY_PROFILE, 500, 7)
        assert draws == [probs.index(1) + 1] * 500
        assert draws == reference_sample_stream(dist, 500, 7)

    def test_zero_probability_candidate_is_never_drawn(self):
        mech, dist = fixed(["1/3", 0, "1/6", "1/2", 0])
        draws = sample_stream(mech, ANY_PROFILE, 20_000, 11)
        assert draws == reference_sample_stream(dist, 20_000, 11)
        assert set(draws) == {1, 3, 4}

    def test_jstar_stream_matches_reference(self):
        profile = rand_grid_profile(8, 5, 64, 3)
        mech = j_star(8)
        draws = sample_stream(mech, profile, 5_000, 2025)
        assert draws == reference_sample_stream(mech.evaluate(profile), 5_000, 2025)


# ---------------------------------------------------------------------------
# reduce_to_Ck_trace

def reference_reduce_to_Ck_trace(profile: Profile, k: int) -> ReductionTrace:
    steps_by_voter = [grid_steps(p, k) for p in profile.prefs]
    for pref in profile.prefs:
        classify(pref, k)
    totals = welfare_vector(profile)
    if totals[0] <= ZERO:
        raise UndefinedRatioError("candidate 1 has zero welfare")
    dist = j_star(profile.m).evaluate(profile)
    one_step = Fraction(1, k)

    numer = dot(dist.probs, totals)
    denom = totals[0]
    g_initial = numer / denom
    g_current = g_initial

    steps = []
    while True:
        target = None
        for idx, voter_steps in enumerate(steps_by_voter):
            runs = _image_runs(set(voter_steps))
            if len(runs) > 2:
                target = (idx, runs[1])
                break
        if target is None:
            break
        idx, (lo, hi) = target
        voter_steps = steps_by_voter[idx]
        affected = [c for c, s in enumerate(voter_steps) if lo <= s <= hi]
        d_numer = one_step * sum((dist.probs[c] for c in affected), ZERO)
        d_denom = one_step if 0 in affected else ZERO
        g_left = (numer - d_numer) / (denom - d_denom)
        g_right = (numer + d_numer) / (denom + d_denom)
        if g_left <= g_right:
            delta, g_next, direction = -1, g_left, "left"
        else:
            delta, g_next, direction = +1, g_right, "right"
        for c in affected:
            voter_steps[c] += delta
        numer += delta * d_numer
        denom += delta * d_denom
        steps.append(SlideStep(idx + 1, (lo, hi), direction, g_current, g_next))
        g_current = g_next
    result = Profile(
        tuple(
            Preference(tuple(Fraction(s, k) for s in voter_steps))
            for voter_steps in steps_by_voter
        )
    )
    return ReductionTrace(result, tuple(steps), g_initial, g_current)


def fraction_reduce_to_Ck_trace(profile: Profile, k: int) -> ReductionTrace:
    """The per-voter loop before slides were decided in integers: two
    `Fraction` candidates per slide, and an unvalidated result."""
    steps_by_voter = [grid_steps(p, k) for p in profile.prefs]
    for pref, voter_steps in zip(profile.prefs, steps_by_voter):
        _checked_image(pref, voter_steps, k)
    column = [sum(steps) for steps in zip(*steps_by_voter)]
    if column[0] <= 0:
        raise UndefinedRatioError("candidate 1 has zero welfare")
    dist = j_star(profile.m).evaluate(profile)
    den, weights = dist.den, dist.nums
    numer = sum(w * c for w, c in zip(weights, column))
    denom = column[0]
    g_initial = g_current = Fraction(numer, den * denom)

    steps = []
    for voter, voter_steps in enumerate(steps_by_voter, start=1):
        while len(runs := _image_runs(set(voter_steps))) > 2:
            lo, hi = runs[1]
            affected = [c for c, s in enumerate(voter_steps) if lo <= s <= hi]
            d_numer = sum(weights[c] for c in affected)
            d_denom = 1 if 0 in affected else 0
            g_left = Fraction(numer - d_numer, den * (denom - d_denom))
            g_right = Fraction(numer + d_numer, den * (denom + d_denom))
            if g_left <= g_right:
                delta, g_next, direction = -1, g_left, "left"
            else:
                delta, g_next, direction = +1, g_right, "right"
            for c in affected:
                voter_steps[c] += delta
            numer += delta * d_numer
            denom += delta * d_denom
            steps.append(SlideStep(voter, (lo, hi), direction, g_current, g_next))
            g_current = g_next
    result = Profile(
        tuple(
            Preference(tuple(Fraction(s, k) for s in voter_steps))
            for voter_steps in steps_by_voter
        )
    )
    return ReductionTrace(result, tuple(steps), g_initial, g_current)


def outcome(reduce, profile: Profile, k: int):
    try:
        return reduce(profile, k)
    except UndefinedRatioError as e:
        return ("undefined", str(e))


@st.composite
def grid_shapes(draw) -> tuple[Profile, int]:
    m = draw(st.integers(4, 8))
    n = draw(st.integers(1, 6))
    k = draw(st.sampled_from([2 * m, 64]))
    return rand_grid_profile(m, n, k, draw(st.integers(0, 2**32))), k


class TestReductionTrace:
    @given(grid_shapes())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, shape):
        profile, k = shape
        got = outcome(reduce_to_Ck_trace, profile, k)
        assert got == outcome(reference_reduce_to_Ck_trace, profile, k)

    @given(grid_shapes())
    @settings(max_examples=150, deadline=None)
    def test_cross_products_match_fraction_slides(self, shape):
        profile, k = shape
        got = outcome(reduce_to_Ck_trace, profile, k)
        expected = outcome(fraction_reduce_to_Ck_trace, profile, k)
        if isinstance(expected, tuple):
            assert got == expected
            return
        assert got.steps == expected.steps
        assert (got.g_initial, got.g_final) == (expected.g_initial, expected.g_final)
        assert got.anomalies == expected.anomalies
        for mine, theirs in zip(got.result.prefs, expected.result.prefs, strict=True):
            assert_same_preference(mine, theirs)

    def test_many_voters_slide_in_both_directions(self):
        # Seeds with several sliding voters and slides in both directions, so
        # the comparison above is not won on empty traces.
        directions = set()
        for seed in range(6):
            profile = rand_grid_profile(8, 6, 64, seed)
            trace = reduce_to_Ck_trace(profile, 64)
            assert trace == reference_reduce_to_Ck_trace(profile, 64)
            assert len({s.voter for s in trace.steps}) > 1
            directions |= {s.direction for s in trace.steps}
        assert directions == {"left", "right"}


# ---------------------------------------------------------------------------
# _order_pattern

def reference_order_pattern(pref: Preference) -> tuple[int, ...]:
    levels = sorted(set(pref.values), reverse=True)
    index = {value: i for i, value in enumerate(levels)}
    return tuple(index[v] for v in pref.values)


class TestOrderPattern:
    @given(st.integers(1, 6).flatmap(
        lambda k: st.lists(st.integers(0, k), min_size=2, max_size=7).map(
            lambda steps: Preference.relaxed(Fraction(s, k) for s in steps))))
    @settings(max_examples=300)
    def test_matches_sorted_levels_on_tied_grid_prefs(self, pref):
        assert _order_pattern(pref) == reference_order_pattern(pref)

    def test_levels(self):
        pref = Preference.relaxed(["1/2", 1, "1/2", 0, 1])
        assert _order_pattern(pref) == (1, 0, 1, 2, 0)


# ---------------------------------------------------------------------------
# CandidateDistribution and mix

def reference_validate(probs) -> None:
    total = ZERO
    for p in probs:
        if p < ZERO:
            raise PreconditionError(f"negative probability {p}")
        total += p
    if total != ONE:
        raise PreconditionError(f"probabilities sum to {total}, not 1")


def reference_mix(parts, profile: Profile) -> tuple[Fraction, ...]:
    probs = [ZERO] * profile.m
    for w, mech in parts:
        if w == ZERO:
            continue
        for idx, p in enumerate(mech.evaluate(profile).probs):
            probs[idx] += w * p
    reference_validate(probs)
    return tuple(probs)


def accepted(validate) -> bool:
    try:
        validate()
    except PreconditionError:
        return False
    return True


@st.composite
def rational_vectors(draw) -> list[Fraction]:
    values = draw(st.lists(st.fractions(-2, 2, max_denominator=12), max_size=6))
    shape = draw(st.sampled_from(["raw", "completed", "normalized"]))
    if shape == "completed":  # sums to 1, entries of either sign
        values.append(1 - sum(values, ZERO))
    elif shape == "normalized" and any(values):  # non-negative, sums to 1
        total = sum(map(abs, values), ZERO)
        values = [abs(v) / total for v in values]
    return values


@st.composite
def mixtures(draw):
    m, n = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    profile = rand_grid_profile(m, n, 2 * m, draw(st.integers(0, 2**32)))
    mechs = draw(st.lists(st.one_of(
        st.just(range_voting()),
        st.integers(1, m).map(constant_winner),
        st.integers(1, m).map(j1q),
        st.integers(1, n + 1).map(j2q),
    ), min_size=1, max_size=4))
    weights = draw(st.lists(st.integers(0, 4), min_size=len(mechs),
                            max_size=len(mechs)).filter(any))
    total = sum(weights)
    return [(Fraction(w, total), mech) for w, mech in zip(weights, mechs)], profile


class TestDistribution:
    @given(rational_vectors())
    @settings(max_examples=400)
    def test_validator_matches_fraction_validator(self, values):
        expected = accepted(lambda: reference_validate(values))
        assert accepted(lambda: CandidateDistribution(*scaled(values))) == expected
        if expected:
            assert CandidateDistribution(*scaled(values)).probs == tuple(values)

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=3).filter(any),
           st.lists(st.integers(0, 3), min_size=2, max_size=3).filter(any),
           st.integers(1, 6))
    @settings(max_examples=300)
    def test_equality_is_fraction_equality(self, a, b, scale):
        fa = [Fraction(x, sum(a)) for x in a]
        fb = [Fraction(x, sum(b)) for x in b]
        da, db = CandidateDistribution(*scaled(fa)), CandidateDistribution(*scaled(fb))
        assert (da == db) == (fa == fb)
        if da == db:
            assert hash(da) == hash(db)
        unreduced = CandidateDistribution.over(sum(a) * scale, [x * scale for x in a])
        assert unreduced == da and hash(unreduced) == hash(da)

    def test_over_reduces_and_constructor_needs_lowest_terms(self):
        assert CandidateDistribution.over(4, (2, 2)) == CandidateDistribution(2, (1, 1))
        assert CandidateDistribution.over(6, (0, 6, 0)) == CandidateDistribution.point(2, 3)
        with pytest.raises(PreconditionError, match="lowest terms"):
            CandidateDistribution(2, (2, 0))
        with pytest.raises(PreconditionError, match="at least one candidate"):
            CandidateDistribution(1, ())


class TestMix:
    @given(mixtures())
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_sum(self, mixture):
        parts, profile = mixture
        got = mix(parts).evaluate(profile)
        expected = reference_mix(parts, profile)
        assert got.probs == expected
        assert got == CandidateDistribution(*scaled(expected))

    def test_zero_weight_part_is_skipped(self):
        # const:3 is out of range at m=2, so evaluating it would raise.
        profile = rand_grid_profile(2, 3, 4, 0)
        parts = [(ZERO, constant_winner(3)), (ONE, j1q(1))]
        assert mix(parts).evaluate(profile) == j1q(1).evaluate(profile)


# ---------------------------------------------------------------------------
# symmetrize

def reference_symmetrize(mech: Mechanism, profile: Profile) -> CandidateDistribution:
    m, n = profile.m, profile.n
    voter_perms = list(itertools.permutations(range(n)))
    cand_perms = list(itertools.permutations(range(1, m + 1)))
    total = len(voter_perms) * len(cand_perms)
    sums = [ZERO] * m
    for sigma in voter_perms:
        for tau in cand_perms:
            relabeled = Profile(tuple(
                Preference(tuple(profile.prefs[sigma[i]].values[tau[j] - 1] for j in range(m)))
                for i in range(n)
            ))
            inner = mech.evaluate(relabeled).probs
            for w in range(m):
                if inner[w] != ZERO:
                    sums[tau[w] - 1] += inner[w]
    return CandidateDistribution(*scaled([s / total for s in sums]))


def voter_one_favorite() -> Mechanism:
    """Voter 1's favorite wins: a dictatorship, so not anonymous."""

    def evaluate(profile: Profile) -> CandidateDistribution:
        return CandidateDistribution.point(profile.prefs[0].order[0], profile.m)

    return Mechanism("dictator", evaluate)


@st.composite
def symmetrize_cases(draw):
    m, n = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    k, seed = draw(st.integers(1, 4)), draw(st.integers(0, 2**32))
    profile = rand_grid_profile(m, n, k, seed, tie_free=False)
    inner = draw(st.one_of(
        st.just(range_voting()),
        st.just(voter_one_favorite()),
        st.integers(1, m).map(j1q),
        st.integers(1, n + 1).map(j2q),
        st.just(j_star(m)),
    ))
    return inner, profile


class TestSymmetrize:
    @given(symmetrize_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_all_relabelings(self, case):
        inner, profile = case
        expected = reference_symmetrize(inner, profile)
        for mech in (inner, dataclasses.replace(inner, anonymous=False)):
            assert symmetrize(mech, profile.m, profile.n).evaluate(profile) == expected

    def test_flag_skips_voter_relabelings(self):
        # A wrongly flagged dictatorship shows the skip: its candidate
        # relabelings alone always elect voter 1's favorite, while the
        # average over every voter splits evenly.
        profile = Profile.of([Preference.normalized([1, 0]), Preference.normalized([0, 1])])
        dictator = voter_one_favorite()
        flagged = dataclasses.replace(dictator, anonymous=True)
        assert symmetrize(dictator, 2, 2).evaluate(profile) == reference_symmetrize(
            dictator, profile
        )
        assert symmetrize(flagged, 2, 2).evaluate(profile) != reference_symmetrize(
            dictator, profile
        )


# ---------------------------------------------------------------------------
# Grid-native preferences

def assert_same_preference(got: Preference, expected: Preference) -> None:
    """Same values, order, equality and hash; the integer form, stored or
    derived, is the least-denominator form of the values."""
    assert got.values == expected.values
    assert got.order == expected.order
    assert got == expected and hash(got) == hash(expected)
    assert got.ints == expected.ints == scaled(expected.values)
    assert got.is_normalized() == expected.is_normalized()
    assert got.is_tie_free() == expected.is_tie_free()


def reference_two_block_preference(order, top_size: int, k: int) -> Preference:
    m = len(order)
    values = [Fraction(0)] * m
    for pos, cand in enumerate(order):
        if pos < top_size:
            values[cand - 1] = Fraction(k - pos, k)
        else:
            values[cand - 1] = Fraction(m - 1 - pos, k)
    return Preference.normalized(values)


def reference_rand_grid_profile(m: int, n: int, k: int, seed: int, tie_free: bool) -> Profile:
    rng = random.Random(seed)
    prefs = []
    for _ in range(n):
        if tie_free:
            steps = rng.sample(range(1, k), m - 2) + [0, k]
            rng.shuffle(steps)
        else:
            steps = [rng.randint(0, k) for _ in range(m)]
            lo, hi = rng.sample(range(m), 2)
            steps[lo], steps[hi] = 0, k
        prefs.append(Preference.normalized(Fraction(s, k) for s in steps))
    return Profile(tuple(prefs))


def reference_enumerate_Rk_prefs(m: int, k: int, tie_free: bool):
    for steps in itertools.product(range(k + 1), repeat=m):
        if 0 not in steps or k not in steps:
            continue
        if tie_free and len(set(steps)) != m:
            continue
        yield Preference(tuple(Fraction(s, k) for s in steps))


def reference_rounded(pref: Preference) -> tuple[int, ...]:
    return tuple(1 if v > Fraction(1, 2) else 0 for v in pref.values)


@st.composite
def two_block_shapes(draw):
    m = draw(st.integers(2, 9))
    order = draw(st.permutations(range(1, m + 1)))
    return order, draw(st.integers(0, m)), draw(st.integers(1, 4 * m))


class TestGridNativePreferences:
    @given(two_block_shapes())
    @settings(max_examples=300)
    def test_two_block_matches_fraction_body(self, shape):
        got = outcome_of(two_block_preference, *shape)
        expected = outcome_of(reference_two_block_preference, *shape)
        if isinstance(expected, tuple):  # the messages differ, the error classes may not
            assert got[0] is expected[0]
        else:
            assert_same_preference(got, expected)

    @given(st.integers(8, 12), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
           st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_gen_Dk_matches_fraction_two_blocks(self, m, a, b, c, seed):
        if a + c < 1:
            a = 1
        params = DkParams(m=m, k=4 * m, a=a, b=b, c=c)
        profile = gen_Dk(params, seed)
        for pref in profile.prefs:
            steps = grid_steps(pref, params.k)
            order = sorted(range(1, m + 1), key=lambda cand: -steps[cand - 1])
            top = sum(1 for s in steps if s > m)
            assert_same_preference(pref, reference_two_block_preference(order, top, params.k))

    @given(st.integers(2, 7), st.integers(1, 4), st.integers(1, 20), st.integers(0, 2**32),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_rand_grid_matches_fraction_body(self, m, n, k, seed, tie_free):
        if tie_free and k < m - 1:
            k = m - 1
        got = rand_grid_profile(m, n, k, seed, tie_free)
        expected = reference_rand_grid_profile(m, n, k, seed, tie_free)
        assert got == expected
        for mine, theirs in zip(got.prefs, expected.prefs, strict=True):
            assert_same_preference(mine, theirs)

    @pytest.mark.parametrize("m, k, tie_free", [
        (2, 1, False), (2, 4, False), (3, 3, False), (4, 2, False),
        (2, 1, True), (2, 4, True), (3, 3, True), (4, 3, True),
    ])
    def test_enumeration_matches_fraction_body(self, m, k, tie_free):
        got = list(enumerate_Rk_prefs(m, k, tie_free))
        expected = list(reference_enumerate_Rk_prefs(m, k, tie_free))
        assert len(got) == len(expected) == grid_pref_count(m, k, tie_free)
        for mine, theirs in zip(got, expected):
            assert_same_preference(mine, theirs)

    @given(st.lists(st.fractions(0, 1, max_denominator=20), min_size=2, max_size=8))
    @settings(max_examples=300)
    def test_rounded_matches_half_comparison(self, values):
        pref = Preference.relaxed(values)
        assert rounded(pref) == reference_rounded(pref)

    @given(st.integers(1, 40).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.integers(0, k), min_size=0, max_size=6))))
    @settings(max_examples=300)
    def test_rounded_step_built_matches_half_comparison(self, shape):
        k, inner = shape
        pref = Preference.from_steps([k] + inner + [0], k)
        assert rounded(pref) == reference_rounded(pref)
