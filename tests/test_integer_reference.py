"""Differential tests of the paths that write rationals as integers over one
denominator (``core.scaled``) against the exact references they replaced.

- ``scaled`` must round-trip every value, and its denominator must be the
  least common one (here, an lcm folded pairwise through ``gcd``).
- ``sample_stream`` draws ``getrandbits`` in bounded chunks, keeps the
  values below ``den`` and bisects the integer cumulative sums; one
  reference is its previous body, one ``randrange(den)`` per draw, and the
  other scans the same sums linearly.
- ``reduce_to_Ck_trace`` finishes voters one at a time and tracks the
  benchmark functional as integers; the reference is the previous body,
  which rescans every voter for the first interior run before each slide and
  tracks the functional in `Fraction`s.
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
- ``reduce_to_Ck_trace`` decides the direction once per interior run and
  slides the run until it merges with its neighbour; the reference is the
  step-at-a-time integer body, which recomputes the runs, the affected
  candidates and the direction before every slide.
- ``ReductionTrace`` holds one ``SlideRun`` per slid run, and its ``steps``
  and ``anomalies`` are derived from the runs.  Each comparison with a
  reference above goes through ``reported``: the result, every step, the
  functional before and after, and the anomalies must be equal.
- ``Preference`` stores only ``(den, nums)`` in lowest terms, and ``values``
  is its `Fraction` view.  ``gen_negative`` builds its voters from steps of
  1/m^4 and is compared with its previous `Fraction` body;
  ``welfare_vector`` sums integer columns over the lcm of the voters'
  denominators and is compared with its previous body, which scaled every
  utility of the profile.  Every constructor must give lowest terms, and
  ``==`` and ``hash`` must agree with equality of the values.
- Welfare has one integer form, ``Profile.totals``.  ``welfare``,
  ``rv_winner``, ``welfare_report``, ``ratio``, ``_g``, ``gbar_value`` and
  the truthfulness witness's utilities are compared with their previous
  bodies, which summed and multiplied `Fraction`s through a `Fraction` dot
  product (kept here as ``fraction_dot``), errors included.
"""

import bisect
import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cardvote.bounds import (
    ReductionTrace,
    _g,
    SlideStep,
    _checked_image,
    _image_runs,
    classify,
    gbar_value,
    reduce_to_Ck_trace,
    rounded,
)
from cardvote.core import (
    ONE,
    ZERO,
    CandidateDistribution,
    Preference,
    Profile,
    WelfareReport,
    grid_steps,
    ratio,
    rv_winner,
    scaled,
    welfare,
    welfare_report,
    welfare_vector,
)
from cardvote.errors import (
    BudgetError,
    CardvoteError,
    GridError,
    PreconditionError,
    UndefinedRatioError,
)
from cardvote.generators import (
    DkParams,
    _nearly_equal_blocks,
    gen_Dk,
    gen_negative,
    rand_grid_profile,
    two_block_preference,
)
from cardvote.mechanisms import (
    Mechanism,
    constant_winner,
    integer_cbrt,
    j1q,
    j2q,
    j_star,
    mix,
    range_voting,
    sample_stream,
    symmetrize,
)
from cardvote.properties import (
    DEFAULT_BUDGET,
    _first_truthfulness_witness,
    TruthfulnessWitness,
    _GridScan,
    _order_pattern,
    enumerate_Rk_prefs,
    grid_pref_count,
)


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
        assert grid_steps(Preference.relaxed((Fraction(3, 4), ZERO, Fraction(1))), 4) == [3, 0, 4]
        with pytest.raises(GridError, match=r"^value 1/3 is not a multiple of 1/2$"):
            grid_steps(Preference.relaxed((Fraction(1, 3), Fraction(1))), 2)

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


def randrange_sample_stream(dist: CandidateDistribution, count: int, seed: int) -> list[int]:
    """The previous body of ``sample_stream``: one ``randrange(den)`` per
    draw, bisected into the integer cumulative sums."""
    bounds = list(itertools.accumulate(dist.nums))
    rng = random.Random(seed)
    return [bisect.bisect_right(bounds, rng.randrange(dist.den)) + 1 for _ in range(count)]


def fixed(probs) -> tuple[Mechanism, CandidateDistribution]:
    dist = CandidateDistribution(*scaled([Fraction(p) for p in probs]))
    return Mechanism("fixed", lambda profile: dist), dist


ANY_PROFILE = Profile((Preference.relaxed((Fraction(1), ZERO)),))


@st.composite
def distributions(draw) -> list[Fraction]:
    weights = draw(st.lists(st.integers(0, 7), min_size=2, max_size=9).filter(any))
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


@st.composite
def integer_distributions(draw) -> CandidateDistribution:
    """Distributions with zero numerators among the others, over
    denominators from 1 to far above 2**64."""
    top = draw(st.sampled_from([1, 7, 2**20, 2**70, 2**200]))
    nums = draw(st.lists(st.integers(0, top) | st.just(0), min_size=1, max_size=9).filter(any))
    return CandidateDistribution.over(sum(nums), nums)


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

    @given(integer_distributions(), st.sampled_from([0, 1, 2, 4095, 4096, 4097, 9_000]),
           st.integers(0, 2**64))
    @example(CandidateDistribution.point(1, 1), 4097, 0)  # den 1: one-bit draws, zeros kept
    @example(CandidateDistribution(2**64 + 1, (2**64, 0, 1)), 4097, 3)  # den above 2**64
    @settings(max_examples=100, deadline=None)
    def test_batches_match_randrange_draws(self, dist, count, seed):
        mech = Mechanism("fixed", lambda profile: dist)
        draws = sample_stream(mech, ANY_PROFILE, count, seed)
        assert draws == randrange_sample_stream(dist, count, seed)
        assert all(dist.nums[j - 1] > 0 for j in draws)

    def test_jstar_stream_matches_reference(self):
        profile = rand_grid_profile(8, 5, 64, 3)
        mech = j_star(8)
        draws = sample_stream(mech, profile, 5_000, 2025)
        assert draws == reference_sample_stream(mech.evaluate(profile), 5_000, 2025)


# ---------------------------------------------------------------------------
# reduce_to_Ck_trace

def fraction_dot(weights, values) -> Fraction:
    """Exact sum of weight * value, skipping zero weights: the `Fraction` dot
    product the welfare paths used before they read ``Profile.totals``."""
    return sum((w * v for w, v in zip(weights, values) if w), ZERO)


@dataclasses.dataclass(frozen=True)
class StepTrace:
    """A reduction as the references log it, one ``SlideStep`` per slide,
    with the anomalies found by `Fraction` comparison."""

    result: Profile
    steps: tuple[SlideStep, ...]
    g_initial: Fraction
    g_final: Fraction

    @property
    def anomalies(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.steps) if s.g_after > s.g_before)


def reported(trace):
    """Everything a trace reports: the result, every step, the functional
    before and after, and the anomalies.  An error outcome passes through."""
    if isinstance(trace, tuple):
        return trace
    return trace.result, trace.steps, trace.g_initial, trace.g_final, trace.anomalies


def reference_reduce_to_Ck_trace(profile: Profile, k: int) -> StepTrace:
    steps_by_voter = [grid_steps(p, k) for p in profile.prefs]
    for pref in profile.prefs:
        classify(pref, k)
    totals = reference_welfare_vector(profile)
    if totals[0] <= ZERO:
        raise UndefinedRatioError("candidate 1 has zero welfare")
    dist = j_star(profile.m).evaluate(profile)
    one_step = Fraction(1, k)

    numer = fraction_dot(dist.probs, totals)
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
            Preference.relaxed(Fraction(s, k) for s in voter_steps)
            for voter_steps in steps_by_voter
        )
    )
    return StepTrace(result, tuple(steps), g_initial, g_current)


def fraction_reduce_to_Ck_trace(profile: Profile, k: int) -> StepTrace:
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
            Preference.relaxed(Fraction(s, k) for s in voter_steps)
            for voter_steps in steps_by_voter
        )
    )
    return StepTrace(result, tuple(steps), g_initial, g_current)


def step_reduce_to_Ck_trace(profile: Profile, k: int) -> StepTrace:
    """The integer body before whole runs were slid at once: before every
    slide it recomputes the voter's runs, the affected candidates and the
    direction by the full cross-product."""
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
            if denom - d_denom <= 0:
                raise RuntimeError("sliding emptied candidate 1's welfare")
            if (numer - d_numer) * (denom + d_denom) <= (numer + d_numer) * (denom - d_denom):
                delta, direction = -1, "left"
            else:
                delta, direction = +1, "right"
            for c in affected:
                voter_steps[c] += delta
            numer += delta * d_numer
            denom += delta * d_denom
            g_next = Fraction(numer, den * denom)
            steps.append(SlideStep(voter, (lo, hi), direction, g_current, g_next))
            g_current = g_next
    result = Profile(
        tuple(Preference.from_steps(voter_steps, k) for voter_steps in steps_by_voter)
    )
    return StepTrace(result, tuple(steps), g_initial, g_current)


def merges(trace: ReductionTrace | StepTrace) -> list[tuple[int, str, int]]:
    """(voter, direction, slides) of each run slid until it merged: a run of
    consecutive steps of one voter in one direction, each starting where the
    previous one ended."""
    out = []
    previous = None
    for s in trace.steps:
        shift = -1 if s.direction == "left" else 1
        if previous and (s.voter, s.direction) == previous[:2] and s.run == (
            previous[2][0] + shift, previous[2][1] + shift
        ):
            out[-1] = (s.voter, s.direction, out[-1][2] + 1)
        else:
            out.append((s.voter, s.direction, 1))
        previous = (s.voter, s.direction, s.run)
    return out


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
        assert reported(got) == reported(outcome(reference_reduce_to_Ck_trace, profile, k))

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
        assert reported(got) == reported(expected)
        for mine, theirs in zip(got.result.prefs, expected.result.prefs, strict=True):
            assert_same_preference(mine, theirs)

    def test_many_voters_slide_in_both_directions(self):
        # Seeds with several sliding voters and slides in both directions, so
        # the comparison above is not won on empty traces.
        directions = set()
        for seed in range(6):
            profile = rand_grid_profile(8, 6, 64, seed)
            trace = reduce_to_Ck_trace(profile, 64)
            assert reported(trace) == reported(reference_reduce_to_Ck_trace(profile, 64))
            assert len({s.voter for s in trace.steps}) > 1
            directions |= {s.direction for s in trace.steps}
        assert directions == {"left", "right"}


@st.composite
def wide_grid_shapes(draw) -> tuple[Profile, int]:
    """Grid profiles at several (m, n, k), from k = m (gaps of one step) to
    k = 16m (long slides)."""
    m = draw(st.integers(3, 9))
    n = draw(st.integers(1, 8))
    k = draw(st.sampled_from([m, m + 1, 2 * m, 4 * m, 16 * m]))
    return rand_grid_profile(m, n, k, draw(st.integers(0, 2**32))), k


class TestRunAtOnce:
    """``reduce_to_Ck_trace`` slides each interior run to its neighbour in
    one pass; the reference decides every single slide afresh."""

    @given(wide_grid_shapes())
    @settings(max_examples=200, deadline=None)
    def test_matches_step_at_a_time(self, shape):
        profile, k = shape
        got = outcome(reduce_to_Ck_trace, profile, k)
        expected = outcome(step_reduce_to_Ck_trace, profile, k)
        if isinstance(expected, tuple):
            assert got == expected
            return
        assert got.steps == expected.steps
        assert [(s.g_before, s.g_after) for s in got.steps] == [
            (s.g_before, s.g_after) for s in expected.steps
        ]
        assert (got.g_initial, got.g_final) == (expected.g_initial, expected.g_final)
        assert got.anomalies == expected.anomalies == ()
        assert reported(got) == reported(expected)
        assert len(got.runs) == len(merges(expected))

    def test_runs_merge_left_and_right(self):
        # Fixed profiles where one voter's runs merge in both directions and
        # over several slides, so the comparison above is not won on traces
        # of one-step gaps or of one direction only.
        seen = set()
        for seed in range(12):
            profile = rand_grid_profile(8, 6, 64, seed)
            trace = reduce_to_Ck_trace(profile, 64)
            assert reported(trace) == reported(step_reduce_to_Ck_trace(profile, 64))
            runs = merges(trace)
            for voter in {v for v, _, _ in runs}:
                mine = [(d, count) for v, d, count in runs if v == voter]
                if {d for d, _ in mine} == {"left", "right"} and max(c for _, c in mine) > 1:
                    seen.add(voter)
        assert len(seen) > 1

    def test_hand_built_merges(self):
        # Image {0, 3, 5, 6, 10} on the 1/10 grid: the run {3} slides left
        # twice onto {0}, then the run {5, 6}, which holds candidate 1, slides
        # right three times onto {10}.
        profile = Profile((Preference.from_steps([5, 0, 3, 6, 10], 10),))
        trace = reduce_to_Ck_trace(profile, 10)
        assert reported(trace) == reported(step_reduce_to_Ck_trace(profile, 10))
        assert merges(trace) == [(1, "left", 2), (1, "right", 3)]
        assert [(r.voter, r.run, r.direction, r.gap) for r in trace.runs] == [
            (1, (3, 3), "left", 2), (1, (5, 6), "right", 3)
        ]
        assert [s.run for s in trace.steps] == [(3, 3), (2, 2), (5, 6), (6, 7), (7, 8)]
        assert grid_steps(trace.result.prefs[0], 10) == [8, 0, 1, 9, 10]


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
                Preference.relaxed(profile.prefs[sigma[i]].values[tau[j] - 1] for j in range(m))
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
        profile = Profile((Preference.normalized([1, 0]), Preference.normalized([0, 1])))
        dictator = voter_one_favorite()
        flagged = dataclasses.replace(dictator, anonymous=True)
        assert symmetrize(dictator, 2, 2).evaluate(profile) == reference_symmetrize(
            dictator, profile
        )
        assert symmetrize(flagged, 2, 2).evaluate(profile) != reference_symmetrize(
            dictator, profile
        )

    def test_budget_counts_voter_relabelings_only_when_enumerated(self):
        # At (3, 11) an anonymous scheme averages 3! = 6 relabelings; a
        # dictatorship would need all 3! * 11! = 239,500,800.  On a tie-free
        # profile every relabeling of j1:1 elects the same favorites.
        profile = rand_grid_profile(3, 11, 4, 1)
        assert symmetrize(j1q(1), 3, 11).evaluate(profile) == j1q(1).evaluate(profile)
        with pytest.raises(BudgetError, match="needs 239500800 steps"):
            symmetrize(voter_one_favorite(), 3, 11)


# ---------------------------------------------------------------------------
# Grid-native preferences

def assert_same_preference(got: Preference, expected: Preference) -> None:
    """Same values, order, equality and hash; the integer form, stored or
    derived, is the least-denominator form of the values."""
    assert got.values == expected.values
    assert got.order == expected.order
    assert got == expected and hash(got) == hash(expected)
    assert (got.den, got.nums) == (expected.den, expected.nums) == scaled(expected.values)
    assert got.is_normalized() == expected.is_normalized()


def reference_two_block_preference(order, top_size: int, k: int) -> Preference:
    m = len(order)
    if k < m:  # the two blocks would touch or overlap
        raise PreconditionError(f"two blocks need k >= m, got k={k}, m={m}")
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
        yield Preference.relaxed(Fraction(s, k) for s in steps)


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


# ---------------------------------------------------------------------------
# One integer form per preference

def reference_gen_negative(m: int, repeat: int = 1) -> Profile:
    k, g = integer_cbrt(m), integer_cbrt(m * m)
    den = m ** 4
    blocks = _nearly_equal_blocks(min(k * g, m - 1), g)
    zero, one = Fraction(0), Fraction(1)
    ladder = [Fraction(step, den) for step in range(m)]
    near_top = [Fraction(den - s, den) for s in range(k)]
    prefs = []
    for i in range(1, m):
        values = [zero] * m
        values[i - 1] = one
        step = m - 2
        for j in range(1, m + 1):
            if j in (i, m):
                continue
            values[j - 1] = ladder[step]
            step -= 1
        prefs.append(Preference.normalized(values))
    pivot = Fraction(m * m - 1, m * m)
    for block in blocks:
        values = [zero] * m
        for s, j in enumerate(block):
            values[j - 1] = near_top[s]
        values[m - 1] = pivot
        step = 0
        for j in range(1, m):
            if j in block:
                continue
            values[j - 1] = ladder[step]
            step += 1
        prefs.append(Preference.normalized(values))
    return Profile(tuple(prefs * repeat))


def reference_welfare_vector(profile: Profile) -> tuple[Fraction, ...]:
    den, nums = scaled([v for p in profile.prefs for v in p.values])
    return tuple(Fraction(sum(nums[c::profile.m]), den) for c in range(profile.m))


def assert_lowest_terms(pref: Preference) -> None:
    assert type(pref.den) is int and pref.den >= 1
    assert all(type(num) is int for num in pref.nums)
    assert math.gcd(pref.den, *pref.nums) == 1


@st.composite
def mixed_denominator_profiles(draw) -> Profile:
    m, n = draw(st.integers(2, 6)), draw(st.integers(1, 5))
    rows = []
    for _ in range(n):
        build = draw(st.sampled_from(["relaxed", "normalized", "steps"]))
        if build == "steps":
            k = draw(st.integers(1, 12))
            inner = draw(st.lists(st.integers(0, k), min_size=m - 2, max_size=m - 2))
            rows.append(Preference.from_steps([0, k] + inner, k))
        else:
            values = draw(st.lists(st.fractions(0, 1, max_denominator=30),
                                   min_size=m, max_size=m))
            if build == "normalized":
                values[:2] = [ZERO, ONE]
            rows.append(getattr(Preference, build)(values))
    return Profile(tuple(rows))


@st.composite
def any_preferences(draw) -> Preference:
    """A preference from each constructor, over few values so that equal
    preferences from different constructors are drawn often."""
    m = draw(st.integers(2, 4))
    build = draw(st.sampled_from(["relaxed", "normalized", "normalize", "steps"]))
    if build == "steps":
        k = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
        inner = draw(st.lists(st.integers(0, k), min_size=m - 2, max_size=m - 2))
        order = draw(st.permutations(range(m)))
        steps = [0, k] + inner
        return Preference.from_steps([steps[i] for i in order], k)
    grid = st.sampled_from([Fraction(s, 12) for s in range(13)])
    values = draw(st.lists(grid, min_size=m, max_size=m))
    if build != "relaxed":
        values[:2] = [ZERO, ONE]
        values = [values[i] for i in draw(st.permutations(range(m)))]
    if build == "normalize":  # an affine image of a normalized vector, mapped back
        shift, scale = draw(st.fractions(-3, 3, max_denominator=5)), draw(st.integers(1, 7))
        image = [shift + scale * v for v in values]
        lo, hi = min(image), max(image)
        return Preference.normalized((v - lo) / (hi - lo) for v in image)
    return getattr(Preference, build)(values)


class TestOneIntegerForm:
    @pytest.mark.parametrize("repeat", [1, 2, 3])
    def test_gen_negative_matches_fraction_body(self, repeat):
        for m in range(8, 131):
            got = gen_negative(m, repeat)
            expected = reference_gen_negative(m, repeat)
            assert got == expected
            for mine, theirs in zip(got.prefs, expected.prefs, strict=True):
                assert (mine.den, mine.nums) == (theirs.den, theirs.nums)
                assert mine.values == theirs.values and mine.order == theirs.order
                assert_lowest_terms(mine)

    def test_gen_negative_voters_share_their_step_ints(self):
        # One int object per distinct step keeps the big profiles small.
        for m in (64, 343, 512):
            profile = gen_negative(m)
            nums = [num for p in profile.prefs for num in p.nums]
            assert len({id(num) for num in nums}) == len(set(nums))

    @given(mixed_denominator_profiles())
    @settings(max_examples=300)
    def test_welfare_vector_matches_scaled_values(self, profile):
        assert welfare_vector(profile) == reference_welfare_vector(profile)

    @given(any_preferences())
    @settings(max_examples=300)
    def test_every_constructor_gives_lowest_terms(self, pref):
        assert_lowest_terms(pref)
        assert pref.values == tuple(Fraction(num, pref.den) for num in pref.nums)
        assert Preference.relaxed(pref.values) == pref

    @given(any_preferences(), any_preferences())
    @settings(max_examples=500)
    def test_equality_and_hash_are_value_equality(self, a, b):
        assert (a == b) == (a.values == b.values)
        if a == b:
            assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# One integer welfare form

def reference_welfare(profile: Profile, j: int) -> Fraction:
    if not 1 <= j <= profile.m:
        raise IndexError(f"candidate {j} out of range 1..{profile.m}")
    return sum((p.values[j - 1] for p in profile.prefs), ZERO)


def reference_rv_winner(profile: Profile) -> int:
    totals = reference_welfare_vector(profile)
    best = max(totals)
    return totals.index(best) + 1


def reference_welfare_report(profile: Profile, dist: CandidateDistribution) -> WelfareReport:
    totals = reference_welfare_vector(profile)
    best = max(totals)
    winner = totals.index(best) + 1
    if best <= ZERO:
        raise UndefinedRatioError(
            "welfare ratio undefined: maximal welfare is zero"
        )
    expected = fraction_dot(dist.probs, totals)
    return WelfareReport(totals, winner, expected, expected / best)


def reference_g(dist: CandidateDistribution, profile: Profile) -> Fraction:
    totals = reference_welfare_vector(profile)
    if totals[0] <= ZERO:
        raise UndefinedRatioError("candidate 1 has zero welfare")
    return fraction_dot(dist.probs, totals) / totals[0]


def reference_gbar_value(profile: Profile) -> Fraction:
    dist = j_star(profile.m).evaluate(profile)
    counts = [sum(column) for column in zip(*(reference_rounded(p) for p in profile.prefs))]
    denom = counts[0]
    if denom <= 0:
        raise UndefinedRatioError("no voter rounds candidate 1 up to 1")
    return fraction_dot(dist.probs, counts) / denom


def reference_first_truthfulness_witness(scan: _GridScan, key: tuple[int, ...], voter: int):
    honest_idx = key[voter]
    values = scan.prefs[honest_idx].values

    def utility(profile_key: tuple[int, ...]) -> Fraction:
        return fraction_dot(scan.dist(profile_key).probs, values)

    honest = utility(key)
    for mis_idx in range(len(scan.prefs)):
        if mis_idx == honest_idx:
            continue
        gained = utility(key[:voter] + (mis_idx,) + key[voter + 1:])
        if gained > honest:
            return TruthfulnessWitness(
                scan.profile(key), voter + 1, scan.prefs[mis_idx], honest, gained
            )
    return None


def witness_or_none(scan: _GridScan, key: tuple[int, ...], voter: int):
    """The replayed witness, or None where no misreport gains (the scan
    never asks for one there; the replay raises)."""
    try:
        return _first_truthfulness_witness(scan, key, voter)
    except RuntimeError:
        return None


def mechanisms_for(m: int, n: int) -> st.SearchStrategy[Mechanism]:
    base = st.one_of(
        st.just(range_voting()),
        st.integers(1, m).map(j1q),
        st.integers(1, n + 1).map(j2q),
        st.just(j_star(m)),
    )
    mixed = st.tuples(st.integers(0, 6), base, base).map(
        lambda t: mix([(Fraction(t[0], 6), t[1]), (Fraction(6 - t[0], 6), t[2])])
    )
    return st.one_of(base, mixed)


@st.composite
def welfare_cases(draw) -> tuple[Profile, CandidateDistribution]:
    """A mixed-denominator profile and a distribution over its candidates:
    one evaluated by rv, j1q, j2q, jstar or a mix of two of them, or a random
    one."""
    profile = draw(mixed_denominator_profiles())
    m, n = profile.m, profile.n
    if draw(st.booleans()):
        return profile, draw(mechanisms_for(m, n)).evaluate(profile)
    nums = draw(st.lists(st.integers(0, 9), min_size=m, max_size=m).filter(any))
    return profile, CandidateDistribution.over(sum(nums), nums)


def zero_welfare_profiles() -> list[Profile]:
    zero = Preference.relaxed([0, 0, 0])
    return [
        Profile((zero,)),
        Profile((zero, zero, zero)),
        Profile((zero, Preference.relaxed([0, Fraction(1, 3), 1]))),  # only candidate 1 is 0
        Profile((Preference.from_steps([0, 4, 1], 4), Preference.normalized([0, 1, 0]))),
    ]


class TestOneWelfareForm:
    @given(mixed_denominator_profiles())
    @settings(max_examples=300)
    def test_totals_and_views_match_fraction_sums(self, profile):
        den, nums = profile.totals
        assert den == reference_lcm(p.den for p in profile.prefs)
        assert all(type(num) is int for num in nums) and len(nums) == profile.m
        assert tuple(Fraction(num, den) for num in nums) == reference_welfare_vector(profile)
        for j in range(1, profile.m + 1):
            assert welfare(profile, j) == reference_welfare(profile, j)
        assert rv_winner(profile) == reference_rv_winner(profile)

    def test_welfare_rejects_candidates_out_of_range(self):
        profile = Profile((Preference.relaxed([0, 1]),))
        for j in (0, 3):
            with pytest.raises(IndexError, match=f"candidate {j} out of range 1..2"):
                welfare(profile, j)

    @given(welfare_cases())
    @settings(max_examples=400)
    def test_report_and_ratio_match_fraction_bodies(self, case):
        profile, dist = case
        got = outcome_of(welfare_report, profile, dist)
        expected = outcome_of(reference_welfare_report, profile, dist)
        assert got == expected
        if isinstance(got, WelfareReport):  # the rendered report text too
            assert [str(w) for w in got.welfares] == [str(w) for w in expected.welfares]
            assert (str(got.expected), str(got.ratio)) == (str(expected.expected),
                                                          str(expected.ratio))
        fixed_mech = Mechanism("fixed", lambda p: dist)
        assert outcome_of(ratio, fixed_mech, profile) == (
            expected.ratio if isinstance(expected, WelfareReport) else expected
        )

    @given(welfare_cases())
    @settings(max_examples=300)
    def test_functionals_match_fraction_bodies(self, case):
        profile, dist = case
        assert outcome_of(_g, dist, profile) == outcome_of(reference_g, dist, profile)
        assert outcome_of(gbar_value, profile) == outcome_of(reference_gbar_value, profile)

    @pytest.mark.parametrize("m,k", [(8, 64), (27, 108)])
    def test_functionals_on_structured_profiles(self, m, k):
        profiles = [rand_grid_profile(m, 5, k, seed) for seed in range(3)]
        profiles += [gen_Dk(DkParams(m=m, k=k, a=a, b=5 - a - c, c=c), seed)
                     for a, c in ((1, 1), (2, 0), (0, 3)) for seed in range(2)]
        for profile in profiles:
            dist = j_star(m).evaluate(profile)
            assert outcome_of(_g, dist, profile) == outcome_of(reference_g, dist, profile)
            assert outcome_of(gbar_value, profile) == outcome_of(reference_gbar_value, profile)

    @pytest.mark.parametrize("profile", zero_welfare_profiles(),
                             ids=["one-zero-voter", "all-zero", "candidate-1-zero", "grid-1-zero"])
    def test_zero_welfare_raises_the_same_error(self, profile):
        dist = CandidateDistribution.point(1, profile.m)
        for fn, reference, args in ((welfare_report, reference_welfare_report, (profile, dist)),
                                    (_g, reference_g, (dist, profile)),
                                    (gbar_value, reference_gbar_value, (profile,))):
            assert outcome_of(fn, *args) == outcome_of(reference, *args)
        assert outcome_of(_g, dist, profile)[0] is UndefinedRatioError
        if max(reference_welfare_vector(profile)) == 0:
            with pytest.raises(UndefinedRatioError, match="maximal welfare is zero"):
                ratio(lambda p: dist, profile)

    def test_totals_are_built_once_per_profile(self):
        u = Profile((Preference.relaxed([1, Fraction(1, 2), 0]),
                     Preference.from_steps([0, 3, 1], 3)))
        v = Profile(u.prefs)
        assert u.totals is u.totals
        assert v.totals == u.totals == (6, (6, 9, 2)) and v.totals is not u.totals
        assert u == v

    @given(st.sampled_from([(2, 2, 2), (3, 2, 2), (3, 2, 3), (3, 3, 2)]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_witness_utilities_match_fraction_replay(self, shape, data):
        m, n, k = shape
        mech = data.draw(mechanisms_for(m, n))
        scan = _GridScan(mech, m, n, k, False, DEFAULT_BUDGET, "truthfulness scan",
                         lambda p: n * p)
        key = tuple(data.draw(st.lists(st.integers(0, scan.space.preference_count - 1),
                                       min_size=n, max_size=n)))
        voter = data.draw(st.integers(0, n - 1))
        assert witness_or_none(scan, key, voter) == reference_first_truthfulness_witness(
            scan, key, voter)

    def test_witness_found_for_range_voting(self):
        # rv is manipulable at (3, 2, 2), so the replays above meet real
        # witnesses, not only profiles where no misreport gains.
        scan = _GridScan(range_voting(), 3, 2, 2, False, DEFAULT_BUDGET, "truthfulness scan",
                         lambda p: 2 * p)
        found = 0
        for key in itertools.islice(scan.keys(), 200):
            for voter in range(2):
                expected = reference_first_truthfulness_witness(scan, key, voter)
                assert witness_or_none(scan, key, voter) == expected
                found += expected is not None
        assert found > 0
