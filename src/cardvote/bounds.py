"""Analytical machinery for the welfare-ratio bounds.

This module classifies grid preferences by their image structure, evaluates
the two benchmark functionals (expected welfare of the stacked-lottery
scheme divided by candidate 1's welfare, in raw and in 0/1-rounded form),
performs the two constructive reductions (interior-block sliding onto the
two-block class, then per-voter projection onto the three structured
classes), computes the closed-form lower bound, and runs the worst-case
experiments.

Everything is exact; every slide of the first reduction is logged, as one
integer record per slid run.  Every slide of a run moves the functional with
the sign of the run's d_numer*denom - numer*d_denom, so monotonicity is
re-checked once per run.
"""

from __future__ import annotations

import itertools
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .core import (
    CandidateDistribution,
    Preference,
    Profile,
    cached_view,
    grid_steps,
    ratio as ratio_of,
)
from .errors import (
    BudgetError,
    DegenerateProjectionError,
    GridError,
    PreconditionError,
    UndefinedRatioError,
)
from .generators import gen_Dk, DkParams, negative_layout, two_block_preference
from .mechanisms import integer_cbrt, j2q_quota_range, j_star


def _image_runs(step_set: set[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive grid steps present in the image."""
    runs = []
    for step in sorted(step_set):
        if runs and step == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], step)
        else:
            runs.append((step, step))
    return runs


def rounded(pref: Preference) -> tuple[int, ...]:
    """0/1 rounding at threshold 1/2 (strictly above 1/2 rounds to 1), read
    from the integer form: num/den > 1/2 exactly when 2*num > den."""
    den = pref.den
    return tuple(1 if 2 * num > den else 0 for num in pref.nums)


@dataclass(frozen=True)
class ClassifiedPref:
    """A grid preference together with its derived structure.

    ``switches`` counts image-membership switches along the grid, 2*runs - 2
    as the image holds 0 and k; it is even and at least 2 for every
    normalized grid preference with k >= m.  A value of exactly 2 means the
    image is one bottom run starting at 0 plus one top run ending at 1 (the
    two-block class).  ``dk_class`` is "a", "b" or "c" when the preference
    falls into one of the structured worst-case classes, else None.
    """

    pref: Preference
    switches: int
    ubar: tuple[int, ...]
    count: int
    ranks: tuple[int, ...]

    @property
    def in_Ck(self) -> bool:
        return self.switches == 2

    @property
    def dk_class(self) -> str | None:
        if not self.in_Ck:
            return None
        width = integer_cbrt(self.pref.m)
        rank1 = self.ranks[0]
        if self.count <= 2 and self.ubar[0] == 1:
            return "a"
        if self.count == 1 and rank1 > width:
            return "b"
        if self.count == width + 1 and rank1 == width + 1:
            return "c"
        return None

    @property
    def in_Dk(self) -> bool:
        return self.dk_class is not None


def _checked_image(pref: Preference, steps: list[int], k: int) -> set[int]:
    """The set of grid steps a tie-free grid preference attains, given its
    ``grid_steps``; raises unless it attains both 0 and 1."""
    if k < pref.m:
        raise GridError(f"need k >= m, got k={k}, m={pref.m}")
    image = set(steps)
    if 0 not in image or k not in image:
        raise GridError("grid preference must attain both 0 and 1")
    if len(image) != pref.m:  # distinct steps are distinct values
        raise PreconditionError("classification needs a tie-free preference")
    return image


def classify(pref: Preference, k: int) -> ClassifiedPref:
    """Compute all derived structure for a tie-free grid preference."""
    image = _checked_image(pref, grid_steps(pref, k), k)
    ranks = [0] * pref.m
    for position, cand in enumerate(pref.order, start=1):
        ranks[cand - 1] = position
    ub = rounded(pref)
    return ClassifiedPref(
        pref=pref,
        switches=2 * len(_image_runs(image)) - 2,
        ubar=ub,
        count=sum(ub),
        ranks=tuple(ranks),
    )


# ---------------------------------------------------------------------------
# Benchmark functionals.  Candidate 1 plays the role of the welfare
# benchmark; on tie-free profiles whose score maximizer is candidate 1 the
# raw functional coincides with the welfare ratio of the stacked-lottery
# scheme.

def _jstar_dist(profile: Profile) -> CandidateDistribution:
    return j_star(profile.m).evaluate(profile)


def _g(dist: CandidateDistribution, profile: Profile) -> Fraction:
    """Benchmark functional of the profile under the given distribution."""
    totals = profile.totals[1]
    if totals[0] <= 0:
        raise UndefinedRatioError("candidate 1 has zero welfare")
    return Fraction(sum(map(operator.mul, dist.nums, totals)), dist.den * totals[0])


def gbar_value(profile: Profile) -> Fraction:
    dist = _jstar_dist(profile)
    counts = [sum(column) for column in zip(*(rounded(p) for p in profile.prefs))]
    if counts[0] <= 0:
        raise UndefinedRatioError("no voter rounds candidate 1 up to 1")
    return Fraction(sum(map(operator.mul, dist.nums, counts)), dist.den * counts[0])


# ---------------------------------------------------------------------------
# Reduction 1: slide interior image blocks until every voter is two-block.

@dataclass(frozen=True)
class SlideStep:
    voter: int
    run: tuple[int, int]
    direction: str
    g_before: Fraction
    g_after: Fraction


@dataclass(frozen=True)
class SlideRun:
    """One interior run of one voter, slid ``gap`` grid steps in one
    direction.  ``run`` is its ``(lo, hi)`` before the first slide, and each
    slide moves it one step left, or right for any other ``direction``.
    Before slide i (0 <= i <= gap) the benchmark functional is
    ``(numer + i*d_numer) / (den * (denom + i*d_denom))``: ``d_numer`` and
    ``d_denom`` are the signed changes of one slide."""

    voter: int
    run: tuple[int, int]
    direction: str
    gap: int
    den: int
    numer: int
    denom: int
    d_numer: int
    d_denom: int

    def slides(self) -> Iterator[tuple[int, int, int, int]]:
        """``(lo, hi, numer, denom)`` for each slide, in order: the run's
        position before it and the functional after it as ``numer / denom``,
        with ``den`` multiplied in once per run rather than once per slide."""
        (lo, hi), shift = self.run, -1 if self.direction == "left" else 1
        numer, d_numer = self.numer, self.d_numer
        denom, d_denom = self.den * self.denom, self.den * self.d_denom
        for _ in range(self.gap):
            numer += d_numer
            denom += d_denom
            yield lo, hi, numer, denom
            lo += shift
            hi += shift


@dataclass(frozen=True)
class ReductionTrace:
    """The outcome of :func:`reduce_to_Ck_trace`: the two-block profile, one
    :class:`SlideRun` per slid interior run, and the functional before and
    after.  :attr:`steps` expands the runs into one :class:`SlideStep` per
    slide, built on first read."""

    result: Profile
    runs: tuple[SlideRun, ...]
    g_initial: Fraction
    g_final: Fraction

    @cached_view
    def steps(self) -> tuple[SlideStep, ...]:
        """One step per slide, in order, each with its run position and the
        functional before and after; within a run each ``g_after`` is passed
        on as the next ``g_before``."""
        steps = []
        for r in self.runs:
            g = Fraction(r.numer, r.den * r.denom)
            for lo, hi, numer, denom in r.slides():
                g_next = Fraction(numer, denom)
                steps.append(SlideStep(r.voter, (lo, hi), r.direction, g, g_next))
                g = g_next
        return tuple(steps)

    @property
    def anomalies(self) -> tuple[int, ...]:
        """Indices of steps where the benchmark functional increased; the
        sliding argument predicts there are none.  With dn, dd a run's
        ``d_numer``, ``d_denom`` and ``den`` cancelled, its slide i rose when
        (numer + (i+1)*dn) * (denom + i*dd) > (numer + i*dn) * (denom + (i+1)*dd),
        and the sides differ by dn*denom - numer*dd for every i: so each run
        is tested once, and either all of its slides rose or none did."""
        starts = itertools.accumulate((r.gap for r in self.runs), initial=0)
        return tuple(i for r, start in zip(self.runs, starts)
                     if r.d_numer * r.denom > r.numer * r.d_denom
                     for i in range(start, start + r.gap))


def reduce_to_Ck_trace(profile: Profile, k: int) -> ReductionTrace:
    """Slide one maximal interior image run of one voter by one grid step at a
    time, always in a direction that does not increase the benchmark
    functional (ties move left), until every voter's image is two runs.
    Voters are finished one at a time, in index order, and each voter's first
    interior run is slid until it merges with a neighbouring run.

    Each voter's strict order is untouched by every slide, so the
    stacked-lottery distribution (integers w over den) is invariant across
    the whole reduction.  With column[c] the grid steps summed over voters,
    the functional is sum_c w[c] * column[c] / (den * column[0]), and a slide
    moves every affected column by one step, so it is tracked in integers:
    with d the affected weight and dd 1 when candidate 1 moves, sliding left
    gives (numer-d)/(den*(denom-dd)) and right (numer+d)/(den*(denom+dd)), so
    left is taken when (numer-d)*(denom+dd) <= (numer+d)*(denom-dd).  An
    interior run starts at step 2 or above, so denom-dd stays positive.

    That rule reduces to numer*dd <= d*denom, and a slide by delta adds
    delta*d*dd to both sides, so a run keeps its direction until it touches
    the neighbouring run on that side, ``gap`` steps later.  The direction is
    decided once per run, the run is logged as one :class:`SlideRun` holding
    the integers before its first slide and the signed change per slide, and
    ``numer`` and ``denom`` advance by ``gap`` slides in one update.  No
    per-step record or ``Fraction`` is built: the trace's ``steps`` derive
    them from the runs on demand, and ``g_final`` is one ``Fraction`` at the
    end, re-checked against the functional of the result.
    """
    steps_by_voter = [grid_steps(p, k) for p in profile.prefs]
    for pref, voter_steps in zip(profile.prefs, steps_by_voter):
        _checked_image(pref, voter_steps, k)
    column = [sum(steps) for steps in zip(*steps_by_voter)]
    if column[0] <= 0:
        raise UndefinedRatioError("candidate 1 has zero welfare")
    dist = _jstar_dist(profile)
    den, weights = dist.den, dist.nums
    numer = sum(map(operator.mul, weights, column))
    denom = column[0]
    g_initial = Fraction(numer, den * denom)

    runs: list[SlideRun] = []
    slides = 0
    cap = 4 * profile.n * profile.m * k + 16
    for voter, voter_steps in enumerate(steps_by_voter, start=1):
        # A slide moves no other voter's image, so this voter stays the first
        # one with an interior run until it has none.
        while len(image := _image_runs(set(voter_steps))) > 2:
            lo, hi = image[1]  # first interior run
            affected = [c for c, s in enumerate(voter_steps) if lo <= s <= hi]
            d_numer = sum(weights[c] for c in affected)
            d_denom = 1 if 0 in affected else 0
            if numer * d_denom <= d_numer * denom:
                delta, direction, gap = -1, "left", lo - image[0][1] - 1
            else:
                delta, direction, gap = +1, "right", image[2][0] - hi - 1
            if slides + gap - 1 > cap:
                raise RuntimeError("interior-block sliding failed to terminate")
            if denom - (gap if delta < 0 else 1) * d_denom <= 0:
                raise RuntimeError("sliding emptied candidate 1's welfare")
            d_numer *= delta
            d_denom *= delta
            runs.append(SlideRun(voter, (lo, hi), direction, gap, den, numer, denom,
                                 d_numer, d_denom))
            numer += gap * d_numer
            denom += gap * d_denom
            slides += gap
            for c in affected:
                voter_steps[c] += delta * gap
    result = Profile(
        tuple(Preference.from_steps(voter_steps, k) for voter_steps in steps_by_voter)
    )
    g_final = Fraction(numer, den * denom)
    if _jstar_dist(result) != dist or _g(dist, result) != g_final:
        raise RuntimeError("sliding changed the stacked-lottery distribution or lost track of g")
    return ReductionTrace(result, tuple(runs), g_initial, g_final)


def reduce_to_Ck(profile: Profile, k: int) -> Profile:
    return reduce_to_Ck_trace(profile, k).result


# ---------------------------------------------------------------------------
# Reduction 2: project each two-block voter onto a structured class.

@dataclass(frozen=True)
class ProjectionMove:
    voter: int
    kept: bool
    target_class: str | None
    before: Preference
    after: Preference


@dataclass(frozen=True)
class ProjectionTrace:
    result: Profile
    moves: tuple[ProjectionMove, ...]


def project_to_Dk_trace(profile: Profile, k: int) -> ProjectionTrace:
    """Replace every two-block voter outside the structured classes by a
    same-grid voter inside one of them.

    The replacement keeps the voter's favorite set and near-favorite set
    (so the stacked-lottery distribution on the profile is unchanged), never
    lowers the voter's rounded value of candidate 1, and never raises any
    other rounded value; consequently the rounded benchmark functional never
    increases when defined on both sides.
    """
    if k < 4 * profile.m:
        raise PreconditionError(f"need k >= 4m, got k={k}, m={profile.m}")
    width = integer_cbrt(profile.m)
    moves: list[ProjectionMove] = []
    out: list[Preference] = []
    for voter, pref in enumerate(profile.prefs, start=1):
        info = classify(pref, k)
        if not info.in_Ck:
            raise PreconditionError(
                f"voter {voter} is not two-block (switch count {info.switches})"
            )
        if info.in_Dk:
            out.append(pref)
            moves.append(ProjectionMove(voter, True, info.dk_class, pref, pref))
            continue
        desc = list(pref.order)
        rank1 = info.ranks[0]
        if rank1 == 1:
            order, top, target = desc, 1, "a"
        elif rank1 <= width:
            fav = desc[0]
            order = [fav, 1] + [c for c in desc if c not in (fav, 1)]
            top, target = 2, "a"
        elif info.ubar[0] == 1:
            order = desc[:width] + [1] + [c for c in desc[width:] if c != 1]
            top, target = width + 1, "c"
        else:
            order, top, target = desc, 1, "b"
        replacement = two_block_preference(order, top, k)
        if classify(replacement, k).dk_class != target:
            raise RuntimeError(
                f"projection of voter {voter} missed its target class {target!r}"
            )
        out.append(replacement)
        moves.append(ProjectionMove(voter, False, target, pref, replacement))
    if not any(rounded(p)[0] for p in out):
        raise DegenerateProjectionError(
            "projection left no voter rounding candidate 1 up to 1"
        )
    return ProjectionTrace(Profile(tuple(out)), tuple(moves))


def project_to_Dk(profile: Profile, k: int) -> Profile:
    return project_to_Dk_trace(profile, k).result


# ---------------------------------------------------------------------------
# Closed-form lower bound and worst-case searches.

def lower_bound_formula(a: int, b: int, c: int, n: int, m: int) -> Fraction:
    """Exact pre-asymptotic lower bound on the rounded benchmark functional
    for a profile with the given class counts.  Uses floor(m^(1/3))
    throughout; only the floored form is provable exactly at finite m."""
    if a + b + c != n:
        raise PreconditionError(f"a+b+c = {a + b + c} must equal n = {n}")
    if min(a, b, c) < 0:
        raise PreconditionError("class counts must be nonnegative")
    if a + c < 1:
        raise PreconditionError("need a + c >= 1")
    if m < 8:
        raise PreconditionError(f"need m >= 8, got {m}")
    width = integer_cbrt(m)
    return (
        Fraction(a, 2 * n * width)
        + Fraction(b * b, 2 * n * (m - 1) * (a + c))
        + Fraction(c * c * width, 2 * n * (m - 1) * (a + c))
    )


@dataclass(frozen=True)
class MinRatioResult:
    profile: Profile
    ratio: Fraction
    visited: int


def min_ratio_search(
    mech, family: Iterable[Profile], budget: int = 1_000_000
) -> MinRatioResult:
    """Smallest exact welfare ratio among the visited family members, with
    lexicographic tie-break on the profile's value table."""
    if not 1 <= budget <= sys.maxsize:
        raise PreconditionError(f"budget must lie in 1..{sys.maxsize}, got {budget}")
    best = None
    visited = 0
    for profile in itertools.islice(family, budget):
        visited += 1
        r = ratio_of(mech, profile)
        key = tuple(p.values for p in profile.prefs)
        if best is None or (r, key) < best[:2]:
            best = (r, key, profile)
    if best is None:
        raise PreconditionError("empty profile family")
    return MinRatioResult(best[2], best[0], visited)


# ---------------------------------------------------------------------------
# Experiments.

def all_q_ratios(profile: Profile) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """Exact welfare ratios of every top-q lottery (q = 1..m) and every
    in-range pairwise-quota scheme on any one profile: the general sweep,
    and the reference that :func:`negative_ratios` is tested against.

    Both families are one integer sweep over the tables of
    :attr:`Profile.ballot`, which count each distinct order once times its
    multiplicity, and the welfare numerators W of :attr:`Profile.totals`.  The
    top-q numerator grows by sum_c places[c][q-1] * W[c] from q-1 to q.  For an
    in-range quota at most one candidate of a pair reaches it, so a beats b
    exactly while q <= beats[a][b]; starting from every pair decided by a coin
    flip, such a pair adds W[a] - W[b] to the half-pair numerator at every
    quota up to beats[a][b], which one difference array over q accumulates.
    The orders are strict, so beats[a][b] + beats[b][a] == n and each
    unordered pair is read once, from its lower index's row.  Each ratio is
    built as one ``Fraction`` at the end.
    """
    m, n = profile.m, profile.n
    weights = profile.totals[1]
    top = max(weights)
    if top <= 0:
        raise UndefinedRatioError("maximal welfare is zero")
    places, beats = profile.ballot.places, profile.ballot.beats

    j1 = {}
    acc = 0
    for q, column in enumerate(zip(*places), start=1):
        acc += sum(map(operator.mul, column, weights))
        j1[q] = Fraction(acc, n * q * top)

    quotas = j2q_quota_range(n)
    lowest = quotas.start
    gain = [0] * (n + 2)
    for a, (row, w_a) in enumerate(zip(beats, weights), start=1):
        for votes, w_b in zip(row[a:], weights[a:]):
            if votes >= lowest:
                gain[votes] += w_a - w_b
            elif n - votes >= lowest:
                gain[n - votes] += w_b - w_a
    numer = (m - 1) * sum(weights)
    halves = m * (m - 1) * top
    swept = []
    for q in reversed(quotas):
        numer += gain[q]
        swept.append((q, Fraction(numer, halves)))
    return j1, dict(reversed(swept))


def negative_ratios(m: int, repeat: int = 1) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """``all_q_ratios(gen_negative(m, repeat))`` in O(m) integer steps plus
    one dict entry per quota, read from the block layout without building
    the profile.

    Welfare is in units of 1/m^4 and per copy of the base profile: ``repeat``
    scales every welfare, count and numerator alike, so only the quota range
    sees it.  Index voter i gives itself den = m^4, each c < i the step
    m-1-c, each c > i the step m-c and candidate m nothing; a block voter
    gives c <= lo the step c-1, its block den, den-1, ..., each c > lo+s the
    step c-s-1 and candidate m den-m^2.  Summed, a blocked candidate c gets
    (g-2)(c-1) + den from the block voters and an unblocked one g(c-1) - L,
    with L = min(k*g, m-1) the last blocked candidate.

    Index voter i ranks i, then 1..i-1, then i+1..m.  A block voter ranks its
    block, then m, then the rest by descending index, so with PW the prefix
    sums of the welfares W its top-q sum is PW[lo+q] - PW[lo] up to its block
    size s, then its block plus PW[m] - PW[m+s-q] while q <= m-lo, then
    PW[m] - PW[m-q].  The middle and last phases are summed over blocks by
    difference arrays over q, the middle one per block size (two at most).

    For a < b < m, beats[a][b] = m-2 + [a is blocked] and beats[a][m] = m-1 +
    [a is blocked], times ``repeat``; so the quota sweep has at most three
    nonzero gains, each a prefix-sum expression, placed as ``all_q_ratios``
    places them.  Between those quotas the ratio is unchanged, so each
    distinct value is built as one ``Fraction``.
    """
    _, den, blocks = negative_layout(m, repeat)
    g, last = len(blocks), blocks[-1][-1]
    w = [0] * (m + 1)  # w[c] is candidate c's welfare; w[0] starts the prefix sums
    for c in range(1, m):
        block_part = (g - 2) * (c - 1) + den if c <= last else g * (c - 1) - last
        w[c] = den + (m - 1 - c) ** 2 + (c - 1) * (m - c) + block_part
    w[m] = g * (den - m * m)
    pw = list(itertools.accumulate(w))
    top = max(w)

    head = [0] * (m + 2)
    block_sums = [0] * (m + 2)
    middle = {s: [0] * (m + 2) for s in set(map(len, blocks))}
    tail = [0] * (m + 2)
    for block in blocks:
        lo, s = block.start - 1, len(block)
        for q in range(1, s + 1):
            head[q] += pw[lo + q] - pw[lo]
        cut, block_sum = m - lo + 1, pw[lo + s] - pw[lo]  # cut: the last phase's first q
        block_sums[s + 1] += block_sum
        block_sums[cut] -= block_sum
        middle[s][s + 1] += 1
        middle[s][cut] -= 1
        tail[cut] += 1
    block_sums, tail = list(itertools.accumulate(block_sums)), list(itertools.accumulate(tail))
    middle = {s: list(itertools.accumulate(diff)) for s, diff in middle.items()}
    base = m - 1 + g
    j1 = {}
    for q in range(1, m + 1):
        acc = (pw[m - 1] + (m - q - 1) * pw[q - 1] + (q - 1) * pw[q]  # index voters
               + head[q] + block_sums[q] + tail[q] * (pw[m] - pw[m - q]))
        for s, count in middle.items():
            if count[q]:
                acc += count[q] * (pw[m] - pw[m + s - q])
        j1[q] = Fraction(acc, base * q * top)

    n = base * repeat
    quotas = j2q_quota_range(n)
    lowest = quotas.start
    # over_later[a-1] sums w[a] - w[b] over a < b < m; a blocked a beats each
    # such b, and m, by one vote more than an unblocked one.
    over_later = [(m - 1 - a) * w[a] - (pw[m - 1] - pw[a]) for a in range(1, m)]
    blocked_over_m = pw[last] - last * w[m]
    free_over_m = pw[m - 1] - pw[last] - (m - 1 - last) * w[m]
    gain: dict[int, int] = {}
    for votes, total in ((m - 2, sum(over_later[last:])),
                         (m - 1, sum(over_later[:last]) + free_over_m),
                         (m, blocked_over_m)):
        votes *= repeat
        if votes >= lowest:
            gain[votes] = gain.get(votes, 0) + total
        elif n - votes >= lowest:
            gain[n - votes] = gain.get(n - votes, 0) - total
    halves = m * (m - 1) * top
    numer = (m - 1) * pw[m] + sum(gain.values())
    j2: dict[int, Fraction] = {}
    for q in [*sorted(gain), quotas.stop - 1]:  # j2 holds lowest..lowest+len(j2)-1
        j2.update(dict.fromkeys(range(lowest + len(j2), q + 1), Fraction(numer, halves)))
        numer -= gain.get(q, 0)
    return j1, j2


# Work bound of ``upper_bound_experiment``: each m costs O(m) integer steps and
# one row per top-q scheme and per quota, at most (1 + repeat) * m rows.
NEGATIVE_BUDGET = 200_000


def upper_bound_experiment(
    ms: Sequence[int], repeat: int = 1
) -> list[tuple[int, dict[int, Fraction], dict[int, Fraction]]]:
    """``(m, j1, j2)`` for each m in ``ms``, repeats kept, with j1 and j2 the
    ratios of every top-q lottery and every in-range pairwise-quota scheme on
    the adversarial profile, by quota, from :func:`negative_ratios`: in
    closed form, without building a profile.  ``repeat * sum(|m|)`` must fit
    ``NEGATIVE_BUDGET``, checked before anything is computed."""
    work = repeat * sum(map(abs, ms))
    if work > NEGATIVE_BUDGET:
        raise BudgetError(work, NEGATIVE_BUDGET, "adversarial sweep")
    return [(m, *negative_ratios(m, repeat)) for m in ms]


@dataclass(frozen=True)
class LowerRow:
    seed: int
    a: int
    b: int
    c: int
    gbar: Fraction
    bound: Fraction

    @property
    def slack(self) -> Fraction:
        return self.gbar - self.bound


def lower_bound_experiment(
    m: int, n: int, k: int, step: int, seeds: Sequence[int]
) -> list[LowerRow]:
    """Sweep class counts (a, c) over multiples of ``step`` and compare the
    exact rounded benchmark value of seeded structured profiles against the
    closed-form bound."""
    if n < 1:
        raise PreconditionError(f"need at least one voter, got n={n}")
    if not 1 <= step <= n:  # a larger step leaves only a = c = 0, which is skipped
        raise PreconditionError(f"step must lie in 1..n={n}, got {step}")
    if not seeds:
        raise PreconditionError("need at least one seed")
    rows = []
    for a in range(0, n + 1, step):
        for c in range(0, n + 1 - a, step):
            if a + c < 1:
                continue
            b = n - a - c
            bound = lower_bound_formula(a, b, c, n, m)
            for seed in seeds:
                profile = gen_Dk(DkParams(m=m, k=k, a=a, b=b, c=c), seed)
                rows.append(LowerRow(seed, a, b, c, gbar_value(profile), bound))
    return rows
