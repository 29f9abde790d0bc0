"""Analytical machinery for the welfare-ratio bounds.

This module classifies grid preferences by their image structure, evaluates
the two benchmark functionals (expected welfare of the stacked-lottery
scheme divided by candidate 1's welfare, in raw and in 0/1-rounded form),
performs the two constructive reductions (interior-block sliding onto the
two-block class, then per-voter projection onto the three structured
classes), computes the closed-form lower bound, and runs the worst-case
experiments.

Everything is exact; every reduction step is logged so monotonicity can be
re-checked step by step.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import (
    ZERO,
    CandidateDistribution,
    Preference,
    Profile,
    dot,
    grid_steps,
    pairwise_beats,
    ratio as ratio_of,
    scaled,
    welfare_vector,
)
from .errors import (
    DegenerateProjectionError,
    GridError,
    PreconditionError,
    UndefinedRatioError,
)
from .generators import gen_Dk, gen_negative, DkParams, two_block_preference
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


def _switches(image: set[int], k: int) -> int:
    return sum(1 for j in range(k) if (j in image) != (j + 1 in image))


def switch_count(pref: Preference, k: int) -> int:
    """Number of in/out switches of the image indicator along the grid."""
    return _switches(set(grid_steps(pref, k)), k)


def rounded(pref: Preference) -> tuple[int, ...]:
    """0/1 rounding at threshold 1/2 (strictly above 1/2 rounds to 1), read
    from the integer form: num/den > 1/2 exactly when 2*num > den."""
    den, nums = pref.ints
    return tuple(1 if 2 * num > den else 0 for num in nums)


@dataclass(frozen=True)
class ClassifiedPref:
    """A grid preference together with its derived structure.

    ``switches`` counts image-membership switches along the grid; it is even
    and at least 2 for every normalized grid preference with k >= m.  A value
    of exactly 2 means the image is one bottom run starting at 0 plus one
    top run ending at 1 (the two-block class).  ``dk_class`` is "a", "b" or
    "c" when the preference falls into one of the structured worst-case
    classes, else None.
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
        switches=_switches(image, k),
        ubar=ub,
        count=sum(ub),
        ranks=tuple(ranks),
    )


# ---------------------------------------------------------------------------
# Benchmark functionals.  Candidate 1 plays the role of the welfare
# benchmark; on tie-free profiles whose score maximizer is candidate 1 the
# raw functional coincides with the welfare ratio of the stacked-lottery
# scheme.

# One stacked-lottery mechanism per candidate count, built on first use.  The
# module-global j_star is looked up on each miss, so a wrapper installed over
# it (the benchmark tracer's) still builds the cached mechanism.
@functools.lru_cache(maxsize=64)
def _jstar(m: int):
    return j_star(m)


def _jstar_dist(profile: Profile) -> CandidateDistribution:
    return _jstar(profile.m).evaluate(profile)


def _g(dist: CandidateDistribution, profile: Profile) -> Fraction:
    """Benchmark functional of the profile under the given distribution."""
    totals = welfare_vector(profile)
    if totals[0] <= ZERO:
        raise UndefinedRatioError("candidate 1 has zero welfare")
    return dot(dist.probs, totals) / totals[0]


def g_value(profile: Profile) -> Fraction:
    return _g(_jstar_dist(profile), profile)


def gbar_value(profile: Profile) -> Fraction:
    dist = _jstar_dist(profile)
    counts = [sum(column) for column in zip(*(rounded(p) for p in profile.prefs))]
    denom = counts[0]
    if denom <= 0:
        raise UndefinedRatioError("no voter rounds candidate 1 up to 1")
    return dot(dist.probs, counts) / denom


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
class ReductionTrace:
    result: Profile
    steps: tuple[SlideStep, ...]
    g_initial: Fraction
    g_final: Fraction

    @property
    def anomalies(self) -> tuple[int, ...]:
        """Indices of steps where the benchmark functional increased; the
        sliding argument predicts there are none."""
        return tuple(
            i for i, s in enumerate(self.steps) if s.g_after > s.g_before
        )


def reduce_to_Ck_trace(profile: Profile, k: int) -> ReductionTrace:
    """Slide one maximal interior image run of one voter by one grid step at a
    time, always in a direction that does not increase the benchmark
    functional (ties move left), until every voter's image is two runs.
    Voters are finished one at a time, in index order.

    Each voter's strict order is untouched by every slide, so the
    stacked-lottery distribution (integers w over den) is invariant across
    the whole reduction.  With column[c] the grid steps summed over voters,
    the functional is sum_c w[c] * column[c] / (den * column[0]), and a slide
    moves every affected column by one step, so it is tracked in integers:
    with d the affected weight and dd 1 when candidate 1 moves, sliding left
    gives (numer-d)/(den*(denom-dd)) and right (numer+d)/(den*(denom+dd)), so
    left is taken when (numer-d)*(denom+dd) <= (numer+d)*(denom-dd).  An
    interior run starts at step 2 or above, so denom-dd stays positive.
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
    g_initial = g_current = Fraction(numer, den * denom)

    steps: list[SlideStep] = []
    cap = 4 * profile.n * profile.m * k + 16
    for voter, voter_steps in enumerate(steps_by_voter, start=1):
        # A slide moves no other voter's image, so this voter stays the first
        # one with an interior run until it has none.
        while len(runs := _image_runs(set(voter_steps))) > 2:
            if len(steps) > cap:
                raise RuntimeError("interior-block sliding failed to terminate")
            lo, hi = runs[1]  # first interior run
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
    if _jstar_dist(result) != dist or _g(dist, result) != g_current:
        raise RuntimeError("sliding changed the stacked-lottery distribution or lost track of g")
    return ReductionTrace(result, tuple(steps), g_initial, g_current)


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
    if not 0 <= budget <= sys.maxsize:
        raise PreconditionError(f"budget must lie in 0..{sys.maxsize}, got {budget}")
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

@dataclass(frozen=True)
class NegativeRow:
    m: int
    scheme: str
    q: int
    ratio: Fraction


def all_q_ratios(profile: Profile) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """Exact welfare ratios of every top-q lottery (q = 1..m) and every
    in-range pairwise-quota scheme on one profile.

    Both families are one integer sweep over the ``core`` ballot tables, with
    the welfares scaled to integers W over their common denominator.  The
    top-q numerator grows by sum_c places[c][q-1] * W[c] from q-1 to q.  For an
    in-range quota at most one candidate of a pair reaches it, so a beats b
    exactly while q <= beats[a][b]; starting from every pair decided by a coin
    flip, such a pair adds W[a] - W[b] to the half-pair numerator at every
    quota up to beats[a][b], which one difference array over q accumulates.
    Each ratio is built as one ``Fraction`` at the end.
    """
    m, n = profile.m, profile.n
    _, weights = scaled(welfare_vector(profile))
    top = max(weights)
    if top <= 0:
        raise UndefinedRatioError("maximal welfare is zero")
    places, beats = profile.places, pairwise_beats(profile)

    j1 = {}
    acc = 0
    for q, column in enumerate(zip(*places), start=1):
        acc += sum(map(operator.mul, column, weights))
        j1[q] = Fraction(acc, n * q * top)

    quotas = j2q_quota_range(n)
    gain = [0] * (n + 2)
    for row, w_a in zip(beats, weights):
        for votes, w_b in zip(row, weights):
            if votes >= quotas.start:
                gain[votes] += w_a - w_b
    numer = (m - 1) * sum(weights)
    halves = m * (m - 1) * top
    swept = []
    for q in reversed(quotas):
        numer += gain[q]
        swept.append((q, Fraction(numer, halves)))
    return j1, dict(reversed(swept))


def upper_bound_experiment(ms: Sequence[int], repeat: int = 1) -> list[NegativeRow]:
    """Evaluate every top-q lottery and every in-range pairwise-quota scheme
    on the adversarial profile for each m."""
    rows: list[NegativeRow] = []
    for m in ms:
        profile = gen_negative(m, repeat)
        j1, j2 = all_q_ratios(profile)
        rows.extend(NegativeRow(m, "j1", q, r) for q, r in j1.items())
        rows.extend(NegativeRow(m, "j2", q, r) for q, r in j2.items())
    return rows


@dataclass(frozen=True)
class LowerRow:
    m: int
    n: int
    k: int
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
                rows.append(LowerRow(m, n, k, seed, a, b, c, gbar_value(profile), bound))
    return rows
