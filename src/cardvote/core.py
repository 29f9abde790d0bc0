"""Exact-arithmetic domain types for cardinal voting.

A voter scores every candidate with a rational utility in [0, 1]; a profile
collects one preference per voter.  Everything downstream (welfares, winning
probabilities, welfare ratios) is computed with `fractions.Fraction` or
integers, so comparisons and tie detection are exact; a
:class:`CandidateDistribution` keeps its probabilities as non-negative
integers over one denominator, a form only this module knows.  Floats are
rejected at the boundary: pass ints, Fractions, or strings such as "3/4" or
"0.25".

Candidates and voters are 1-indexed in the public API.

A preference's integer form is :attr:`Preference.ints`, ``(den, nums)``
with ``values[i] == nums[i] / den`` over the least common denominator.  A
grid voter built by :meth:`Preference.from_steps` is validated in integers
and keeps that form from construction; any other preference derives it from
its values when asked.  The order, the tie check, :func:`grid_steps` and
the bounds module's rounding read it.

Each voter's strict order (value descending, ties to the lower index) is
computed once and cached as :attr:`Preference.order`; every ordinal reader
uses it, and the two integer ballot tables are built from it: the place
table, cached per profile as :attr:`Profile.places`, and
:func:`pairwise_beats`.  Every integer path writes its rationals over one
denominator through :func:`scaled`.

All types are logically immutable after construction (the cached order and
place table only restate the values) and all operations are pure, so
concurrent evaluation needs no synchronization.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DataError, GridError, NormalizationError, PreconditionError, UndefinedRatioError

ZERO = Fraction(0)
ONE = Fraction(1)

# step/k as a Fraction.  Grid voters share few distinct values, so
# Preference.from_steps reuses recent ones instead of normalizing each again;
# the cache is bounded, so a huge k holds only the steps actually used.
_grid_value = functools.lru_cache(maxsize=1024)(Fraction)


def exact(value) -> Fraction:
    """Coerce to Fraction, rejecting floats (they are rarely the rational the
    caller had in mind)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}; pass a Fraction, int, or decimal string"
        )
    return Fraction(value)


def parse_rational(text: str) -> Fraction:
    """Exact rational from text such as "3/4", "0.25" or "1.5e-3".

    Raises what ``Fraction`` raises for bad text, and ValueError when the
    digits plus the exponent exceed int()'s text-conversion limit: such a
    value could not be printed back in a report, and a large exponent alone
    takes minutes and gigabytes to expand.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected text, got {text!r}")
    mantissa, _, exponent = text.lower().partition("e")
    size = sum(ch.isdigit() for ch in mantissa)
    try:
        size += abs(int(exponent)) if exponent else 0
    except ValueError:
        pass  # not a valid exponent: Fraction rejects the text below
    limit = sys.get_int_max_str_digits()
    if limit and size > limit:
        raise ValueError(f"rational with {size} digits exceeds the limit of {limit}")
    return Fraction(text)


def scaled(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(den, nums) with ``values[i] == Fraction(nums[i], den)`` and den the
    least common denominator: the one place rationals become integers.  The
    lcm runs over the set of distinct denominators, few even when values are
    many."""
    den = math.lcm(*{v.denominator for v in values})
    return den, tuple(v.numerator * (den // v.denominator) for v in values)


def grid_steps(pref: Preference, k: int) -> list[int]:
    """Each utility as a count of 1/k grid steps; GridError when one is not a
    multiple of 1/k.  Every utility is one exactly when the least common
    denominator divides k."""
    den, nums = pref.ints
    if k % den:
        bad = next(i for i, num in enumerate(nums) if num * k % den)
        raise GridError(f"value {pref.values[bad]} is not a multiple of 1/{k}")
    factor = k // den
    return [num * factor for num in nums]


@dataclass(frozen=True)
class Preference:
    """One voter's utility vector over m candidates.

    Use :meth:`normalized` for the standard setting (minimum utility exactly
    0, maximum exactly 1), :meth:`relaxed` when only the [0, 1] bounds are
    required, and :meth:`from_steps` for a normalized voter on the 1/k grid.
    All three constructors validate; instances compare by value, whichever
    built them.

    :attr:`ints` is the integer form ``(den, nums)``.  Only a step-built
    preference stores it (in ``_ints``); for any other it is derived from
    the values on each read, so a voter built from `Fraction`s holds no
    second copy of them.
    """

    values: tuple[Fraction, ...]
    _ints: tuple[int, tuple[int, ...]] | None = field(default=None, compare=False, repr=False)

    @classmethod
    def normalized(cls, values: Iterable) -> "Preference":
        pref = cls.relaxed(values)
        if not pref.is_normalized():
            raise NormalizationError(
                f"normalized preference needs min 0 and max 1, got {pref.values}"
            )
        return pref

    @classmethod
    def relaxed(cls, values: Iterable) -> "Preference":
        vals = tuple(exact(v) for v in values)
        if len(vals) < 2:
            raise PreconditionError("need at least 2 candidates")
        for v in vals:
            # Exact: a Fraction's denominator is positive.
            if not 0 <= v.numerator <= v.denominator:
                raise PreconditionError(f"utility {v} outside [0, 1]")
        return cls(vals)

    @classmethod
    def from_steps(cls, steps: Iterable[int], k: int) -> "Preference":
        """The normalized grid preference with utility steps[i]/k for
        candidate i+1, validated in integers: every step an int in 0..k,
        minimum 0, maximum k.  Each value comes from the bounded cache of
        recent grid values, never from a table of all k+1 of them."""
        if type(k) is not int or k < 1:
            raise PreconditionError(f"grid resolution k must be an int >= 1, got {k!r}")
        steps = tuple(steps)
        if len(steps) < 2:
            raise PreconditionError("need at least 2 candidates")
        if set(map(type, steps)) != {int}:  # no bools, floats or int subclasses
            raise PreconditionError(f"grid steps must be ints, got {steps}")
        lo, hi = min(steps), max(steps)
        if lo < 0 or hi > k:
            raise PreconditionError(f"grid steps {steps} outside 0..{k}")
        if lo != 0 or hi != k:
            raise NormalizationError(
                f"normalized grid preference needs min step 0 and max step {k}, got {steps}"
            )
        g = math.gcd(*steps)  # divides k, the maximum
        nums = steps if g == 1 else tuple(s // g for s in steps)
        return cls(tuple(map(_grid_value, steps, itertools.repeat(k))), (k // g, nums))

    @property
    def m(self) -> int:
        return len(self.values)

    @property
    def ints(self) -> tuple[int, tuple[int, ...]]:
        """(den, nums) with ``values[i] == Fraction(nums[i], den)`` and den the
        least common denominator."""
        return self._ints or scaled(self.values)

    @cached_property
    def order(self) -> tuple[int, ...]:
        """All candidates, value descending; the stable reverse sort keeps value
        ties in ascending index order.  The sort keys are the numerators of
        :attr:`ints`."""
        _, keys = self.ints
        return tuple(
            j + 1 for j in sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
        )

    def is_normalized(self) -> bool:
        # A value's sign is its numerator's, and value - 1 has the sign of
        # numerator - denominator, so this is min == 0 and max == 1 exactly.
        values = self.values
        return (
            min(v.numerator for v in values) == 0
            and max(v.numerator - v.denominator for v in values) == 0
        )

    def is_tie_free(self) -> bool:
        return len(set(self.ints[1])) == self.m


@dataclass(frozen=True)
class Profile:
    """An ordered tuple of preferences sharing the same candidate count."""

    prefs: tuple[Preference, ...]

    def __post_init__(self):
        if not self.prefs:
            raise PreconditionError("profile needs at least one voter")
        m = self.prefs[0].m
        for p in self.prefs:
            if p.m != m:
                raise PreconditionError("all voters must rate the same candidates")

    @classmethod
    def of(cls, prefs: Iterable[Preference]) -> "Profile":
        return cls(tuple(prefs))

    @property
    def n(self) -> int:
        return len(self.prefs)

    @property
    def m(self) -> int:
        return self.prefs[0].m

    def replace(self, i: int, pref: Preference) -> "Profile":
        """New profile with voter i's preference swapped out."""
        if not 1 <= i <= self.n:
            raise IndexError(f"voter {i} out of range 1..{self.n}")
        prefs = list(self.prefs)
        prefs[i - 1] = pref
        return Profile(tuple(prefs))

    def is_tie_free(self) -> bool:
        return all(p.is_tie_free() for p in self.prefs)

    def is_normalized(self) -> bool:
        return all(p.is_normalized() for p in self.prefs)

    @cached_property
    def places(self) -> list[list[int]]:
        """places[c][p]: number of voters whose order puts candidate c+1 at
        place p+1.  Built once per profile, so every evaluator reading one
        profile shares it; callers must not mutate it."""
        m = self.m
        places = [[0] * m for _ in range(m)]
        for pref in self.prefs:
            for place, cand in enumerate(pref.order):
                places[cand - 1][place] += 1
        return places


@dataclass(frozen=True)
class CandidateDistribution:
    """Exact probability vector over candidates: candidate j+1 wins with
    probability ``nums[j] / den``.  The numerators are non-negative integers
    that sum to ``den``, in lowest terms, so equality and hashing are exactly
    those of the probabilities; :attr:`probs` is the `Fraction` view."""

    den: int
    nums: tuple[int, ...]

    def __post_init__(self):
        if not self.nums:
            raise PreconditionError("distribution needs at least one candidate")
        if min(self.nums) < 0:
            raise PreconditionError(f"negative probability in {self.nums} over {self.den}")
        if sum(self.nums) != self.den:
            raise PreconditionError(f"numerators {self.nums} do not sum to {self.den}")
        if math.gcd(self.den, *self.nums) != 1:
            raise PreconditionError(f"{self.nums} over {self.den} is not in lowest terms")

    @classmethod
    def over(cls, den: int, nums: Sequence[int]) -> "CandidateDistribution":
        """The distribution nums[j] / den, reduced to lowest terms."""
        g = math.gcd(den, *nums)
        return cls(den // g, tuple(num // g for num in nums))

    @classmethod
    def point(cls, j: int, m: int) -> "CandidateDistribution":
        """Degenerate distribution on candidate j (1-indexed)."""
        return cls(1, tuple(int(c == j) for c in range(1, m + 1)))

    @cached_property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(num, self.den) for num in self.nums)


def normalize(raw: Sequence) -> Preference:
    """Affinely rescale a utility vector so its minimum is 0 and maximum 1.

    The candidate ordering (ties included) is preserved exactly.  Raises
    NormalizationError for constant input, where no affine map can reach both
    endpoints.
    """
    vals = [exact(v) for v in raw]
    if len(vals) < 2:
        raise PreconditionError("need at least 2 candidates")
    lo, hi = min(vals), max(vals)
    if lo == hi:
        raise NormalizationError("constant utility vector cannot be normalized")
    span = hi - lo
    return Preference.normalized((v - lo) / span for v in vals)


def welfare(profile: Profile, j: int) -> Fraction:
    """Total utility of candidate j across all voters."""
    if not 1 <= j <= profile.m:
        raise IndexError(f"candidate {j} out of range 1..{profile.m}")
    return sum((p.values[j - 1] for p in profile.prefs), ZERO)


def welfare_vector(profile: Profile) -> tuple[Fraction, ...]:
    """Total utility of every candidate, summed as integer numerators over the
    common denominator of all utilities in the profile."""
    den, nums = scaled([v for p in profile.prefs for v in p.values])
    return tuple(Fraction(sum(nums[c::profile.m]), den) for c in range(profile.m))


def rv_winner(profile: Profile) -> int:
    """Candidate with maximal total utility; welfare ties go to the lowest
    candidate index."""
    totals = welfare_vector(profile)
    best = max(totals)
    return totals.index(best) + 1


def dot(weights: Sequence, values: Sequence) -> Fraction:
    """Exact sum of weight * value, skipping zero weights."""
    return sum((w * v for w, v in zip(weights, values) if w), ZERO)


@dataclass(frozen=True)
class WelfareReport:
    """Welfare bookkeeping for one mechanism evaluation: the per-candidate
    welfare vector, the score-maximizing winner, the mechanism's expected
    welfare and the ratio of the two."""

    welfares: tuple[Fraction, ...]
    rv_winner: int
    expected: Fraction
    ratio: Fraction


def welfare_report(profile: Profile, dist: CandidateDistribution) -> WelfareReport:
    totals = welfare_vector(profile)
    best = max(totals)
    winner = totals.index(best) + 1
    if best <= ZERO:
        raise UndefinedRatioError(
            "welfare ratio undefined: maximal welfare is zero"
        )
    expected = dot(dist.probs, totals)
    return WelfareReport(totals, winner, expected, expected / best)


def ratio(mechanism, profile: Profile) -> Fraction:
    """Expected welfare of the mechanism's winner divided by the maximal
    welfare.  Accepts anything with an ``evaluate(profile)`` method, or a
    bare callable."""
    evaluate = getattr(mechanism, "evaluate", mechanism)
    return welfare_report(profile, evaluate(profile)).ratio


def rank(pref: Preference, j: int) -> int:
    """Position of candidate j in the voter's descending order: the number of
    candidates valued at least as much.  Requires a tie-free preference."""
    if not 1 <= j <= pref.m:
        raise IndexError(f"candidate {j} out of range 1..{pref.m}")
    if not pref.is_tie_free():
        raise PreconditionError("rank is only defined for tie-free preferences")
    return pref.order.index(j) + 1


def top_q_set(pref: Preference, q: int) -> tuple[int, ...]:
    """The q best candidates under :attr:`Preference.order`, in that order."""
    if not 1 <= q <= pref.m:
        raise IndexError(f"q={q} out of range 1..{pref.m}")
    return pref.order[:q]


def descending_order(pref: Preference) -> tuple[int, ...]:
    """All candidates under :attr:`Preference.order`."""
    return pref.order


def pairwise_beats(profile: Profile) -> list[list[int]]:
    """beats[a][b]: number of voters whose order puts candidate a+1 above
    b+1, so a value tie counts for the lower index.

    Each candidate's row is counted as one packed int: field b (little-endian,
    ``width`` bytes, wide enough for n) holds beats[a][b].  Walking a voter's
    order from last to first, the mask of candidates already passed is exactly
    the set the current candidate beats, so each voter costs m big-int
    additions; every row is unpacked once at the end.
    """
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


# ---------------------------------------------------------------------------
# Serialization.  JSON carries exact numerator/denominator pairs; the CSV
# form (one voter per row, "p/q" strings) is meant for hand editing.

def profile_to_json_dict(profile: Profile) -> dict:
    return {
        "m": profile.m,
        "n": profile.n,
        "prefs": [
            [[v.numerator, v.denominator] for v in p.values]
            for p in profile.prefs
        ],
    }


def profile_from_json_dict(data: dict) -> Profile:
    try:
        m, n, prefs = data["m"], data["n"], data["prefs"]
    except (KeyError, TypeError) as e:
        raise PreconditionError(f"profile JSON missing field: {e}") from e
    for field, value in (("m", m), ("n", n)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise DataError(f"profile JSON {field!r} must be an integer, got {value!r}")
    if not isinstance(prefs, list) or not all(isinstance(row, list) for row in prefs):
        raise DataError("profile JSON 'prefs' must be a list of voter rows")
    if len(prefs) != n:
        raise PreconditionError(f"profile declares n={n} but has {len(prefs)} voters")
    out = []
    for row in prefs:
        if len(row) != m:
            raise PreconditionError(f"voter row has {len(row)} values, expected m={m}")
        try:
            values = [Fraction(num, den) for num, den in row]
        except (TypeError, ValueError, ZeroDivisionError) as e:
            raise DataError(
                f"voter row {row!r} needs integer [numerator, denominator] pairs "
                f"with nonzero denominators: {e}"
            ) from e
        out.append(Preference.relaxed(values))
    return Profile.of(out)


def profile_to_csv_text(profile: Profile) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    for p in profile.prefs:
        writer.writerow([str(v) for v in p.values])
    return buf.getvalue()


def profile_from_csv_text(text: str) -> Profile:
    try:
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
    except csv.Error as e:  # e.g. a bare carriage return inside a field
        raise DataError(f"profile CSV is malformed: {e}") from e
    if not rows:
        raise PreconditionError("empty profile CSV")
    try:
        values = [[parse_rational(cell) for cell in row] for row in rows]
    except (ValueError, ZeroDivisionError) as e:
        raise DataError(f"profile CSV cell is not an exact rational: {e}") from e
    return Profile.of(Preference.relaxed(row) for row in values)
