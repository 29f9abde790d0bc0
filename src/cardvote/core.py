"""Exact-arithmetic domain types for cardinal voting.

A voter scores every candidate with a rational utility in [0, 1]; a profile
collects one preference per voter.  Everything downstream (welfares, winning
probabilities, welfare ratios) is computed with `fractions.Fraction` or
integers, so comparisons and tie detection are exact.  A
:class:`Preference` and a :class:`CandidateDistribution` each store one
integer form, numerators over one denominator in lowest terms.  Floats are
rejected at the boundary: pass ints, Fractions, or strings such as "3/4" or
"0.25".

Candidates and voters are 1-indexed in the public API.

A preference holds ``(den, nums)``, utility ``nums[i] / den`` for candidate
i+1, and :attr:`Preference.values` is its `Fraction` view for reports,
witness replay and tie-breaks.  :meth:`Preference.from_steps` builds a grid
voter in integers alone, and :func:`check_grid_shape` is the one check of a
grid family's (m, k).  The order, :func:`grid_steps`, the bounds module's
rounding and :attr:`Profile.totals`, the one welfare form
(:func:`welfare_vector` is its `Fraction` view), read the integers.

Each voter's strict order (value descending, ties to the lower index) is
computed once and cached as :attr:`Preference.order`; every ordinal reader
uses it.  A profile's :class:`Ballot`, cached as :attr:`Profile.ballot`,
holds each distinct order once with its multiplicity and owns the two
integer ballot tables, the place table :attr:`Ballot.places` and the
pairwise table :attr:`Ballot.beats`, each counted once per distinct order.
Every path from `Fraction`s to integers goes through :func:`scaled`.

All types are logically immutable after construction and all operations are
pure, so concurrent evaluation needs no synchronization.  The cached views
(:attr:`Preference.values` and :attr:`~Preference.order`,
:attr:`Profile.ballot` and :attr:`~Profile.totals`, :attr:`Ballot.places`
and :attr:`~Ballot.beats`, :attr:`CandidateDistribution.probs`) are
:class:`cached_view` descriptors: each is computed on first read and stored
in the instance ``__dict__``, with no lock, and enters neither ``==`` nor
``hash``.  A view is a pure function of the stored integers, so two threads
that race on a first read store equal values.
"""

from __future__ import annotations

import collections
import csv
import io
import math
import operator
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (DataError, GridError, NormalizationError, OutOfRangeError,
                     PreconditionError, UndefinedRatioError)

ZERO = Fraction(0)
ONE = Fraction(1)


class cached_view:
    """A read-only attribute computed by ``func`` on first read and stored in
    the instance ``__dict__``, where every later read finds it without
    calling this descriptor.  Unlike ``functools.cached_property`` (which on
    Python 3.11 takes a lock on each first read) it takes no lock: ``func``
    must be a pure function of the instance's stored fields, so a racing
    second computation only stores an equal value."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


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


def check_grid_shape(m: int, k: int, tie_free: bool) -> None:
    """The one check of a grid family's shape: k an int >= 1, m >= 2, and
    tie-free, k >= m-1 so that the m values 0..k can be distinct."""
    if type(k) is not int or k < 1:
        raise PreconditionError(f"grid resolution k must be an int >= 1, got {k!r}")
    if m < 2:
        raise PreconditionError(f"need at least 2 candidates, got m={m}")
    if tie_free and k < m - 1:
        raise PreconditionError(f"k={k} cannot host {m} distinct grid values in [0, 1]")


def grid_steps(pref: Preference, k: int) -> list[int]:
    """Each utility as a count of 1/k grid steps; GridError when one is not a
    multiple of 1/k.  Every utility is one exactly when the least common
    denominator divides k."""
    check_grid_shape(pref.m, k, False)
    den, nums = pref.den, pref.nums
    if k % den:
        bad = next(i for i, num in enumerate(nums) if num * k % den)
        raise GridError(f"value {pref.values[bad]} is not a multiple of 1/{k}")
    factor = k // den
    return [num * factor for num in nums]


@dataclass(frozen=True)
class Preference:
    """One voter's utility vector over m candidates: candidate j+1 has
    utility ``nums[j] / den``, in lowest terms, so equality and hashing are
    exactly those of the utilities; :attr:`values` is the `Fraction` view.

    Use :meth:`normalized` for the standard setting (minimum utility exactly
    0, maximum exactly 1), :meth:`relaxed` when only the [0, 1] bounds are
    required, and :meth:`from_steps` for a normalized voter on the 1/k grid.
    All three constructors validate and reduce; instances compare by value,
    whichever built them.
    """

    den: int
    nums: tuple[int, ...]

    def __post_init__(self):
        if self.den < 1 or math.gcd(self.den, *self.nums) != 1:
            raise PreconditionError(f"{self.nums} over {self.den} is not in lowest terms")

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
        den, nums = scaled(vals)
        if min(nums) < 0 or max(nums) > den:
            bad = next(v for v in vals if not 0 <= v <= 1)
            raise PreconditionError(f"utility {bad} outside [0, 1]")
        return cls(den, nums)

    @classmethod
    def from_steps(cls, steps: Iterable[int], k: int) -> "Preference":
        """The normalized grid preference with utility steps[i]/k for
        candidate i+1, validated in integers: every step an int in 0..k,
        minimum 0, maximum k.  The steps are kept as given when already in
        lowest terms, so voters built from shared step ints share them."""
        steps = tuple(steps)
        check_grid_shape(len(steps), k, False)
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
        return cls(k, steps) if g == 1 else cls(k // g, tuple(s // g for s in steps))

    @property
    def m(self) -> int:
        return len(self.nums)

    @cached_view
    def values(self) -> tuple[Fraction, ...]:
        """The utilities as `Fraction`s, for reports, replay and tie-breaks."""
        return tuple(Fraction(num, self.den) for num in self.nums)

    @cached_view
    def order(self) -> tuple[int, ...]:
        """All candidates, value descending; the stable reverse sort keeps value
        ties in ascending index order."""
        return tuple(
            sorted(range(1, self.m + 1), key=((0,) + self.nums).__getitem__, reverse=True)
        )

    def is_normalized(self) -> bool:
        return min(self.nums) == 0 and max(self.nums) == self.den


@dataclass(frozen=True)
class Ballot:
    """The voters' tie-broken strict orders as a multiset: each distinct
    :attr:`Preference.order` once, ascending, beside its number of voters.
    It holds no voter order and no utility, so whatever is read from it is
    the same on every profile with these orders; :attr:`Profile.ballot`
    builds it.

    Its two integer tables count each distinct order once, times its
    multiplicity: the place table :attr:`places` and the pairwise table
    :attr:`beats`.  Callers must not mutate them."""

    orders: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.orders[0])

    @property
    def n(self) -> int:
        return sum(self.counts)

    @cached_view
    def places(self) -> list[list[int]]:
        """places[c][p]: number of voters whose order puts candidate c+1 at
        place p+1."""
        m = self.m
        places = [[0] * m for _ in range(m)]
        for order, count in zip(self.orders, self.counts):
            for place, cand in enumerate(order):
                places[cand - 1][place] += count
        return places

    @cached_view
    def beats(self) -> list[list[int]]:
        """beats[a][b]: number of voters whose order puts candidate a+1 above
        b+1, so a value tie counts for the lower index.

        Each candidate's row is one packed int whose field b holds
        beats[a][b], each field the narrowest native unsigned width (1, 2, 4
        or 8 bytes) that holds n.  Walking an order from last to first, the
        mask of candidates already passed, each field holding the order's
        multiplicity, is exactly what the current candidate adds to its row,
        so each distinct order costs m big-int additions.  Each row is
        unpacked by one ``to_bytes`` in native byte order and one
        ``memoryview`` cast.
        """
        m, n = self.m, self.n
        code = next(code for code in "BHIQ" if n >> 8 * struct.calcsize(code) == 0)
        width = 8 * struct.calcsize(code)
        bits = [0] + [1 << (width * c) for c in range(m)]
        masks: dict[int, list[int]] = {}  # multiplicity -> bits times it
        rows = [0] * (m + 1)
        for order, count in zip(self.orders, self.counts):
            step = masks.get(count)
            if step is None:
                step = masks[count] = [bit * count for bit in bits]
            below = 0
            for cand in reversed(order):
                rows[cand] += below
                below |= step[cand]
        size = m * width // 8
        return [memoryview(packed.to_bytes(size, sys.byteorder)).cast(code).tolist()
                for packed in rows[1:]]


@dataclass(frozen=True)
class Profile:
    """An ordered tuple of preferences sharing the same candidate count."""

    prefs: tuple[Preference, ...]

    def __post_init__(self):
        if not self.prefs:
            raise PreconditionError("profile needs at least one voter")
        m = len(self.prefs[0].nums)
        for p in self.prefs:
            if len(p.nums) != m:
                raise PreconditionError("all voters must rate the same candidates")

    @property
    def n(self) -> int:
        return len(self.prefs)

    @property
    def m(self) -> int:
        return self.prefs[0].m

    @cached_view
    def ballot(self) -> Ballot:
        """The voters' tie-broken strict orders as one :class:`Ballot`,
        built once per profile."""
        counts = collections.Counter(p.order for p in self.prefs)
        orders = sorted(counts)
        return Ballot(tuple(orders), tuple(map(counts.__getitem__, orders)))

    @cached_view
    def totals(self) -> tuple[int, tuple[int, ...]]:
        """(den, nums): candidate c+1's total utility is ``nums[c] / den``,
        with den the lcm of the voters' ``den``.  Built once per profile."""
        den = math.lcm(*{p.den for p in self.prefs})
        rows = [p.nums if p.den == den else [num * (den // p.den) for num in p.nums]
                for p in self.prefs]
        return den, tuple(map(sum, zip(*rows)))


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
        if g == 1:
            return cls(den, tuple(nums))
        return cls(den // g, tuple(num // g for num in nums))

    @classmethod
    def point(cls, j: int, m: int) -> "CandidateDistribution":
        """Degenerate distribution on candidate j (1-indexed)."""
        return cls(1, tuple(int(c == j) for c in range(1, m + 1)))

    @cached_view
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(num, self.den) for num in self.nums)


def welfare(profile: Profile, j: int) -> Fraction:
    """Total utility of candidate j across all voters."""
    if not 1 <= j <= profile.m:
        raise OutOfRangeError(f"candidate {j} out of range 1..{profile.m}")
    return welfare_vector(profile)[j - 1]


def welfare_vector(profile: Profile) -> tuple[Fraction, ...]:
    """Total utility of every candidate: the view of :attr:`Profile.totals`."""
    den, nums = profile.totals
    return tuple(Fraction(num, den) for num in nums)


def rv_winner(profile: Profile) -> int:
    """Candidate with maximal total utility; welfare ties go to the lowest
    candidate index."""
    nums = profile.totals[1]
    return nums.index(max(nums)) + 1


@dataclass(frozen=True)
class WelfareReport:
    """Welfare bookkeeping for one mechanism evaluation: the per-candidate
    welfare vector, the score-maximizing winner, the mechanism's expected
    welfare and the ratio of the two."""

    welfares: tuple[Fraction, ...]
    rv_winner: int
    expected: Fraction
    ratio: Fraction


def _expected(profile: Profile, dist: CandidateDistribution) -> tuple[Fraction, Fraction]:
    """Expected welfare and its ratio to the maximal welfare: one integer dot
    product with :attr:`Profile.totals`, made one `Fraction` each."""
    den, nums = profile.totals
    best = max(nums)
    if best <= 0:
        raise UndefinedRatioError(
            "welfare ratio undefined: maximal welfare is zero"
        )
    numer = sum(map(operator.mul, dist.nums, nums))
    return Fraction(numer, dist.den * den), Fraction(numer, dist.den * best)


def welfare_report(profile: Profile, dist: CandidateDistribution) -> WelfareReport:
    return WelfareReport(welfare_vector(profile), rv_winner(profile), *_expected(profile, dist))


def ratio(mechanism, profile: Profile) -> Fraction:
    """Expected welfare of the mechanism's winner divided by the maximal
    welfare.  Accepts anything with an ``evaluate(profile)`` method, or a
    bare callable."""
    evaluate = getattr(mechanism, "evaluate", mechanism)
    return _expected(profile, evaluate(profile))[1]


def top_q_set(pref: Preference, q: int) -> tuple[int, ...]:
    """The q best candidates under :attr:`Preference.order`, in that order."""
    if not 1 <= q <= pref.m:
        raise OutOfRangeError(f"q={q} out of range 1..{pref.m}")
    return pref.order[:q]


def descending_order(pref: Preference) -> tuple[int, ...]:
    """All candidates under :attr:`Preference.order`."""
    return pref.order


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
            pairs = [(num, den) for num, den in row]
            if any(isinstance(x, bool) for pair in pairs for x in pair):
                raise TypeError("true and false are not integers")
            values = [Fraction(num, den) for num, den in pairs]
        except (TypeError, ValueError, ZeroDivisionError) as e:
            raise DataError(
                f"voter row {row!r} needs integer [numerator, denominator] pairs "
                f"with nonzero denominators: {e}"
            ) from e
        out.append(Preference.relaxed(values))
    return Profile(tuple(out))


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
    return Profile(tuple(Preference.relaxed(row) for row in values))
