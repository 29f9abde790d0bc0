"""Constructors for the structured profile families the analysis machinery
consumes: the adversarial upper-bound profiles, the class-constrained grid
profiles, the cyclic profiles showing why per-voter normalization matters,
and a plain random grid sampler.

All constructors are pure; randomness enters only through explicit seeds.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Preference, Profile, check_grid_shape, exact
from .errors import PreconditionError
from .mechanisms import integer_cbrt


def _nearly_equal_blocks(last: int, parts: int) -> list[range]:
    """Partition {1..last} into ``parts`` contiguous blocks whose sizes differ
    by at most one."""
    base, extra = divmod(last, parts)
    blocks, start = [], 1
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        blocks.append(range(start, start + size))
        start += size
    return blocks


def negative_layout(m: int, repeat: int = 1) -> tuple[int, int, list[range]]:
    """The checks and block layout of :func:`gen_negative`, shared with the
    closed form ``bounds.negative_ratios`` so the two cannot drift:
    ``(k, den, blocks)`` with k = floor(m^(1/3)), den = m^4 and the g =
    floor(m^(2/3)) nearly-equal blocks of {1, ..., min(k*g, m-1)}."""
    if m < 8:
        raise PreconditionError(f"construction needs m >= 8, got {m}")
    if repeat < 1:
        raise PreconditionError(f"repeat must be >= 1, got {repeat}")
    k, g = integer_cbrt(m), integer_cbrt(m * m)
    if k * g > m:
        raise RuntimeError(f"block layout overflows: {k} * {g} > m = {m}")
    if (m - 1 + g) * repeat > sys.maxsize:
        raise PreconditionError(f"repeat={repeat} gives more voters than a tuple can index")
    return k, m ** 4, _nearly_equal_blocks(min(k * g, m - 1), g)


def gen_negative(m: int, repeat: int = 1) -> Profile:
    """Adversarial profile: candidate m carries almost all welfare but sits
    just below every block voter's favorites.

    With k = floor(m^(1/3)) and g = floor(m^(2/3)), the base profile has
    m-1+g voters and is duplicated ``repeat`` times.  Voters 1..m-1 rate their
    own index 1, candidate m exactly 0, and all other candidates with
    distinct values far below 1/m^2.  The g block voters each rate one block
    of favorites just below 1, rate candidate m exactly 1 - 1/m^2, and
    everything else far below 1/m^2.  The blocks partition {1, ...,
    min(k*g, m-1)} into g nearly-equal parts of size at most k, so each
    non-special candidate is a favorite of at most one block voter.  Tiny
    filler utilities live on a ladder with denominator m^4, well below the
    1/m^2 cap, so that no filler mass can push a non-special candidate's
    welfare past 2 + 1/m.
    """
    k, den, blocks = negative_layout(m, repeat)
    # Utilities as steps of 1/den.  A voter is its top steps with slices of one
    # ladder around them (descending for voter i, ascending for a block
    # voter's non-favorites), so the profile holds each distinct step int once.
    ladder = list(range(m))
    near_top = [den - s for s in range(k)]
    one, pivot = near_top[0], den - m * m  # exactly 1 and 1 - 1/m^2
    below = ladder[m - 2:0:-1]
    prefs = [Preference.from_steps(below[:i - 1] + [one] + below[i - 1:] + [0], den)
             for i in range(1, m)]
    for block in blocks:
        below, lo = ladder[:m - 1 - len(block)], block[0] - 1
        steps = below[:lo] + near_top[:len(block)] + below[lo:] + [pivot]
        prefs.append(Preference.from_steps(steps, den))
    return Profile(tuple(prefs * repeat))


@dataclass(frozen=True)
class DkParams:
    """Voter counts for the three structured two-block classes.

    The first ``a`` voters put candidate 1 in a top block of size at most 2;
    the next ``b`` voters have a single top candidate other than 1 and rank
    candidate 1 below floor(m^(1/3)); the last ``c`` voters have a top block
    of size floor(m^(1/3)) + 1 with candidate 1 ranked exactly last inside
    it.  Which candidates fill the blocks is drawn from the generator seed.
    """

    m: int
    k: int
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.m < 8:
            raise PreconditionError(f"need m >= 8, got {self.m}")
        if self.k < 4 * self.m:
            raise PreconditionError(
                f"need k >= 4m so block values clear 1/2, got k={self.k}, m={self.m}"
            )
        if min(self.a, self.b, self.c) < 0:
            raise PreconditionError("voter counts must be nonnegative")
        if self.a + self.c < 1:
            raise PreconditionError(
                "need a + c >= 1 so the rounded-welfare denominator is positive"
            )


def two_block_preference(order: Sequence[int], top_size: int, k: int) -> Preference:
    """Tie-free grid preference whose image is a top run of grid values ending
    at 1 (the first ``top_size`` of ``order``) plus a bottom run starting at 0.
    Below k = m the top run reaches down into the bottom one, so k < m raises."""
    m = len(order)
    if k < m:
        raise PreconditionError(f"two blocks need k >= m, got k={k}, m={m}")
    steps = [0] * m
    for pos, cand in enumerate(order):
        steps[cand - 1] = k - pos if pos < top_size else m - 1 - pos
    return Preference.from_steps(steps, k)


def gen_Dk(params: DkParams, seed: int) -> Profile:
    """Seeded profile with a/b/c voters in the three structured classes."""
    rng = random.Random(seed)
    m, k = params.m, params.k
    v = integer_cbrt(m)
    others = list(range(2, m + 1))
    prefs: list[Preference] = []
    for _ in range(params.a):
        if rng.random() < 0.5:
            top = [1]
        else:
            partner = rng.choice(others)
            top = [1, partner] if rng.random() < 0.5 else [partner, 1]
        rest = [c for c in range(1, m + 1) if c not in top]
        rng.shuffle(rest)
        prefs.append(two_block_preference(top + rest, len(top), k))
    for _ in range(params.b):
        favorite = rng.choice(others)
        rank_of_one = rng.randint(v + 1, m)
        rest = [c for c in range(2, m + 1) if c != favorite]
        rng.shuffle(rest)
        order = [favorite] + rest[: rank_of_one - 2] + [1] + rest[rank_of_one - 2:]
        prefs.append(two_block_preference(order, 1, k))
    for _ in range(params.c):
        tops = rng.sample(others, v)
        rest = [c for c in range(2, m + 1) if c not in tops]
        rng.shuffle(rest)
        prefs.append(two_block_preference(tops + [1] + rest, v + 1, k))
    return Profile(tuple(prefs))


def gen_cyclic(m: int, star: int, eps) -> Profile:
    """Profile of m voters whose orderings are the m cyclic shifts.

    Voter ``star`` rates their own candidate exactly 1; every other utility
    in the profile is a distinct positive value below eps.  The output is
    deliberately not normalized (no per-voter 0/1 rescaling): the point of
    the family is that all m star choices are ordinally identical, so any
    ordinal scheme treats them alike while their welfare differs wildly.
    """
    if m < 2:
        raise PreconditionError(f"need m >= 2, got {m}")
    if not 1 <= star <= m:
        raise PreconditionError(f"star={star} out of range 1..{m}")
    eps = exact(eps)
    if not 0 < eps < Fraction(1, m * m):
        raise PreconditionError(f"eps must lie in (0, 1/m^2), got {eps}")
    n = m
    scale = eps / ((m + 2) * (n + 1))
    prefs = []
    for i in range(1, n + 1):
        cycle = [((i - 1 + t) % m) + 1 for t in range(m)]
        values = [Fraction(0)] * m
        for t, cand in enumerate(cycle, start=1):
            values[cand - 1] = scale * ((m - t + 1) * (n + 1) + i)
        if i == star:
            values[star - 1] = Fraction(1)
        prefs.append(Preference.relaxed(values))
    return Profile(tuple(prefs))


def rand_grid_profile(
    m: int, n: int, k: int, seed: int, tie_free: bool = True
) -> Profile:
    """Basic uniform sampler of normalized grid profiles for property tests."""
    check_grid_shape(m, k, tie_free)
    if tie_free and k - 1 > sys.maxsize:  # random.sample cannot index range(1, k)
        raise PreconditionError(f"tie-free sampling needs k <= {sys.maxsize + 1}, got {k}")
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
        prefs.append(Preference.from_steps(steps, k))
    return Profile(tuple(prefs))

