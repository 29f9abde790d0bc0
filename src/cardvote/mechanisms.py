"""Exact evaluators for the voting schemes and combinators over them.

Every mechanism maps a Profile to a CandidateDistribution, exact
probabilities held as non-negative integers over one denominator;
evaluation is deterministic and side-effect free, so mechanisms can be
shared freely across threads.  Randomness only enters through
:func:`sample`, behind an explicit seed.

The top-q lotteries, the pairwise-quota schemes, the stacked lottery
:func:`j_star`, the constant schemes and every mixture of them are ballot
schemes: each reads only :attr:`core.Profile.ballot`, the voters' tie-broken
strict orders with their multiplicities, through a ballot evaluator that
counts from its two integer tables (:func:`top_q_counts` and
:func:`pair_units`, or one integer formula over the place table for
:func:`j_star`).  ``bounds.all_q_ratios`` sweeps the same tables over every
quota at once.  Range voting reads utilities and a ``sym:`` average
relabels them (a tied voter's tie-broken order does not follow the
relabeling), so both stay profile schemes, as does a hand-built scheme.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import random
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .core import (
    ZERO,
    ONE,
    Ballot,
    CandidateDistribution,
    Preference,
    Profile,
    exact,
    parse_rational,
    rv_winner,
)
from .errors import (
    BudgetError,
    MechanismSpecError,
    OutOfRangeError,
    PreconditionError,
    WeightError,
)


def integer_cbrt(x: int) -> int:
    """Largest t with t**3 <= x, computed without floating point."""
    if x < 0:
        raise PreconditionError("cube root of negative value")
    if x == 0:
        return 0
    # Newton's iteration from 2**ceil(bits/3) > x**(1/3) decreases strictly
    # until it reaches the floor of the cube root.
    t = 1 << -(-x.bit_length() // 3)
    while True:
        s = (2 * t + x // (t * t)) // 3
        if s >= t:
            return t
        t = s


@dataclass(frozen=True)
class Mechanism:
    """A named voting scheme.

    ``evaluate`` maps a profile to an exact distribution over candidates.
    ``q`` is set only by the pairwise-quota family, so reports can flag
    out-of-range quotas.  ``anonymous`` is set only by the constructors of
    schemes that read a profile through voter-order-invariant tables, so
    every permutation of the voters gets the same distribution; the
    truthfulness scan then walks one profile per permutation orbit.  A
    hand-built mechanism defaults to ``False`` and is scanned in full.
    ``cost`` is the number of steps one evaluation takes, in units of one
    plain evaluation, so a scan's budget gate can price schemes that evaluate
    others many times: a mixture sums the costs of its nonzero-weight parts,
    and a ``sym:`` average multiplies its relabeling count by its inner
    scheme's cost.  ``evaluate_ballot`` is set only through
    :func:`_ballot_scheme`, for a scheme that reads the voters' tie-broken
    strict orders and nothing else: its ``evaluate`` applies
    ``evaluate_ballot`` to :attr:`core.Profile.ballot`, and a grid scan
    evaluates it once per ballot.
    """

    name: str
    evaluate: Callable[[Profile], CandidateDistribution]
    q: int | None = field(default=None, compare=False)
    anonymous: bool = field(default=False, compare=False)
    cost: int = field(default=1, compare=False)
    evaluate_ballot: Callable[[Ballot], CandidateDistribution] | None = field(
        default=None, compare=False)


def _ballot_scheme(name: str, evaluate_ballot: Callable[[Ballot], CandidateDistribution],
                   **fields) -> Mechanism:
    """The scheme that reads a profile only through its ballot.  A ballot
    holds no voter order, so the scheme is anonymous by construction."""

    def evaluate(profile: Profile) -> CandidateDistribution:
        return evaluate_ballot(profile.ballot)

    return Mechanism(name, evaluate, anonymous=True, evaluate_ballot=evaluate_ballot, **fields)


def range_voting() -> Mechanism:
    """Deterministic welfare maximizer; welfare ties go to the lowest index."""

    def evaluate(profile: Profile) -> CandidateDistribution:
        return CandidateDistribution.point(rv_winner(profile), profile.m)

    return Mechanism("rv", evaluate, anonymous=True)


def constant_winner(j: int) -> Mechanism:
    """Always elects candidate j, ignoring the profile."""

    def evaluate_ballot(ballot: Ballot) -> CandidateDistribution:
        if not 1 <= j <= ballot.m:
            raise OutOfRangeError(f"candidate {j} out of range 1..{ballot.m}")
        return CandidateDistribution.point(j, ballot.m)

    return _ballot_scheme(f"const:{j}", evaluate_ballot)


def top_q_counts(places: Sequence[Sequence[int]], q: int) -> list[int]:
    """Per candidate, the number of voters ranking it among their q
    favorites, from a :attr:`core.Ballot.places` table."""
    return [sum(row[:q]) for row in places]


def pair_units(beats: Sequence[Sequence[int]], n: int, q: int) -> list[int]:
    """Per candidate, half-pair units won under quota q from a
    :attr:`core.Ballot.beats` table: 2 for a pair whose unique quota-reacher it
    is, 1 for each pair decided by a coin flip."""
    units = [0] * len(beats)
    for a, b in itertools.combinations(range(len(beats)), 2):
        votes_a = beats[a][b]
        meets_a, meets_b = votes_a >= q, n - votes_a >= q
        if meets_a and not meets_b:
            units[a] += 2
        elif meets_b and not meets_a:
            units[b] += 2
        else:
            units[a] += 1
            units[b] += 1
    return units


def j1q(q: int) -> Mechanism:
    """Pick a voter uniformly at random, then a winner uniformly among that
    voter's q most preferred candidates (value ties broken toward the lower
    candidate index)."""
    if q < 1:
        raise PreconditionError(f"q must be >= 1, got {q}")

    def evaluate_ballot(ballot: Ballot) -> CandidateDistribution:
        if q > ballot.m:
            raise OutOfRangeError(f"q={q} exceeds candidate count {ballot.m}")
        return CandidateDistribution.over(ballot.n * q, top_q_counts(ballot.places, q))

    return _ballot_scheme(f"j1:{q}", evaluate_ballot)


def j2q_quota_range(n: int) -> range:
    """Quotas for which at most one candidate of a pair can reach the quota."""
    return range(n // 2 + 1, n + 2)


def j2q(q: int) -> Mechanism:
    """Pick an unordered candidate pair uniformly at random and hold a
    pairwise vote; a candidate wins the pair if it alone reaches q votes,
    otherwise the pair is decided by a fair coin.

    A voter indifferent between the two drawn candidates votes for the lower
    index.  Quotas outside j2q_quota_range(n) are accepted; requiring the
    quota-reacher to be unique keeps the scheme well-defined (and truthful,
    since each voter's pairwise outcome stays monotone in the votes for the
    candidate they prefer)."""
    if q < 1:
        raise PreconditionError(f"q must be >= 1, got {q}")

    def evaluate_ballot(ballot: Ballot) -> CandidateDistribution:
        m = ballot.m
        if m < 2:
            raise OutOfRangeError("pairwise voting needs at least 2 candidates")
        units = pair_units(ballot.beats, ballot.n, q)
        return CandidateDistribution.over(m * (m - 1), units)

    return _ballot_scheme(f"j2:{q}", evaluate_ballot, q=q)


def _weighted_sum(m: int, terms: Iterable[tuple]) -> CandidateDistribution:
    """The sum of the (w, den, nums) terms, each the distribution nums / den
    with exact weight w, the weights summing to 1: integer numerators
    w.numerator * nums over w.denominator * den, accumulated over a common
    denominator that grows only when a term needs it."""
    den, acc = 1, [0] * m
    for w, part_den, nums in terms:
        part = w.denominator * part_den
        if den % part:
            up = part // math.gcd(den, part)
            den *= up
            acc = [a * up for a in acc]
        factor = w.numerator * (den // part)
        acc = [a + factor * b for a, b in zip(acc, nums)]
    return CandidateDistribution.over(den, acc)


def mix(parts: Sequence[tuple]) -> Mechanism:
    """Convex combination of mechanisms: weights must be exact, nonnegative,
    and sum to 1."""
    if not parts:
        raise WeightError("mixture needs at least one component")
    weighted = [(exact(w), mech) for w, mech in parts]
    total = sum((w for w, _ in weighted), ZERO)
    if total != ONE:
        raise WeightError(f"weights sum to {total}, not 1")
    for w, _ in weighted:
        if w < ZERO:
            raise WeightError(f"negative weight {w}")

    def evaluate(profile: Profile) -> CandidateDistribution:
        dists = ((w, mech.evaluate(profile)) for w, mech in weighted if w)
        return _weighted_sum(profile.m, ((w, d.den, d.nums) for w, d in dists))

    def evaluate_ballot(ballot: Ballot) -> CandidateDistribution:
        dists = ((w, mech.evaluate_ballot(ballot)) for w, mech in weighted if w)
        return _weighted_sum(ballot.m, ((w, d.den, d.nums) for w, d in dists))

    # Only a mixture's name holds "+": parenthesized, a nested one parses back.
    name = "mix:" + "+".join(f"{w}*({mech.name})" if "+" in mech.name else f"{w}*{mech.name}"
                             for w, mech in weighted)
    cost = sum(mech.cost for w, mech in weighted if w)
    if all(mech.evaluate_ballot for _, mech in weighted):
        return _ballot_scheme(name, evaluate_ballot, cost=cost)
    return Mechanism(name, evaluate, anonymous=all(mech.anonymous for _, mech in weighted),
                     cost=cost)


def j_star(m: int) -> Mechanism:
    """The stacked lottery: with probability 1/2 a random voter's favorite,
    otherwise a uniform pick among a random voter's top t = floor(m^(1/3))
    (exact: m=27 gives 3, never 2).  Candidate c+1 wins with probability
    (t*places[c][0] + sum(places[c][:t])) / (2*n*t), the random-favorite
    lottery at t = 1 (m < 8).  It evaluates profiles with m candidates only."""
    if m < 2:
        raise PreconditionError("need at least 2 candidates")
    t = integer_cbrt(m)

    def evaluate_ballot(ballot: Ballot) -> CandidateDistribution:
        if ballot.m != m:
            raise PreconditionError(f"stacked lottery fixed at m={m}; got m={ballot.m}")
        return CandidateDistribution.over(
            2 * ballot.n * t, [t * row[0] + sum(row[:t]) for row in ballot.places])

    return _ballot_scheme("jstar", evaluate_ballot)


SYMMETRIZE_BUDGET = 10_000_000


def symmetrize(mech: Mechanism, m: int, n: int) -> Mechanism:
    """Average the mechanism over all voter and candidate relabelings.

    The output treats voters interchangeably and candidate names as
    meaningless by construction.  All n!*m! relabelings are enumerated
    exactly (no sampling), at most ``SYMMETRIZE_BUDGET`` of them, on each
    evaluation: building the average costs only its shape and budget checks.
    An anonymous mechanism gives every voter relabeling the same distribution,
    so its average is taken over the m! candidate relabelings alone.
    """
    if m < 2 or n < 1:
        raise PreconditionError(f"need at least 2 candidates and 1 voter, got m={m}, n={n}")
    bits = m - 1 + (0 if mech.anonymous else n - 1)
    if bits > 65536:  # m! >= 2**(m-1) and n! >= 2**(n-1), refused before either is built
        raise BudgetError(f"at least 2**{bits}", SYMMETRIZE_BUDGET, "relabeling enumeration")
    total = math.factorial(m) * (1 if mech.anonymous else math.factorial(n))
    if total > SYMMETRIZE_BUDGET:
        raise BudgetError(total, SYMMETRIZE_BUDGET, "relabeling enumeration")
    weight = Fraction(1, total)

    def relabeled(profile: Profile) -> Iterable[tuple]:
        # Candidate j of the election relabeled by tau is candidate tau[j] of
        # the original; the value multiset is unchanged, so validation holds.
        for tau in itertools.permutations(range(m)):
            pick = operator.itemgetter(*tau)
            prefs = tuple(Preference(p.den, pick(p.nums)) for p in profile.prefs)
            for voters in [prefs] if mech.anonymous else itertools.permutations(prefs):
                yield tau, mech.evaluate(Profile(voters))

    def evaluate(profile: Profile) -> CandidateDistribution:
        if profile.m != m or profile.n != n:
            raise PreconditionError(
                f"symmetrized mechanism fixed at m={m}, n={n}; "
                f"got m={profile.m}, n={profile.n}"
            )
        # The winner's label j in the relabeled election is candidate tau[j]:
        # sorting by tau reads the original candidates in order.
        return _weighted_sum(m, ((weight, d.den, [num for _, num in sorted(zip(tau, d.nums))])
                                 for tau, d in relabeled(profile)))

    return Mechanism(f"sym:{mech.name}", evaluate, anonymous=True, cost=total * mech.cost)


def sample(mech: Mechanism, profile: Profile, seed: int) -> int:
    """Draw one winner from the mechanism's distribution; the same seed always
    yields the same candidate."""
    return sample_stream(mech, profile, 1, seed)[0]


# Draws per chunk of sample_stream: bounds the raw integers held at once.
_SAMPLE_CHUNK = 4096


def sample_stream(
    mech: Mechanism, profile: Profile, count: int, seed: int
) -> list[int]:
    """Draw ``count`` winners from one seeded generator, evaluating the
    distribution once.  Sampling is exact: each draw is a uniform integer
    below the probabilities' common denominator, so every candidate is drawn
    with exactly its probability.

    The integers are drawn as CPython's ``randrange(den)`` draws them:
    ``getrandbits`` of den's bit length, rejecting values of den or above.
    They are drawn in chunks of at most ``_SAMPLE_CHUNK`` calls, each chunk
    filtered in order, until ``count`` are kept, so each seed gives the
    stream that one ``randrange(den)`` per draw gives."""
    dist = mech.evaluate(profile)
    den, bounds = dist.den, list(itertools.accumulate(dist.nums))
    draw, bits = random.Random(seed).getrandbits, den.bit_length()
    out: list[int] = []
    while (needed := count - len(out)) > 0:
        kept = [x for x in map(draw, itertools.repeat(bits, min(needed, _SAMPLE_CHUNK))) if x < den]
        out.extend([bisect.bisect_right(bounds, x) + 1 for x in kept])
    return out


# ---------------------------------------------------------------------------
# Mechanism specification mini-language used by the CLI:
#
#   rv | j1:<q> | j2:<q> | jstar | const:<j>
#   mix:<w1>*<spec1>+<w2>*<spec2>+...      (weights are exact rationals)
#   sym:<spec>
#
# A sub-spec containing '+' must be parenthesized, e.g.
# mix:1/2*(mix:1/2*j1:1+1/2*j1:2)+1/2*rv.  A spec is parsed for one profile
# shape (m, n): "jstar" and "sym:" are built for it and refuse any other.
# A "sym:" of a relabel-invariant scheme (a "sym:", or a mixture of them) is
# that scheme under the new name: averaging it again changes nothing.

_SIMPLE = re.compile(r"^(rv|jstar|j1:\d+|j2:\d+|const:\d+)$")


def _outside(spec: str) -> list[int]:
    """Positions of the characters outside every parenthesis pair, each
    pair's "(" included; unpaired parentheses are a spec error."""
    outside, depth = [], 0
    for i, ch in enumerate(spec):
        if depth == 0:
            outside.append(i)
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            raise MechanismSpecError(f"unbalanced ')' in {spec!r}")
    if depth:
        raise MechanismSpecError(f"unbalanced '(' in {spec!r}")
    return outside


MAX_NESTING = 100


def parse_mechanism(spec: str, m: int, n: int) -> Mechanism:
    """Parse the CLI mini-language for profiles with m candidates and n
    voters: ``jstar`` and ``sym:`` are built once, for that shape, and
    refuse any other; a ``sym:`` of a ``sym:``, or of a mixture of them,
    is not averaged again.  Errors name the offending token."""
    return _parse(spec, m, n, 0)[0]


def _parse(spec: str, m: int, n: int, depth: int) -> tuple[Mechanism, bool]:
    # Returns the mechanism and whether it is relabel-invariant.  Each
    # parenthesis, mixture component and "sym:" is one level; the cap turns a
    # spec nested past the interpreter's recursion limit into an error.
    if depth > MAX_NESTING:
        raise MechanismSpecError(f"mechanism spec nests deeper than {MAX_NESTING} levels")
    spec = spec.strip()
    if spec.startswith("(") and _outside(spec) == [0]:
        return _parse(spec[1:-1], m, n, depth + 1)
    if _SIMPLE.match(spec):
        if spec == "rv":
            return range_voting(), False
        if spec == "jstar":
            return j_star(m), False
        head, arg = spec.split(":")
        try:
            value = int(arg)
        except ValueError as e:  # more digits than int() converts
            raise MechanismSpecError(f"number in {head}:<{len(arg)} digits> is too long") from e
        return {"j1": j1q, "j2": j2q, "const": constant_winner}[head](value), False
    if spec.startswith("mix:"):
        # A component ends at an outside '+' after its '*': weights hold "1e+0".
        body, cuts, starred = spec[len("mix:"):], [-1], False
        for i in _outside(body):
            if body[i] == "*":
                starred = True
            elif body[i] == "+" and starred:
                cuts.append(i)
                starred = False
        parts, invariant = [], True
        for start, end in zip(cuts, cuts[1:] + [len(body)]):
            token = body[start + 1:end]
            if "*" not in token:
                raise MechanismSpecError(
                    f"mixture component {token!r} must look like <weight>*<spec>"
                )
            w_text, sub = token.split("*", 1)
            try:
                w = parse_rational(w_text)
            except (ValueError, ZeroDivisionError) as e:
                raise MechanismSpecError(f"bad mixture weight {w_text!r}") from e
            mech, part_invariant = _parse(sub, m, n, depth + 1)
            parts.append((w, mech))
            invariant &= part_invariant
        return mix(parts), invariant
    if spec.startswith("sym:"):
        inner, invariant = _parse(spec[len("sym:"):], m, n, depth + 1)
        if invariant:  # averaging a relabel-invariant scheme again is a no-op
            return replace(inner, name=f"sym:{inner.name}"), True
        return symmetrize(inner, m, n), True
    raise MechanismSpecError(f"unrecognized mechanism token {spec!r}")
