"""Exhaustive, exact verifiers for scheme classifications over finite grid
preference spaces.

Every checker enumerates a finite grid family of normalized preferences and
either certifies the property over that family or returns a concrete,
replayable counterexample.  A "holds" verdict is reported relative to the
enumerated grid, and the report records the search space (a ballot
scheme's truthful, ordinal and anonymous "holds" rest on proofs that cover
more, described below).
Each scan checks its work against its budget once, before it builds the
grid or any count past it.  Reports and witnesses are plain data;
``cardvote.cli`` renders them.

Enumeration order is fixed so that the first witness is reproducible:
preferences are ordered lexicographically by their value tuple (candidate 1
most significant, grid values ascending), profiles lexicographically with
voter 1 most significant, voters are scanned in ascending order and
misreports in preference order.  The profile space splits into disjoint
lexicographic ranges, so the scan could be partitioned across workers and
the minimum-lexicographic witness recovered by reduction; the implementation
here is single-threaded.

The truthfulness scan decides in integer arithmetic whether a voter can gain
at all: each preference and each distribution as its own integer
numerators over its denominator (``.den``/``.nums``), two utilities
compared by cross-multiplying, once per (voter, other voters'
reports) group.  The ordinal, neutral and anonymous scans compare
distributions as those integer tuples.  Only a group that admits a
gain is replayed with exact `Fraction` utilities, misreport by misreport, to
build the first witness.

For a mechanism flagged ``anonymous`` the truthfulness scan walks only the
sorted keys, one per voter-permutation orbit, and reads each distribution at
a sorted key; the witness replay still evaluates the real misreport
profiles.  The first witness cannot move: the violating (profile, voter)
pairs of an anonymous mechanism are closed under voter permutations, and a
sorted key is lexicographically <= each of its permutations, so the first
violating key of the full scan is sorted.  The search space still counts
every profile, since the verdict covers them all.

Every scan reads distributions through one cache.  A ballot scheme (one
with ``evaluate_ballot``, see ``cardvote.mechanisms``) reads only the
voters' tie-broken strict orders, so its cache is keyed by ballot: a scan
evaluates it once per multiset of those orders, at the first key read that
has it.  Any other scheme's cache is keyed by profile.

A ballot scheme is ordinal and anonymous by construction: two keys with the
same weak orders, or with the same orders in another voter order, have the
same ballot.  Its ordinal and anonymous scans pass the gate, evaluate the
scheme once, at the first key, where the walk would first evaluate it, and
return the grid's "holds" without building the grid.  A ballot scheme's
evaluator errors depend only on (m, n), so one that the walk would raise
is raised there, with the same message.  Whether a ballot scheme relabels a
key correctly depends only on the multiset of its voters' weak orders (the
tie-broken strict order of a preference, and of each relabeling of it,
follows from its weak order), so the neutrality scan checks every
permutation on one key per such multiset: the sorted tuples of heads, the
first grid preference of each weak order.  Mapping each index of a key to
its head and sorting gives such a tuple, no later than the key in
lexicographic order and failing exactly when the key fails.  So the first
failing grid key is a sorted tuple of heads, and
``combinations_with_replacement`` over the heads meets it first, with the
walk's witness.

The truthfulness scan of a ballot scheme first tries a proof that covers
every utility vector at (m, n): Gibbard's stochastic-dominance condition
(A. Gibbard, "Manipulation of schemes that mix voting with chance",
*Econometrica* 1977).  It holds when, for every multiset of the other voters'
strict orders, every honest order s and every strict report, reporting s
puts at least as much mass on each of the m-1 prefixes of s.  That implies
no gain on any grid: a utility vector whose tie-broken order is s is a
constant plus a nonnegative combination of the indicators of the prefixes
of s (the weights are the gaps between consecutive values along s), so its
expected utility under the honest report is at least that under any
report, and the condition ranges over every strict order a grid voter,
honest or not, can reach.  It runs only when its work fits the work the
gate has just priced for the grid walk, so it admits nothing the budget
refuses.  When it holds the report is the grid's "holds", unchanged; when
it fails, the grid scan runs as before and finds the same first witness.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .core import (Ballot, CandidateDistribution, Preference, Profile, cached_view,
                   check_grid_shape)
from .errors import BudgetError, PreconditionError

DEFAULT_BUDGET = 10_000_000


def enumerate_Rk_prefs(m: int, k: int, tie_free: bool = False) -> Iterator[Preference]:
    """Yield every normalized preference with utilities on the 1/k grid.

    The family contains each function from candidates to {0, 1/k, ..., 1}
    whose image includes both 0 and 1; with ``tie_free`` the values must also
    be pairwise distinct (the R_k family).  The step vectors come in
    lexicographic order (candidate 1 most significant, steps ascending) from
    a backtracking walk that extends a prefix by a step only while the
    positions left can still place 0 and k and, tie-free, only by an unused
    step.  Every such prefix extends to a member (k+1 >= m steps leave
    enough unused ones), so the walk visits at most m prefixes per
    preference at any k; tie-free, a prefix jumps over each run of used
    steps by bisection.
    """
    check_grid_shape(m, k, tie_free)
    for steps in _grid_step_vectors(m, k, tie_free):
        yield Preference.from_steps(steps, k)


def _grid_step_vectors(m: int, k: int, tie_free: bool) -> Iterator[tuple[int, ...]]:
    """The step vectors of :func:`enumerate_Rk_prefs`, by an explicit-stack
    backtrack (a recursive one would nest m generators): ``levels[d]``
    offers the steps for position d after ``prefix``, ``used`` holds the
    steps of ``prefix`` sorted (so 0 and k are present when they are its
    ends), and the last position is filled in place.  A tie-free level reads
    ``used`` as it advances, when ``prefix`` is back at that level's length.
    A run of used steps used[i:j] is where used[j] - j stays used[i] - i, so
    one bisection jumps it."""
    prefix: list[int] = []
    used: list[int] = []

    def unused() -> Iterator[int]:
        step = 0
        while True:
            i = bisect.bisect_left(used, step)
            if i < len(used) and used[i] == step:
                end = bisect.bisect_left(range(len(used)), step - i + 1, i,
                                         key=lambda j: used[j] - j)
                step = used[end - 1] + 1
            if step > k:
                return
            yield step
            step += 1

    def options() -> Iterator[int]:
        ends = used[:1] + used[-1:]
        missing = [s for s in (0, k) if s not in ends]
        if len(missing) == m - len(prefix):
            return iter(missing)
        return unused() if tie_free else iter(range(k + 1))

    def push(step: int) -> None:
        prefix.append(step)
        bisect.insort(used, step)

    def pop() -> None:
        del used[bisect.bisect_left(used, prefix.pop())]

    levels = [options()]
    while levels:
        step = next(levels[-1], None)
        if step is None:
            levels.pop()
            if prefix:
                pop()
            continue
        push(step)
        if len(prefix) < m - 1:
            levels.append(options())
            continue
        head = tuple(prefix)
        for last in options():
            yield (*head, last)
        pop()


def grid_pref_count(m: int, k: int, tie_free: bool = False) -> int:
    """Size of the :func:`enumerate_Rk_prefs` family, without enumerating it.
    With ties, (k+1)^m - 2*k^m + (k-1)^m by inclusion-exclusion; tie-free,
    two candidates take 0 and 1 and the other m-2 take distinct interior
    values out of k-1."""
    check_grid_shape(m, k, tie_free)
    if tie_free:
        return m * (m - 1) * math.perm(k - 1, m - 2)
    return (k + 1) ** m - 2 * k ** m + (k - 1) ** m


def ordinal_equivalent(u: Preference, v: Preference) -> bool:
    """True iff both preferences induce the same weak order, ties included."""
    if u.m != v.m:
        raise PreconditionError("preferences over different candidate sets")
    return _order_pattern(u) == _order_pattern(v)


def _order_pattern(pref: Preference) -> tuple[int, ...]:
    """Each candidate's level in the voter's weak order (0 = best): a new
    level starts wherever the value changes along :attr:`Preference.order`."""
    pattern = [0] * pref.m
    for level, (_, cands) in enumerate(
        itertools.groupby(pref.order, key=lambda c: pref.nums[c - 1])
    ):
        for cand in cands:
            pattern[cand - 1] = level
    return tuple(pattern)


@dataclass(frozen=True)
class SearchSpace:
    m: int
    n: int
    k: int
    tie_free: bool
    preference_count: int
    profile_count: int


@dataclass(frozen=True)
class TruthfulnessWitness:
    profile: Profile
    voter: int
    misreport: Preference
    honest_utility: Fraction
    misreport_utility: Fraction

    @property
    def gain(self) -> Fraction:
        return self.misreport_utility - self.honest_utility


@dataclass(frozen=True)
class OrdinalWitness:
    profile_a: Profile
    profile_b: Profile
    dist_a: CandidateDistribution
    dist_b: CandidateDistribution


@dataclass(frozen=True)
class SymmetryWitness:
    """Counterexample to neutrality or anonymity: the permutation, the
    distribution the property predicts, and the one actually produced."""

    profile: Profile
    permutation: tuple[int, ...]
    expected: CandidateDistribution
    actual: CandidateDistribution


@dataclass(frozen=True)
class WitnessReport:
    check: str
    mechanism: str
    search_space: SearchSpace
    witness: object | None = None

    @property
    def holds(self) -> bool:
        return self.witness is None


class _GridScan:
    """The one budget gate of every grid scan, and its shared state: the
    search space, the preference list and a distribution cache keyed by
    profiles encoded as preference-index tuples, or for a ballot scheme by
    ballot: the sorted ids of the keyed preferences' strict orders.  The
    constructor checks the budget once, before it builds the grid or any
    count past it: P**n keys for P grid preferences (with ``orbits``,
    C(P+n-1, n) sorted keys, one per voter-permutation orbit), each costing
    ``work(P)`` evaluations of ``mech.cost`` steps, must fit ``budget``, else
    ``BudgetError`` names ``what``; the count is kept as ``priced``.

    A count past 2**65536 prints as "at least 2**X", so a lower bound past it
    and above the budget refuses first.  Before P is counted: every walk
    visits P >= 2**(m-1) keys (the family holds the 2**m - 2 vectors over
    {0, k}, or P >= m! tie-free) and P >= base**(m-2) (candidates 1 and 2
    take 0 and k, each other one any of base = k+1 steps, or tie-free at
    least base = k-m+2 unused ones).  After, with b = P.bit_length() - 1:
    P**n >= 2**(n*b), and C(P+n-1, n) >= 2**min(n, P-1) and >= (P/n)**n >=
    2**(n*(b - n.bit_length())).

    The grid and the cache are built on first read, so a scan that ends at
    :meth:`ballot_report` builds neither."""

    def __init__(self, mech, m: int, n: int, k: int, tie_free: bool,
                 budget: int, what: str, work: Callable[[int], int], orbits: bool = False):
        if n < 1:
            raise PreconditionError(f"need at least one voter, got n={n}")
        check_grid_shape(m, k, tie_free)

        def refuse_past(least: int) -> None:
            if least > 65536 and budget.bit_length() <= least:  # budget < 2**least
                raise BudgetError(f"at least 2**{least}", budget, what)

        base = k - m + 2 if tie_free else k + 1
        refuse_past(max(m - 1, (m - 2) * (base.bit_length() - 1)))
        pref_count = grid_pref_count(m, k, tie_free)
        b = pref_count.bit_length() - 1
        refuse_past(max(min(n, pref_count - 1), n * (b - n.bit_length())) if orbits else n * b)
        key_count = math.comb(pref_count + n - 1, n) if orbits else pref_count ** n
        steps = key_count * work(pref_count) * mech.cost
        if steps > budget:
            raise BudgetError(steps, budget, what)
        self.mech, self.orbits, self.priced = mech, orbits, steps
        self.space = SearchSpace(m, n, k, tie_free, pref_count, pref_count ** n)

    @cached_view
    def prefs(self) -> list[Preference]:
        return list(enumerate_Rk_prefs(self.space.m, self.space.k, self.space.tie_free))

    def report(self, check: str, witness: object | None = None) -> WitnessReport:
        """The report of ``check`` on this grid: it holds unless given a witness."""
        return WitnessReport(check, self.mech.name, self.space, witness)

    def ballot_report(self, check: str) -> WitnessReport:
        """The report of ``check``, which a ballot scheme meets by
        construction: "holds", once the scheme evaluates the first key
        (0,)*n, the first profile the walk evaluates.  Only the first grid
        preference is built."""
        space = self.space
        first = next(enumerate_Rk_prefs(space.m, space.k, space.tie_free))
        self.mech.evaluate(Profile((first,) * space.n))
        return self.report(check)

    def profile(self, key: tuple[int, ...]) -> Profile:
        return Profile(tuple(map(self.prefs.__getitem__, key)))

    @cached_view
    def dist(self) -> Callable[[tuple[int, ...]], CandidateDistribution]:
        """The distribution at a key, evaluated once per cache slot; for a
        ballot scheme, ``ids`` numbers each grid preference's strict order.
        A closure over locals, as CPython 3.11 reads the attributes of a scan
        whose ``__dict__`` holds cached views more slowly."""
        ids, dists, evaluate, profile = None, {}, self.mech.evaluate, self.profile
        if self.mech.evaluate_ballot is not None:
            seen: dict[tuple[int, ...], int] = {}
            ids = [seen.setdefault(p.order, len(seen)) for p in self.prefs]

        def dist(key: tuple[int, ...]) -> CandidateDistribution:
            slot = key if ids is None else tuple(sorted(map(ids.__getitem__, key)))
            found = dists.get(slot)
            if found is None:
                found = dists[slot] = evaluate(profile(key))
            return found

        return dist

    def keys(self) -> Iterator[tuple[int, ...]]:
        indices = range(self.space.preference_count)
        if self.orbits:
            return itertools.combinations_with_replacement(indices, self.space.n)
        return itertools.product(indices, repeat=self.space.n)


def check_truthful(
    mech,
    m: int,
    n: int,
    k: int,
    tie_free: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> WitnessReport:
    """Exhaustively test expected-utility strategy-proofness on the grid.

    For every profile, voter, and grid misreport, the voter's exact expected
    utility under the honest report must be at least the expected utility
    under the misreport.  The first strict violation (in enumeration order)
    is returned with its exact positive gain; re-evaluating the mechanism on
    the witness reproduces the gain.

    A voter's outcomes depend only on the other voters' reports, so the scan
    decides "does any report beat the honest one?" once per (voter, others)
    group, for every honest type at once, as an exact integer comparison
    over the group's distinct distributions.  Profiles and voters are then
    walked in enumeration order; the first flagged (profile, voter) is
    replayed over its misreports in order with `Fraction` utilities, which
    yields the same witness as testing every misreport directly.

    A mechanism flagged ``anonymous`` is scanned one sorted key per
    voter-permutation orbit, with one group per multiset of the others'
    reports (see the module docstring); its budget counts C(P+n-1, n)*n*P
    work instead of P^n*n*P for P grid preferences.

    A ballot scheme whose stochastic-dominance work, C(m!+n-2, n-1) groups
    of m! outcomes on 2^m - 2 candidate sets times its ``cost``, is at most
    that priced work is first checked for the condition (see the module
    docstring).  The condition implies that no grid voter, at any k, with
    or without ties, gains by any misreport, so when it holds the scan
    returns "holds" without walking the grid; the report, which records the
    grid, is the one the walk would give.  When it fails the grid is walked
    as for any other scheme.
    """
    anonymous = mech.anonymous
    scan = _GridScan(mech, m, n, k, tie_free, budget, "truthfulness scan",
                     lambda p: n * p, orbits=anonymous)
    if (mech.evaluate_ballot is not None and _sd_steps(m, n) * mech.cost <= scan.priced
            and _sd_holds(mech, m, n)):
        return scan.report("truthful")
    pref_count = scan.space.preference_count

    def can_gain(voter: int, others: tuple[int, ...]) -> tuple[bool, ...]:
        # Entry h: some report gives honest type h (numerators s) strictly more
        # than its own, (s.v)/den > (s.own)/own.den as (s.v)*own.den > (s.own)*den.
        reported = (others[:voter] + (r,) + others[voter:] for r in range(pref_count))
        outcomes = [scan.dist(tuple(sorted(key)) if anonymous else key) for key in reported]
        distinct = {(d.den, d.nums) for d in outcomes}
        flags = []
        for honest_idx, own in enumerate(outcomes):
            s = scan.prefs[honest_idx].nums
            honest = sum(map(operator.mul, s, own.nums))
            flags.append(any(sum(map(operator.mul, s, v)) * own.den > honest * den
                             for den, v in distinct))
        return tuple(flags)

    groups: dict[tuple[int, tuple[int, ...]], tuple[bool, ...]] = {}
    for key in scan.keys():
        for voter in range(n):
            group = (0 if anonymous else voter, key[:voter] + key[voter + 1:])
            flags = groups.get(group)
            if flags is None:
                flags = groups[group] = can_gain(*group)
            if flags[key[voter]]:
                return scan.report("truthful", _first_truthfulness_witness(scan, key, voter))
    return scan.report("truthful")


def _sd_steps(m: int, n: int) -> int:
    """The work of :func:`_sd_holds` at (m, n), in the gate's units: each of
    the C(m!+n-2, n-1) groups of the other voters' orders compares m!
    outcomes on the 2**m - 2 nonempty proper candidate sets."""
    orders = math.factorial(m)
    return math.comb(orders + n - 2, n - 1) * orders * ((1 << m) - 2)


def _sd_holds(mech, m: int, n: int) -> bool:
    """Whether the ballot scheme meets Gibbard's stochastic-dominance
    condition at (m, n): for every multiset of the other n-1 voters' strict
    orders, every honest order h and every prefix of h, reporting h puts at
    least as much mass on the prefix as any strict report does.

    Strict orders are the m! permutations, ascending, so each sorted tuple
    of their indices is one ballot; each of the C(m!+n-1, n) ballots is
    evaluated once, at its first read.  Candidate sets are bitmasks (bit c-1
    for candidate c) and an outcome is kept as its denominator and the mass
    numerator of every set.  Per group the masses are scaled to the group's
    common denominator, the best of the m! reports is kept per set, and the
    walk stops at the first honest prefix that falls short of it."""
    orders = list(itertools.permutations(range(1, m + 1)))
    prefixes = [list(itertools.accumulate((1 << (c - 1) for c in order[:-1]), operator.or_))
                for order in orders]
    outcomes: dict[tuple[int, ...], tuple[int, list[int]]] = {}

    def outcome(key: tuple[int, ...]) -> tuple[int, list[int]]:
        found = outcomes.get(key)
        if found is None:
            runs = [(orders[i], len(list(run))) for i, run in itertools.groupby(key)]
            dist = mech.evaluate_ballot(Ballot(*map(tuple, zip(*runs))))
            mass = [0] * (1 << m)
            for s in range(1, 1 << m):
                low = s & -s
                mass[s] = mass[s ^ low] + dist.nums[low.bit_length() - 1]
            found = outcomes[key] = (dist.den, mass)
        return found

    for others in itertools.combinations_with_replacement(range(len(orders)), n - 1):
        rows = []
        for r in range(len(orders)):
            i = bisect.bisect_right(others, r)
            rows.append(outcome(others[:i] + (r,) + others[i:]))
        den = math.lcm(*{d for d, _ in rows})
        scaled = [mass if d == den else [x * (den // d) for x in mass] for d, mass in rows]
        best = list(map(max, *scaled))
        for mass, sets in zip(scaled, prefixes):
            for s in sets:
                if mass[s] < best[s]:
                    return False
    return True


def _first_truthfulness_witness(
    scan: _GridScan, key: tuple[int, ...], voter: int
) -> TruthfulnessWitness:
    """The first misreport, in preference order, that strictly raises the
    voter's exact expected utility at the profile encoded by key."""
    honest_idx = key[voter]
    pref = scan.prefs[honest_idx]

    def utility(profile_key: tuple[int, ...]) -> Fraction:
        d = scan.dist(profile_key)
        return Fraction(sum(map(operator.mul, d.nums, pref.nums)), d.den * pref.den)

    honest = utility(key)
    for mis_idx in range(len(scan.prefs)):
        if mis_idx == honest_idx:
            continue
        gained = utility(key[:voter] + (mis_idx,) + key[voter + 1:])
        if gained > honest:
            return TruthfulnessWitness(
                scan.profile(key), voter + 1, scan.prefs[mis_idx], honest, gained
            )
    raise RuntimeError(
        f"integer scan flagged voter {voter + 1} at profile {key} "
        "but no misreport gains under exact replay"
    )


def _weak_order_heads(prefs: list[Preference]) -> list[int]:
    """Entry i: the index of the first preference with preference i's weak
    order."""
    firsts: dict[tuple[int, ...], int] = {}
    return [firsts.setdefault(_order_pattern(p), i) for i, p in enumerate(prefs)]


def check_ordinal(
    mech,
    m: int,
    n: int,
    k: int,
    tie_free: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> WitnessReport:
    """Profiles whose voters induce identical weak orders must receive
    identical distributions.  Each profile is compared against the first
    member of its class, which the lexicographic scan has already evaluated.
    A ballot scheme is ordinal by construction (see the module docstring)."""
    scan = _GridScan(mech, m, n, k, tie_free, budget, "ordinal scan", lambda _: 1)
    if mech.evaluate_ballot is not None:
        return scan.ballot_report("ordinal")
    head = _weak_order_heads(scan.prefs)
    for key in scan.keys():
        dist = scan.dist(key)
        first = tuple(map(head.__getitem__, key))
        first_dist = scan.dist(first)
        if first_dist.den != dist.den or first_dist.nums != dist.nums:
            witness = OrdinalWitness(scan.profile(first), scan.profile(key), first_dist, dist)
            return scan.report("ordinal", witness)
    return scan.report("ordinal")


def check_neutral(
    mech,
    m: int,
    n: int,
    k: int,
    tie_free: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> WitnessReport:
    """Relabeling candidates must relabel the output distribution the same
    way: for every permutation tau, the distribution on the relabeled profile
    at candidate j must equal the original distribution at tau(j).  A ballot
    scheme is checked on one key per multiset of weak orders (see the module
    docstring)."""
    scan = _GridScan(mech, m, n, k, tie_free, budget, "neutrality scan",
                     lambda _: math.factorial(m))
    # relabel[i]: the index of grid preference i relabeled by tau, found by
    # its numerators, which fix a normalized preference; pick(nums) is
    # (nums[tau(1)-1], ..., nums[tau(m)-1]), the relabeled tuple.  The
    # identity permutation is skipped.
    index = {p.nums: i for i, p in enumerate(scan.prefs)}
    relabelings = []
    for tau in itertools.islice(itertools.permutations(range(1, m + 1)), 1, None):
        pick = operator.itemgetter(*(t - 1 for t in tau))
        relabelings.append((tau, pick, [index[pick(p.nums)] for p in scan.prefs]))
    if mech.evaluate_ballot is not None:
        heads = sorted(set(_weak_order_heads(scan.prefs)))
        keys = itertools.combinations_with_replacement(heads, n)
    else:
        keys = scan.keys()
    for key in keys:
        base = scan.dist(key)
        for tau, pick, relabel in relabelings:
            actual = scan.dist(tuple(map(relabel.__getitem__, key)))
            if actual.den != base.den or actual.nums != pick(base.nums):
                expected = CandidateDistribution(base.den, pick(base.nums))
                witness = SymmetryWitness(scan.profile(key), tau, expected, actual)
                return scan.report("neutral", witness)
    return scan.report("neutral")


def check_anonymous(
    mech,
    m: int,
    n: int,
    k: int,
    tie_free: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> WitnessReport:
    """Permuting voters must leave the output distribution unchanged.  A
    ballot scheme is anonymous by construction (see the module docstring)."""
    scan = _GridScan(mech, m, n, k, tie_free, budget, "anonymity scan",
                     lambda _: math.factorial(n))
    if mech.evaluate_ballot is not None:
        return scan.ballot_report("anonymous")
    # permute(key) is (key[sigma[0]], ..., key[sigma[n-1]]); the identity
    # permutation is skipped.
    moves = [(sigma, operator.itemgetter(*sigma))
             for sigma in itertools.islice(itertools.permutations(range(n)), 1, None)]
    for key in scan.keys():
        base = scan.dist(key)
        for sigma, permute in moves:
            actual = scan.dist(permute(key))
            if actual.den != base.den or actual.nums != base.nums:
                permutation = tuple(s + 1 for s in sigma)
                witness = SymmetryWitness(scan.profile(key), permutation, base, actual)
                return scan.report("anonymous", witness)
    return scan.report("anonymous")
