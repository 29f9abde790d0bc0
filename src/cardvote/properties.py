"""Exhaustive, exact verifiers for scheme classifications over finite grid
preference spaces.

Every checker enumerates a finite grid family of normalized preferences and
either certifies the property over that family or returns a concrete,
replayable counterexample.  A "holds" verdict is always relative to the
enumerated grid, never a universal claim; the report records the search
space.

Enumeration order is fixed so that the first witness is reproducible:
preferences are ordered lexicographically by their value tuple (candidate 1
most significant, grid values ascending), profiles lexicographically with
voter 1 most significant, voters are scanned in ascending order and
misreports in preference order.  The profile space splits into disjoint
lexicographic ranges, so the scan could be partitioned across workers and
the minimum-lexicographic witness recovered by reduction; the implementation
here is single-threaded.

The truthfulness scan decides in integer arithmetic whether a voter can gain
at all: utilities as grid steps, each distribution as its own integer
numerators over its denominator (``CandidateDistribution.den``/``.nums``),
two utilities compared by cross-multiplying, once per (voter, other voters'
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
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core import CandidateDistribution, Preference, Profile, dot, grid_steps
from .errors import BudgetError, PreconditionError

DEFAULT_BUDGET = 10_000_000


def enumerate_Rk_prefs(m: int, k: int, tie_free: bool = False) -> Iterator[Preference]:
    """Yield every normalized preference with utilities on the 1/k grid.

    The family contains each function from candidates to {0, 1/k, ..., 1}
    whose image includes both 0 and 1; with ``tie_free`` the values must also
    be pairwise distinct (the R_k family).  The ties-allowed count is
    (k+1)^m - 2*k^m + (k-1)^m by inclusion-exclusion.
    """
    grid_pref_count(m, k, tie_free)  # validates the arguments
    for steps in itertools.product(range(k + 1), repeat=m):
        if 0 not in steps or k not in steps:
            continue
        if tie_free and len(set(steps)) != m:
            continue
        yield Preference.from_steps(steps, k)


def grid_count_with_ties(m: int, k: int) -> int:
    """Closed form for the ties-allowed family size."""
    return (k + 1) ** m - 2 * k ** m + (k - 1) ** m


def grid_pref_count(m: int, k: int, tie_free: bool = False) -> int:
    """Size of the :func:`enumerate_Rk_prefs` family, without enumerating it.
    Tie-free, two candidates take 0 and 1 and the other m-2 take distinct
    interior values out of k-1."""
    if k < 1:
        raise PreconditionError(f"grid resolution k must be >= 1, got {k}")
    if m < 2:
        raise PreconditionError(f"need at least 2 candidates, got m={m}")
    if tie_free and k < m - 1:
        raise PreconditionError(
            f"k={k} cannot host {m} distinct grid values in [0, 1]"
        )
    if tie_free:
        return m * (m - 1) * math.perm(k - 1, m - 2)
    return grid_count_with_ties(m, k)


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
        itertools.groupby(pref.order, key=lambda c: pref.values[c - 1])
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
    expected: CandidateDistribution | None
    actual: CandidateDistribution


@dataclass(frozen=True)
class WitnessReport:
    check: str
    mechanism: str
    holds: bool
    search_space: SearchSpace
    witness: object | None = None

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "violated"

    def to_json_dict(self) -> dict:
        out = {
            "check": self.check,
            "mechanism": self.mechanism,
            "verdict": self.verdict,
            "search_space": {
                "m": self.search_space.m,
                "n": self.search_space.n,
                "k": self.search_space.k,
                "tie_free": self.search_space.tie_free,
                "preference_count": self.search_space.preference_count,
                "profile_count": self.search_space.profile_count,
            },
        }
        w = self.witness
        if isinstance(w, TruthfulnessWitness):
            out["witness"] = {
                "profile": _profile_json(w.profile),
                "voter": w.voter,
                "misreport": [str(v) for v in w.misreport.values],
                "honest_utility": str(w.honest_utility),
                "misreport_utility": str(w.misreport_utility),
                "gain": str(w.gain),
            }
        elif isinstance(w, OrdinalWitness):
            out["witness"] = {
                "profile_a": _profile_json(w.profile_a),
                "profile_b": _profile_json(w.profile_b),
                "dist_a": [str(p) for p in w.dist_a.probs],
                "dist_b": [str(p) for p in w.dist_b.probs],
            }
        elif isinstance(w, SymmetryWitness):
            out["witness"] = {
                "profile": _profile_json(w.profile),
                "permutation": list(w.permutation),
                "expected": None if w.expected is None
                else [str(p) for p in w.expected.probs],
                "actual": [str(p) for p in w.actual.probs],
            }
        return out


def _profile_json(profile: Profile) -> list[list[str]]:
    return [[str(v) for v in p.values] for p in profile.prefs]


class _GridScan:
    """Shared enumeration state: the preference list and a distribution cache
    keyed by profiles encoded as preference-index tuples.  The grid's size
    comes from its closed form, so a check compares its work with the budget
    before its first read of ``prefs`` enumerates the grid."""

    def __init__(self, mech, m: int, n: int, k: int, tie_free: bool):
        if n < 1:
            raise PreconditionError(f"need at least one voter, got n={n}")
        self.mech = mech
        self.pref_count = grid_pref_count(m, k, tie_free)
        self.m, self.n, self.k, self.tie_free = m, n, k, tie_free
        self._dist: dict[tuple[int, ...], CandidateDistribution] = {}
        self._prefs: list[Preference] | None = None

    @property
    def prefs(self) -> list[Preference]:
        if self._prefs is None:
            self._prefs = list(enumerate_Rk_prefs(self.m, self.k, self.tie_free))
        return self._prefs

    @property
    def profile_count(self) -> int:
        return self.pref_count ** self.n

    def space(self) -> SearchSpace:
        return SearchSpace(
            self.m, self.n, self.k, self.tie_free, self.pref_count, self.profile_count
        )

    def profile(self, key: tuple[int, ...]) -> Profile:
        return Profile(tuple(self.prefs[i] for i in key))

    def dist(self, key: tuple[int, ...]) -> CandidateDistribution:
        found = self._dist.get(key)
        if found is None:
            found = self.mech.evaluate(self.profile(key))
            self._dist[key] = found
        return found

    def keys(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(range(self.pref_count), repeat=self.n)


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
    """
    scan = _GridScan(mech, m, n, k, tie_free)
    pref_count = scan.pref_count
    anonymous = mech.anonymous
    key_count = math.comb(pref_count + n - 1, n) if anonymous else scan.profile_count
    work = key_count * n * pref_count
    if work > budget:
        raise BudgetError(work, budget, "truthfulness scan")

    # Utilities scaled by k: grid value s/k becomes the integer s.
    steps = [grid_steps(p, k) for p in scan.prefs]

    def can_gain(voter: int, others: tuple[int, ...]) -> tuple[bool, ...]:
        # Entry h: some report gives honest type h strictly more than its own,
        # (s.v)/den > (s.own)/own.den compared as (s.v)*own.den > (s.own)*den.
        reported = (others[:voter] + (r,) + others[voter:] for r in range(pref_count))
        outcomes = [scan.dist(tuple(sorted(key)) if anonymous else key) for key in reported]
        distinct = {(d.den, d.nums) for d in outcomes}
        flags = []
        for honest_idx, own in enumerate(outcomes):
            s = steps[honest_idx]
            honest = sum(map(operator.mul, s, own.nums))
            flags.append(any(sum(map(operator.mul, s, v)) * own.den > honest * den
                             for den, v in distinct))
        return tuple(flags)

    # Both walks copy range(pref_count) into a tuple, so they start only
    # after the budget check.
    keys = (itertools.combinations_with_replacement(range(pref_count), n)
            if anonymous else scan.keys())
    groups: dict[tuple[int, tuple[int, ...]], tuple[bool, ...]] = {}
    for key in keys:
        for voter in range(n):
            group = (0 if anonymous else voter, key[:voter] + key[voter + 1:])
            flags = groups.get(group)
            if flags is None:
                flags = groups[group] = can_gain(*group)
            if flags[key[voter]]:
                witness = _first_truthfulness_witness(scan, key, voter)
                return WitnessReport("truthful", mech.name, False, scan.space(), witness)
    return WitnessReport("truthful", mech.name, True, scan.space())


def _first_truthfulness_witness(
    scan: _GridScan, key: tuple[int, ...], voter: int
) -> TruthfulnessWitness:
    """The first misreport, in preference order, that strictly raises the
    voter's exact expected utility at the profile encoded by key."""
    honest_idx = key[voter]
    values = scan.prefs[honest_idx].values

    def utility(profile_key: tuple[int, ...]) -> Fraction:
        return dot(scan.dist(profile_key).probs, values)

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


def check_ordinal(
    mech,
    m: int,
    n: int,
    k: int,
    tie_free: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> WitnessReport:
    """Profiles whose voters induce identical weak orders must receive
    identical distributions.  Profiles are grouped by their per-voter order
    pattern; each is compared against the first member of its class."""
    scan = _GridScan(mech, m, n, k, tie_free)
    if scan.profile_count > budget:
        raise BudgetError(scan.profile_count, budget, "ordinal scan")
    patterns = [_order_pattern(p) for p in scan.prefs]
    seen: dict[tuple, tuple[tuple[int, ...], CandidateDistribution]] = {}
    for key in scan.keys():
        signature = tuple(patterns[i] for i in key)
        dist = scan.dist(key)
        first = seen.get(signature)
        if first is None:
            seen[signature] = (key, dist)
        elif first[1] != dist:
            witness = OrdinalWitness(
                scan.profile(first[0]), scan.profile(key), first[1], dist
            )
            return WitnessReport("ordinal", mech.name, False, scan.space(), witness)
    return WitnessReport("ordinal", mech.name, True, scan.space())


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
    at candidate j must equal the original distribution at tau(j)."""
    scan = _GridScan(mech, m, n, k, tie_free)
    work = scan.profile_count * math.factorial(m)
    if work > budget:
        raise BudgetError(work, budget, "neutrality scan")
    perms = list(itertools.permutations(range(1, m + 1)))
    pref_index = {p.values: i for i, p in enumerate(scan.prefs)}
    for key in scan.keys():
        base = scan.dist(key)
        for tau in perms[1:]:  # identity is trivially fine
            relabeled_key = tuple(
                pref_index[tuple(scan.prefs[i].values[tau[j] - 1] for j in range(m))]
                for i in key
            )
            actual = scan.dist(relabeled_key)
            expected = CandidateDistribution(
                base.den, tuple(base.nums[tau[j] - 1] for j in range(m))
            )
            if actual != expected:
                witness = SymmetryWitness(scan.profile(key), tau, expected, actual)
                return WitnessReport(
                    "neutral", mech.name, False, scan.space(), witness
                )
    return WitnessReport("neutral", mech.name, True, scan.space())


def check_anonymous(
    mech,
    m: int,
    n: int,
    k: int,
    tie_free: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> WitnessReport:
    """Permuting voters must leave the output distribution unchanged."""
    scan = _GridScan(mech, m, n, k, tie_free)
    work = scan.profile_count * math.factorial(n)
    if work > budget:
        raise BudgetError(work, budget, "anonymity scan")
    perms = list(itertools.permutations(range(n)))
    for key in scan.keys():
        base = scan.dist(key)
        for sigma in perms[1:]:
            permuted_key = tuple(key[sigma[i]] for i in range(n))
            actual = scan.dist(permuted_key)
            if actual != base:
                witness = SymmetryWitness(
                    scan.profile(key),
                    tuple(s + 1 for s in sigma),
                    base,
                    actual,
                )
                return WitnessReport(
                    "anonymous", mech.name, False, scan.space(), witness
                )
    return WitnessReport("anonymous", mech.name, True, scan.space())
