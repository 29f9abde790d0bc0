"""Acceptance suite: one test per criterion, exact tolerances pinned inline.

Each test prints a single PASS line on success (run pytest with -s to see
them); a failure surfaces as an ordinary assertion error.
"""

import math
from fractions import Fraction

from cardvote.bounds import (
    gbar_value,
    lower_bound_experiment,
    project_to_Dk_trace,
    reduce_to_Ck_trace,
    rounded,
    upper_bound_experiment,
)
from cardvote.cli import fit_slope
from cardvote.core import Preference, Profile, ratio, welfare
from cardvote.errors import UndefinedRatioError
from cardvote.generators import DkParams, gen_Dk, gen_cyclic, rand_grid_profile
from cardvote.mechanisms import (
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
from cardvote.properties import check_truthful, enumerate_Rk_prefs, ordinal_equivalent
from cardvote.bounds import classify

F = Fraction


def swap_voter(profile: Profile, i: int, new: Preference) -> Profile:
    """The profile with voter i's (1-indexed) preference replaced by ``new``."""
    return Profile(profile.prefs[:i - 1] + (new,) + profile.prefs[i:])


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number}: {name}: PASS")


def test_criterion_1_truthfulness_suite():
    grids = [(2, 2, 2), (2, 3, 2), (3, 2, 3), (3, 3, 3), (4, 2, 3), (3, 4, 3), (3, 5, 3)]
    for m, n, k in grids:
        mechs = [
            j1q(1),
            j1q(2),
            j2q(2),
            j2q(3),
            j2q(4),
            j_star(m),
            mix([(F(1, 3), j1q(1)), (F(2, 3), j1q(2))]),
        ]
        for mech in mechs:
            report = check_truthful(mech, m, n, k)
            assert report.holds, (
                f"{mech.name} manipulable at (m={m}, n={n}, k={k}): "
                f"{report.witness}"
            )
    _report(1, "truthfulness holds for all listed schemes on all seven grids")


def test_criterion_2_range_voting_manipulable():
    report = check_truthful(range_voting(), 3, 2, 10)
    assert not report.holds
    w = report.witness
    assert w.gain > 0
    # Replay the witness from scratch.
    mech = range_voting()
    voter_pref = w.profile.prefs[w.voter - 1]
    honest = sum(
        p * v for p, v in zip(mech.evaluate(w.profile).probs, voter_pref.values)
    )
    manipulated_profile = swap_voter(w.profile, w.voter, w.misreport)
    gained = sum(
        p * v
        for p, v in zip(mech.evaluate(manipulated_profile).probs, voter_pref.values)
    )
    assert honest == w.honest_utility
    assert gained == w.misreport_utility
    assert gained - honest == w.gain > 0
    _report(2, f"range voting witness replays with exact gain {w.gain}")


def test_criterion_3_negative_result():
    ms = [27, 64, 125, 216]
    results = upper_bound_experiment(ms)
    assert [m for m, _, _ in results] == ms
    maxima = []
    for m, j1, j2 in results:
        root = integer_cbrt(m)
        assert root**3 == m
        cap = F(6, root * root)  # 6 * m^(-2/3), exact for cube m
        ratios = [*j1.values(), *j2.values()]
        assert set(j1) == set(range(1, m + 1))
        for r in ratios:
            assert r <= cap
        maxima.append((m, max(ratios)))
    slope, _residual = fit_slope(maxima)
    assert -0.80 <= slope <= -0.55
    _report(3, f"all ratios <= 6*m^(-2/3); max-ratio log-log slope {slope:.3f}")


def test_criterion_4_lower_bound():
    violations = 0
    overall = []
    for m in (8, 27):
        floor_cap = F(1, 8 * integer_cbrt(m) ** 2)  # (1/8) * m^(-2/3)
        for n in (m, 3 * m):
            step = -(-n // 10)
            rows = lower_bound_experiment(m, n, 64 * m, step, seeds=[0, 1, 2, 3, 4])
            assert rows, "empty sweep"
            for row in rows:
                if row.gbar < row.bound:
                    violations += 1
            sweep_min = min(row.gbar for row in rows)
            assert sweep_min >= floor_cap
            overall.append((m, n, sweep_min))
    assert violations == 0
    _report(4, f"bound holds exactly on every sweep point; minima {overall}")


def test_criterion_5_reduction_chain():
    m, n, k = 8, 6, 64
    mech = j_star(m)
    accepted = 0
    seed = 0
    undefined_inputs = 0
    while accepted < 200:
        profile = rand_grid_profile(m, n, k, seed)
        seed += 1
        if welfare(profile, 1) == 0:
            continue  # benchmark functional needs a positive denominator
        accepted += 1

        trace = reduce_to_Ck_trace(profile, k)
        assert trace.anomalies == ()
        for s in trace.steps:
            assert s.g_after <= s.g_before
        for p in trace.result.prefs:
            assert classify(p, k).in_Ck
        assert mech.evaluate(trace.result) == mech.evaluate(profile)

        reduced = trace.result
        try:
            gbar_before = gbar_value(reduced)
        except UndefinedRatioError:
            undefined_inputs += 1
            gbar_before = None
        ptrace = project_to_Dk_trace(reduced, k)
        for p in ptrace.result.prefs:
            assert classify(p, k).in_Dk
        for mv in ptrace.moves:
            if mv.kept:
                continue
            swapped = swap_voter(reduced, mv.voter, mv.after)
            assert mech.evaluate(swapped) == mech.evaluate(reduced)  # (1)
            before_bits, after_bits = rounded(mv.before), rounded(mv.after)
            assert after_bits[0] >= before_bits[0]  # (2)
            assert all(a <= b for a, b in zip(after_bits[1:], before_bits[1:]))  # (3)
        if gbar_before is not None:
            assert gbar_value(ptrace.result) <= gbar_before
    _report(
        5,
        f"200 chains clean over {seed} draws "
        f"({undefined_inputs} rounded-denominator-free inputs)",
    )


def test_criterion_6_symmetrization_never_lowers_worst_case():
    import itertools

    m, n, k = 3, 2, 2
    prefs = list(enumerate_Rk_prefs(m, k, tie_free=True))
    family = [Profile(tuple(rows)) for rows in itertools.product(prefs, repeat=n)]
    assert len(family) == 36
    for base in (constant_winner(1), j1q(1)):
        sym = symmetrize(base, m, n)
        plain_min = min(ratio(base, u) for u in family)
        sym_min = min(ratio(sym, u) for u in family)
        assert sym_min >= plain_min, base.name
    _report(6, "relabel-averaging never lowers the worst-case ratio at (3,2,2)")


def test_criterion_7_normalization_necessity():
    for m in (5, 10, 20):
        eps = F(1, m**3)
        mech = j_star(m)
        profiles = [gen_cyclic(m, star, eps) for star in range(1, m + 1)]
        cap = F(1, m) + m * m * eps
        assert min(ratio(mech, u) for u in profiles) <= cap
        for a, b in zip(profiles, profiles[1:]):
            for i in range(m):
                assert ordinal_equivalent(a.prefs[i], b.prefs[i])
    _report(7, "cyclic families are ordinally identical with ratio <= 1/m + m^2*eps")


def test_criterion_8_sampling_consistency():
    profile = gen_Dk(DkParams(m=8, k=512, a=3, b=3, c=2), seed=1)
    mech = j_star(8)
    dist = mech.evaluate(profile)
    draws = 100_000
    samples = sample_stream(mech, profile, draws, seed=2025)
    counts = [0] * 8
    for winner in samples:
        counts[winner - 1] += 1
    worst_sigma = 0.0
    for j in range(8):
        p = float(dist.probs[j])
        sigma = math.sqrt(p * (1 - p) / draws)
        deviation = abs(counts[j] / draws - p)
        if sigma == 0.0:
            assert counts[j] == 0
        else:
            assert deviation <= 3 * sigma
            worst_sigma = max(worst_sigma, deviation / sigma)
    _report(8, f"empirical frequencies within 3 sigma (worst {worst_sigma:.2f})")
