"""The four benchmark workloads and the jobs each one runs.

Every job goes through the ``cardvote`` command line, invoked in-process on
the click group so a pass pays for interpreter start and imports once (that
is ``setup_s``).  The only library call is ``sample_stream``, because the CLI
has no sample command.

Each workload loads one part of the package and leaves another idle, so an
optimisation of that part shows on one workload and is predicted flat on
another; the reason for each sits beside its definition below.  The problem
shapes are fixed.

Every profile seed derives from the benchmark seed ``S``:

- lower sweep seeds ``4S .. 4S+3``;
- chain grid seeds ``100000*S + i`` for i = 0, 1, ..., skipping inputs where
  candidate 1 has zero welfare (as acceptance criterion 5 does);
- sample stream i (of 2) draws from ``gen_Dk`` with seed ``2S+i+1`` using
  stream seed ``2025+2S+i``; at S=0 the first is acceptance criterion 8's.

``tiny`` scale shrinks every job so the self-test runs each workload in
seconds; the benchmark itself always runs ``full``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Scan:
    """One ``cardvote verify`` job (its id is its argument list) and the exit
    code its verdict implies."""

    check: str
    mech: str
    m: int
    n: int
    k: int
    tie_free: bool
    code: int

    @property
    def job_id(self) -> str:
        flag = " --tie-free" if self.tie_free else ""
        return (f"verify {self.check} --mech {self.mech} "
                f"--m {self.m} --n {self.n} --k {self.k}{flag}")


MIX = "mix:1/3*j1:1+2/3*j1:2"

# truthful_grid: three scans that hold, so each enumerates 5,832 profiles x 3
# voters x 18 misreports; time goes to the check_truthful inner loop and to
# evaluate on 3x3 profiles, each distribution reused many times.  bounds and
# generators are idle.
TRUTHFUL_GRID = {
    "full": [Scan("truthful", mech, 3, 3, 3, False, 0) for mech in ("j2:3", "jstar", MIX)],
    "tiny": [Scan("truthful", mech, 3, 2, 3, False, 0) for mech in ("j2:3", "jstar", MIX)],
}

# mixed_scans: the same properties layer used differently: full scans with one
# distribution per profile and no utility cache, plus two scans that stop at a
# witness (exit 2).  A truthful-scan change that precomputes distributions or
# adds per-profile bookkeeping pays for it here and gains nothing.
MIXED_SCANS = {
    "full": [
        Scan("ordinal", "jstar", 3, 3, 3, False, 0),
        Scan("anonymous", "jstar", 3, 3, 3, False, 0),
        Scan("neutral", "jstar", 3, 3, 3, True, 0),
        Scan("neutral", "jstar", 3, 3, 3, False, 2),
        Scan("truthful", "rv", 3, 2, 10, False, 2),
    ],
    "tiny": [
        Scan("ordinal", "jstar", 3, 2, 2, False, 0),
        Scan("anonymous", "jstar", 3, 2, 2, False, 0),
        Scan("neutral", "jstar", 3, 2, 2, True, 0),
        Scan("neutral", "jstar", 3, 2, 2, False, 2),
        Scan("truthful", "rv", 3, 2, 10, False, 2),
    ],
}

# negative_sweep: a few large adversarial profiles (n up to 391), each used
# once; time goes to gen_negative and the O(n*m^2) pairwise count in
# all_q_ratios.  properties is idle and nothing is evaluated twice, so caching
# cannot help.  m=512 is left out: all_q_ratios alone takes about 15 s there.
NEGATIVE_MS = {"full": "27,64,125,216,343", "tiny": "8,27"}


@dataclass(frozen=True)
class LowerSweep:
    m: int
    n: int
    k: int
    step: int
    seeds_per_run: int


@dataclass(frozen=True)
class Chains:
    m: int
    n: int
    k: int
    count: int


@dataclass(frozen=True)
class Sampling:
    m: int
    k: int
    a: int
    b: int
    c: int
    draws: int
    streams: int


# structured_chain: medium profiles, each used once, in three parts: the
# lower-bound sweep (voter ordering, jstar evaluate, gbar_value), gen grid ->
# reduce -> project chains (both reductions, classify, profile file I/O) and
# seeded sampling.  The verify workloads barely touch these layers.  Sized so
# that each part takes about a third of the wall time (2-core x86, Python 3.11).
STRUCTURED = {
    "full": (LowerSweep(27, 81, 1728, 18, 4), Chains(8, 6, 64, 55),
             Sampling(8, 512, 3, 3, 2, 100_000, 2)),
    "tiny": (LowerSweep(8, 8, 512, 4, 1), Chains(8, 6, 64, 3),
             Sampling(8, 512, 3, 3, 2, 2_000, 1)),
}

CHAIN_SEED_STRIDE = 100_000

NAMES = ("truthful_grid", "mixed_scans", "negative_sweep", "structured_chain")


def lower_seeds(seed: int, sweep: LowerSweep) -> list[int]:
    return [sweep.seeds_per_run * seed + i for i in range(sweep.seeds_per_run)]


def sample_seeds(seed: int, sampling: Sampling) -> list[tuple[int, int]]:
    """(gen_Dk profile seed, stream seed) for each sample stream."""
    s = sampling.streams * seed
    return [(s + i + 1, 2025 + s + i) for i in range(sampling.streams)]
