"""One pass of one workload, in a fresh single-threaded process.

Started by ``run.py``; not meant to be run by hand except to record expected
results::

    python3 bench/child.py --workload negative_sweep --seed 0 \\
        --workdir bench/out/work --record bench/expected/negative_sweep.json

Protocol: after importing ``cardvote.cli`` (and, with ``--trace 1``, wrapping
its layers) and writing the job manifest into ``--workdir``, the child prints
``ready``.  It then runs every job of the workload, checks each job's exact
results, and prints one JSON line with its measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402  (bench/ is on sys.path as the script's directory)
import speed  # noqa: E402
import workloads as wl  # noqa: E402


class Runner:
    """Runs jobs of one pass and keeps what the oracle needs from each."""

    def __init__(self, cli, workdir: Path, tracer=None):
        self.cli = cli
        self.workdir = workdir
        self.tracer = tracer
        self.jobs: list[dict] = []

    def _start(self, job: dict) -> dict:
        if self.tracer is not None:
            self.tracer.job = len(self.jobs)
        self.jobs.append(job)
        return job

    def command(self, job_id: str, kind: str, argv: list[str], suffix: str = ".json", **extra) -> dict:
        """Run one ``cardvote`` invocation writing its report to a file."""
        out = str(self.workdir / f"job{len(self.jobs)}{suffix}")
        job = self._start({"id": job_id, "kind": kind, "out": out, **extra})
        try:
            self.cli.main.main(args=argv + ["--out", out], prog_name="cardvote",
                               standalone_mode=True)
            job["code"] = 0
        except SystemExit as stop:
            job["code"] = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
        except Exception:  # a traceback, which the real command exits 1 on
            job["code"], job["error"] = 1, traceback.format_exc(limit=-3)
        return job

    def scans(self, scans: list[wl.Scan]) -> None:
        for scan in scans:
            self.command(scan.job_id, "scan", scan.job_id.split(), expect_code=scan.code)

    def negative(self, ms: str) -> None:
        self.command(f"experiment negative --m {ms}", "negative",
                     ["experiment", "negative", "--m", ms], suffix=".csv")

    def lower(self, sweep: wl.LowerSweep, seeds: list[int]) -> None:
        seeds_text = ",".join(map(str, seeds))
        argv = ["experiment", "lower", "--m", str(sweep.m), "--n", str(sweep.n),
                "--k", str(sweep.k), "--grid-step", str(sweep.step), "--seeds", seeds_text]
        self.command(" ".join(argv), "lower", argv, suffix=".csv",
                     params={"n": sweep.n, "step": sweep.step, "seeds": seeds})

    def chains(self, chains: wl.Chains, seed: int) -> None:
        """gen grid -> reduce -> project, skipping inputs where candidate 1
        has zero welfare."""
        params = {"m": chains.m, "n": chains.n, "k": chains.k}
        accepted = attempts = 0
        while accepted < chains.count and attempts < 4 * chains.count:
            grid_seed = wl.CHAIN_SEED_STRIDE * seed + attempts
            attempts += 1
            gen = self.command(
                f"gen grid --m {chains.m} --n {chains.n} --k {chains.k} --seed {grid_seed}", "gen",
                ["gen", "grid", "--m", str(chains.m), "--n", str(chains.n), "--k", str(chains.k),
                 "--seed", str(grid_seed)], params=params)
            if gen["code"] != 0:
                continue
            profile = json.loads(Path(gen["out"]).read_text())
            if all(row[0][0] == 0 for row in profile["prefs"]):
                continue
            accepted += 1
            reduce = self.command(f"reduce --k {chains.k} [grid seed {grid_seed}]", "reduce",
                                  ["reduce", "--profile", gen["out"], "--k", str(chains.k)],
                                  params=params, input=oracle.profile_rows(profile))
            if reduce["code"] != 0:
                continue
            reduced = self.workdir / f"job{len(self.jobs)}-input.json"
            reduced.write_text(json.dumps(json.loads(Path(reduce["out"]).read_text())["result"]))
            self.command(f"project --k {chains.k} [grid seed {grid_seed}]", "project",
                         ["project", "--profile", str(reduced), "--k", str(chains.k)],
                         params=params)

    def sample(self, spec: wl.Sampling, seed: int) -> None:
        from cardvote import generators, mechanisms

        for profile_seed, stream_seed in wl.sample_seeds(seed, spec):
            job = self._start({"id": f"sample_stream jstar gen_Dk seed {profile_seed} "
                                     f"stream seed {stream_seed} draws {spec.draws}",
                               "kind": "sample"})
            try:
                params = generators.DkParams(m=spec.m, k=spec.k, a=spec.a, b=spec.b, c=spec.c)
                profile = generators.gen_Dk(params, profile_seed)
                job["draws"] = mechanisms.sample_stream(
                    mechanisms.j_star(spec.m), profile, spec.draws, stream_seed)
                job["profile"] = [pref.values for pref in profile.prefs]
                job["code"] = 0
            except Exception:
                job["code"], job["error"] = 1, traceback.format_exc(limit=-3)


def run_workload(runner: Runner, name: str, seed: int, scale: str) -> dict:
    """Run every job; returns wall seconds per part for the record."""
    parts = {}
    clock = time.perf_counter
    if name == "truthful_grid":
        runner.scans(wl.TRUTHFUL_GRID[scale])
    elif name == "mixed_scans":
        runner.scans(wl.MIXED_SCANS[scale])
    elif name == "negative_sweep":
        runner.negative(wl.NEGATIVE_MS[scale])
    elif name == "structured_chain":
        sweep, chains, sampling = wl.STRUCTURED[scale]
        t = clock()
        runner.lower(sweep, wl.lower_seeds(seed, sweep))
        parts["lower"], t = clock() - t, clock()
        runner.chains(chains, seed)
        parts["chains"], t = clock() - t, clock()
        runner.sample(sampling, seed)
        parts["sample"] = clock() - t
    else:
        raise ValueError(f"unknown workload {name!r}")
    return parts


def load_expected(path: Path) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["jobs"]


def write_record(path: Path, args, extracts: dict) -> None:
    """Recorded extracts as JSON with one job per line."""
    lines = [f"{json.dumps(job_id)}: {json.dumps(fields, sort_keys=True)}"
             for job_id, fields in extracts.items()]
    head = json.dumps({"workload": args.workload, "seed": args.seed, "scale": args.scale})[:-1]
    path.write_text(head + ', "jobs": {\n' + ",\n".join(lines) + "\n}}\n")


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def check(jobs: list[dict], expected: dict) -> tuple[list[dict], dict]:
    """Oracle verdict per job, plus the extracts for recording."""
    bounds_by_abc = oracle.recorded_bounds(expected)
    outcomes, extracts = [], {}
    for job in jobs:
        fields = oracle.extract(job)
        extracts[job["id"]] = oracle.pinned(fields)
        found = oracle.problems(job, fields, expected.get(job["id"]), bounds_by_abc)
        outcomes.append({"id": job["id"], "problems": found})
    return outcomes, extracts


def output_counters(jobs: list[dict]) -> dict:
    """Bytes the CLI wrote and CSV data rows it reported."""
    report_bytes = rows = 0
    for job in jobs:
        out = job.get("out")
        if out and os.path.exists(out):
            report_bytes += os.path.getsize(out)
            if out.endswith(".csv"):
                with open(out) as fh:
                    rows += sum(1 for line in fh if not line.startswith("#")) - 1
    return {"cli.report_bytes": report_bytes, "cli.report_rows": rows}


def trace_metrics(tracer, counters: dict, scale: float) -> dict:
    metrics = {f"{layer}.self_s": s * scale for layer, s in tracer.self_seconds().items()}
    evaluations, under_scan = tracer.outermost_evaluations()
    profiles = tracer.counts["properties.profiles"]
    metrics.update({
        "core.order.calls": tracer.calls("core.order"),
        "bounds.classify.calls": tracer.calls("bounds.classify"),
        "mechanisms.evaluate.calls": evaluations,
        "properties.profiles": profiles,
        "properties.evals_per_profile": under_scan / profiles if profiles else 0.0,
        "bounds.reduce.steps": tracer.counts["bounds.reduce.steps"],
        "trace.spans": len(tracer.spans),
        **counters,
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file for the traced spans (gzip CSV)")
    parser.add_argument("--expected", help="recorded extracts; default bench/expected/<workload>.json")
    parser.add_argument("--record", help="write this pass's extracts to the given file")
    args = parser.parse_args(argv)

    import cardvote
    import cardvote.cli

    if Path(cardvote.__file__).resolve().parent != ROOT / "src" / "cardvote":
        print(f"cardvote imported from {cardvote.__file__}, not this checkout", file=sys.stderr)
        return 1
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install(cardvote)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "manifest.json").write_text(json.dumps(vars(args), sort_keys=True))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(cardvote.cli, workdir, tracer)
    with speed.Sampler() as sampler:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        parts = run_workload(runner, args.workload, args.seed, args.scale)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    rss = peak_rss_mb()
    scale = sampler.factor()

    expected_path = Path(args.expected) if args.expected else BENCH / "expected" / f"{args.workload}.json"
    outcomes, extracts = check(runner.jobs, load_expected(expected_path))
    if args.record:
        write_record(Path(args.record), args, extracts)
    result = {
        "wall_s": (wall - sampler.spent) * scale, "cpu_s": (cpu - sampler.spent) * scale,
        "peak_rss_mb": rss, "raw_wall_s": wall, "raw_cpu_s": cpu, "speed_factor": scale,
        "speed_samples": len(sampler.samples), "parts": parts,
        "jobs": len(outcomes),
        "failed": [o for o in outcomes if o["problems"]],
        "counters": output_counters(runner.jobs),
    }
    if tracer is not None:
        result["trace"] = trace_metrics(tracer, result["counters"], scale)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
