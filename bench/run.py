"""cardvote benchmark entry point (README.md in this directory explains the
workloads, metrics and oracle).

Usage, from the repository root::

    python3 bench/run.py                         # all four workloads
    python3 bench/run.py --workload negative_sweep --seed 3 --seconds 30 --trace 0

Each pass of a workload runs in a fresh single-threaded child process
(``child.py``); one child runs at a time.  A run keeps starting passes while
the next one fits in ``--seconds`` (at least one) and reports medians:
end-to-end metrics with ``--trace 0``, per-layer self times, counters and the
tracing overhead with ``--trace 1``.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a record
of the run goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 6
# A run must end within 180 s; children get what is left of this.
RUN_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def _spawn(deadline: float, workload: str, seed: int, scale: str, expected: str | None,
           trace: int, setup_only: bool = False,
           spans: Path | None = None) -> tuple[float, float, dict | None]:
    """Run one child; returns (setup seconds normalized to reference speed,
    raw setup seconds, the child's result or None)."""
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
           "--scale", scale, "--trace", str(trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if expected is not None:
        cmd += ["--expected", expected]
    # Same environment whoever calls: fixed hashing, one thread, and bytecode
    # caches written (by the warm-up child) as an installed package has them.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    before = speed.burst()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - start
        setup_normalized = setup * speed.factor(before + speed.burst())
        if line.strip() != "ready":
            proc.kill()
            _, err = proc.communicate()
            raise ChildFailed(f"{workload}: child did not get ready: {line!r} {err[-2000:]}")
        out, err = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{workload}: child exceeded the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: child exited {proc.returncode}: {err[-2000:]}")
    result = None if setup_only else json.loads(out.strip().splitlines()[-1])
    return setup_normalized, setup, result


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def summary(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit,
            "quartiles": quartiles(values), "values": values}


def measure(workload: str, seed: int, seconds: float, trace: int, scale: str,
            expected: str | None = None) -> dict:
    """One benchmark run of one workload: every pass, every metric."""
    started = time.perf_counter()
    budget_end, deadline = started + seconds, started + RUN_LIMIT_S
    spawn = lambda **kw: _spawn(deadline, workload, seed, scale, expected, **kw)  # noqa: E731

    spawn(trace=0, setup_only=True)  # fills bytecode caches; not measured
    setups = [] if trace else [spawn(trace=0, setup_only=True)[:2] for _ in range(SETUP_PROBES)]
    passes, durations = [], []
    baseline = None
    if trace:
        t = time.perf_counter()
        baseline = spawn(trace=0)[2]
        durations.append(time.perf_counter() - t)
    spans = OUT / f"{workload}-{scale}-seed{seed}-spans.csv.gz" if trace else None
    while True:
        t = time.perf_counter()
        setup, raw_setup, result = spawn(trace=trace, spans=spans)
        durations.append(time.perf_counter() - t)
        setups.append((setup, raw_setup))
        passes.append(result)
        if time.perf_counter() + statistics.median(durations) > budget_end:
            break

    all_results = passes + ([baseline] if baseline else [])
    attempted = sum(r["jobs"] for r in all_results)
    failures = [f for r in all_results for f in r["failed"]]
    metrics = {}
    if trace:
        layer_names = sorted(passes[0]["trace"])
        for name in layer_names:
            values = [r["trace"][name] for r in passes]
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = summary(values, unit)
            if unit == "count":
                metrics[name]["value"] = values[0]
                if len(set(values)) != 1:
                    failures.append({"id": name, "problems": [f"counter not deterministic: {values}"]})
        metrics["properties.evals_per_profile"]["unit"] = "ratio"
        metrics["cli.report_bytes"]["unit"] = "B"
        overhead = [r["wall_s"] - baseline["wall_s"] for r in passes]
        metrics["trace.overhead_s"] = summary(overhead, "s")
    else:
        for name, unit in END_TO_END.items():
            values = [s[0] for s in setups] if name == "setup_s" else [r[name] for r in passes]
            metrics[name] = summary(values, unit)
    return {
        "workload": workload, "seed": seed, "trace": trace, "scale": scale, "seconds": seconds,
        "context": run_context(),
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:20],
        "metrics": metrics,
        "passes": [{k: v for k, v in r.items() if k != "failed"} for r in passes],
        "untraced_pass": baseline,
        "setup_samples": [{"setup_s": s, "raw_setup_s": raw} for s, raw in setups],
        "elapsed_s": time.perf_counter() - started,
    }


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def print_record(record: dict) -> None:
    name = record["workload"]
    for metric, m in record["metrics"].items():
        q1, _, q3 = m["quartiles"]
        print(f"{name:17s} {metric:32s} {m['value']:14.6f} {m['unit']:6s} "
              f"[q1 {q1:.6f}, q3 {q3:.6f}, n={len(m['values'])}]")
    print(f"{name:17s} {'error_rate':32s} {record['error_rate']:14.6f} {'fraction':6s} "
          f"[{record['failed']} of {record['attempted']} jobs]")
    for failure in record["failures"]:
        print(f"FAILED {name}: {failure['id']}: {'; '.join(failure['problems'])}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cardvote benchmark")
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny shrinks every job; used by selftest.py")
    parser.add_argument("--expected", help="recorded extracts to check against instead of "
                                           "bench/expected/<workload>.json")
    args = parser.parse_args(argv)
    # On SIGTERM unwind like on Ctrl-C, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "cardvote" / "cli.py").is_file():
        print(f"no cardvote sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = measure(name, args.seed, args.seconds, args.trace, args.scale, args.expected)
        except ChildFailed as e:
            print(f"benchmark run failed: {e}", file=sys.stderr)
            return 1
        records.append(record)
        path = OUT / f"{name}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print_record(record)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    prefix = (lambda r: "") if len(records) == 1 else (lambda r: r["workload"] + ".")
    metrics = {prefix(r) + name: {"value": m["value"], "unit": m["unit"]}
               for r in records for name, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
