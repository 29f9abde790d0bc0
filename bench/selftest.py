"""Self-test of the benchmark itself, at tiny sizes (about a minute)::

    python3 bench/selftest.py

1. Every workload runs once with ``--trace 0`` and once with ``--trace 1``;
   the last output line must carry exactly the end-to-end, respectively
   per-layer, metrics named in BENCHMARK.json, with no failed job.
2. The tiny negative sweep is recorded and checked against its own
   recording (error_rate 0), then against a copy with one exact ratio
   changed, which must drive error_rate above 0.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def run(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--scale", "tiny",
                           "--seed", "0", "--seconds", "1", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    return result


def child(*args: str) -> None:
    workdir = BENCH / "out" / "selftest-work"
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), "--scale", "tiny",
                           "--seed", "0", "--workdir", str(workdir), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    shutil.rmtree(workdir, ignore_errors=True)
    assert proc.returncode == 0, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.NAMES)
    for name in workloads.NAMES:
        for trace in (0, 1):
            result = run("--workload", name, "--trace", str(trace))
            assert set(result["metrics"]) == wanted[trace], (name, trace, set(result["metrics"]) ^ wanted[trace])
            for metric in result["metrics"].values():
                assert isinstance(metric["value"], (int, float)) and metric["unit"], metric
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            print(f"ok {name} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} jobs")

    recorded = BENCH / "out" / "selftest-expected.json"
    child("--workload", "negative_sweep", "--record", str(recorded))
    result = run("--workload", "negative_sweep", "--expected", str(recorded))
    assert result["correct"] and result["failed"] == 0, result

    data = json.loads(recorded.read_text())
    (job,) = data["jobs"].values()
    key = sorted(job["rows"])[0]
    job["rows"][key] = str(Fraction(job["rows"][key]) + Fraction(1, 10**9))
    wrong = BENCH / "out" / "selftest-wrong.json"
    wrong.write_text(json.dumps(data))
    result = run("--workload", "negative_sweep", "--expected", str(wrong))
    assert not result["correct"] and result["failed"] / result["attempted"] > 0, result
    print(f"ok wrong expected ratio for {key}: error_rate "
          f"{result['failed'] / result['attempted']:.3f}")
    recorded.unlink()
    wrong.unlink()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
