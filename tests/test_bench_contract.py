"""The benchmark tracer wraps package functions by name; renaming or deleting
any of them breaks ``bench/run.py --trace 1``.  Install the tracer in a fresh
interpreter (it patches module globals) and run one traced evaluation."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import cardvote, cardvote.cli
import tracer
t = tracer.install(cardvote)
mech = cardvote.mechanisms.j_star(8)
profile = cardvote.generators.gen_negative(8)
cardvote.core.ratio(mech, profile)
cardvote.bounds.all_q_ratios(profile)
layers = {span[1] for span in t.spans}
assert {"mechanisms.jstar", "mechanisms.j1q", "core.welfare",
        "bounds.all_q_ratios"} <= layers, layers
print("ok")
"""


def test_tracer_installs_on_current_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "bench"), str(ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
