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
profile = cardvote.generators.gen_negative(8)
for mech in (cardvote.mechanisms.j_star(8), cardvote.mechanisms.j1q(2)):
    cardvote.core.ratio(mech, profile)
cardvote.bounds.all_q_ratios(profile)
layers = {span[1] for span in t.spans}
assert {"mechanisms.jstar", "mechanisms.j1q", "core.welfare",
        "bounds.all_q_ratios"} <= layers, layers
# The bounds module builds its stacked lottery through the module-global
# factory, so the wrapped one records the evaluation as a jstar span.
def jstar_spans():
    return sum(1 for span in t.spans if span[1] == "mechanisms.jstar")
before = jstar_spans()
cardvote.bounds.gbar_value(cardvote.generators.rand_grid_profile(8, 3, 64, 0))
assert jstar_spans() > before, "gbar_value's stacked lottery was not traced"
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
