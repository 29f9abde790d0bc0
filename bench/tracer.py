"""Span tracing of the package's layers from outside the package.

:func:`install` replaces the public functions of ``core``, ``mechanisms``,
``properties``, ``generators``, ``bounds`` and the ``cli`` command callbacks
with wrappers that record one span per call: job, layer, start, end and
parent span.  Nothing under ``src/`` changes.

Each module binds its own copy of an imported name (``mechanisms.top_q_set``,
``bounds.descending_order``, ``bounds.ratio_of``, ``cli._CHECKS[...]``), so
every module attribute and module-level dict value that is one of the wrapped
functions is replaced, not only the defining module's.  Evaluators are closures
built by the factories ``j1q``, ``j2q``, ``mix``, ``j_star`` and
``range_voting``; the factories are wrapped so that each mechanism they return
carries a traced ``evaluate``.

A call made while a span of the same layer is innermost (``descending_order``
calling ``top_q_set``, ``reduce_to_Ck`` calling its trace variant) is folded
into that span.  Spans stay in memory; :meth:`Tracer.write` stores them when
the pass ends.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import time
from collections import Counter

LAYERS = {
    "core.order": ("core", ["descending_order", "top_q_set"]),
    "core.welfare": ("core", ["welfare", "welfare_vector", "welfare_report", "ratio", "rv_winner"]),
    "core.io": ("core", ["profile_to_json_dict", "profile_from_json_dict",
                         "profile_to_csv_text", "profile_from_csv_text"]),
    "mechanisms.sample": ("mechanisms", ["sample", "sample_stream"]),
    "properties.scan": ("properties", ["check_truthful", "check_ordinal",
                                       "check_neutral", "check_anonymous"]),
    "generators.gen_negative": ("generators", ["gen_negative"]),
    "generators.gen_Dk": ("generators", ["gen_Dk"]),
    "generators.rand_grid": ("generators", ["rand_grid_profile"]),
    "bounds.all_q_ratios": ("bounds", ["all_q_ratios"]),
    "bounds.gbar_value": ("bounds", ["gbar_value"]),
    "bounds.reduce": ("bounds", ["reduce_to_Ck_trace", "reduce_to_Ck"]),
    "bounds.project": ("bounds", ["project_to_Dk_trace", "project_to_Dk"]),
    "bounds.classify": ("bounds", ["classify"]),
    "bounds.experiment": ("bounds", ["upper_bound_experiment", "lower_bound_experiment"]),
}

# Factory name -> layer of the evaluate closure it returns.
EVALUATORS = {
    "j1q": "mechanisms.j1q",
    "j2q": "mechanisms.j2q",
    "mix": "mechanisms.mix",
    "j_star": "mechanisms.jstar",
    "range_voting": "mechanisms.rv",
}
EVALUATE_LAYERS = frozenset(EVALUATORS.values())
CLI_LAYER = "cli"
SELF_TIMED = sorted(set(LAYERS) | EVALUATE_LAYERS | {CLI_LAYER})


class Tracer:
    """In-memory span recorder.  A span is ``[job, layer, start_ns, end_ns,
    parent]`` with ``parent`` the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][1] == layer:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [self.job, layer, clock(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def self_seconds(self) -> dict[str, float]:
        """Per-layer span time minus the time covered by child spans."""
        child_ns = [0] * len(self.spans)
        for job, layer, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = dict.fromkeys(SELF_TIMED, 0)
        for (job, layer, start, end, parent), covered in zip(self.spans, child_ns):
            totals[layer] += end - start - covered
        return {layer: ns / 1e9 for layer, ns in totals.items()}

    def calls(self, layer: str) -> int:
        return sum(1 for span in self.spans if span[1] == layer)

    def outermost_evaluations(self) -> tuple[int, int]:
        """(distributions requested, of which inside a property scan).

        Only evaluate spans without an evaluate ancestor count: a mixture's
        component evaluations are part of one distribution."""
        spans = self.spans
        total = under_scan = 0
        for span in spans:
            if span[1] not in EVALUATE_LAYERS:
                continue
            parent, nested, scanned = span[4], False, False
            while parent >= 0:
                layer = spans[parent][1]
                if layer in EVALUATE_LAYERS:
                    nested = True
                    break
                scanned = scanned or layer == "properties.scan"
                parent = spans[parent][4]
            if not nested:
                total += 1
                under_scan += scanned
        return total, under_scan

    def write(self, path: str) -> None:
        """Store every span as ``job,layer,start_ns,end_ns,parent`` lines."""
        with gzip.open(path, "wt") as fh:
            fh.write("job,layer,start_ns,end_ns,parent\n")
            for job, layer, start, end, parent in self.spans:
                fh.write(f"{job},{layer},{start},{end},{parent}\n")


def _replace_everywhere(modules, original, replacement) -> None:
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def install(package) -> Tracer:
    """Wrap the layers of an imported ``cardvote`` package (with its ``cli``
    module loaded) and return the tracer that records their spans."""
    tracer = Tracer()
    mods = {name: getattr(package, name)
            for name in ("core", "mechanisms", "properties", "generators", "bounds", "cli")}
    everywhere = [package, *mods.values()]

    def count(key, measure):
        def hook(result):
            tracer.counts[key] += measure(result)
        return hook

    hooks = {
        "properties.scan": count("properties.profiles", lambda r: r.search_space.profile_count),
        "bounds.reduce": count("bounds.reduce.steps",
                               lambda r: len(r.steps) if hasattr(r, "steps") else 0),
    }
    for layer, (module, names) in LAYERS.items():
        for name in names:
            original = getattr(mods[module], name)
            wrapped = tracer.wrap(layer, original, hooks.get(layer))
            _replace_everywhere(everywhere, original, wrapped)

    def traced_factory(factory, layer):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            mech = factory(*args, **kwargs)
            return dataclasses.replace(mech, evaluate=tracer.wrap(layer, mech.evaluate))
        return build

    for name, layer in EVALUATORS.items():
        original = getattr(mods["mechanisms"], name)
        _replace_everywhere(everywhere, original, traced_factory(original, layer))

    def commands(group):
        for command in group.commands.values():
            if hasattr(command, "commands"):
                yield from commands(command)
            else:
                yield command

    for command in commands(mods["cli"].main):
        command.callback = tracer.wrap(CLI_LAYER, command.callback)
    return tracer
