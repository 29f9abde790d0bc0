"""Command-line entry point wiring generators, mechanisms, checkers and
experiments into reproducible runs.

This is the one module that renders reports: the others return plain data.
Reports are fully determined by the invocation (seeds included): the parsed
configuration, a plain dict, is echoed into every report and no timestamps
or environment data are emitted, so reruns are byte-identical.  Exact
rationals appear next to any decimal rendering (decimals use 12 significant
digits).

Exit codes: 0 success, 2 a property check found a violation, 1 any error.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Iterable, Sequence

import click

from . import bounds, core, generators, mechanisms, properties
from .errors import BudgetError, CardvoteError, DataError, PreconditionError


def _dec(f) -> str:
    return format(float(f), ".12g")


def _rational(text: str, option: str) -> Fraction:
    try:
        return core.parse_rational(text)
    except (ValueError, ZeroDivisionError) as e:
        raise DataError(f"{option} must be an exact rational, got {text!r}") from e


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _json_report(
    config: dict, body: dict, out: str | None, records: dict[str, str] | None = None
) -> None:
    _emit(_json_text({"config": config, **body}, records or {}), out)


def _json_text(report: dict, records: dict[str, str]) -> str:
    """``json.dumps({**report, **records}, indent=2, sort_keys=True) + "\n"``,
    written one top-level key at a time.  ``records`` holds values already
    rendered; every other value goes through ``json.dumps`` and is indented
    one level.  With ``indent`` set, ``json.dumps`` runs CPython's pure-Python
    encoder, too slow only where a report holds thousands of values, so only
    whole profiles (``_PAIR``) and ``reduce``'s steps (``_STEP``, g values
    from the integers of the trace's slide runs) are written from templates."""
    texts = {key: json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
             for key, value in report.items()}
    texts.update(records)
    return "{\n" + ",\n".join(f"  {_quote(key)}: {texts[key]}" for key in sorted(texts)) + "\n}\n"


def _array(items, pad: str) -> str:
    """A JSON array of rendered items, laid out as ``json.dumps(indent=2)``
    lays out an array whose closing bracket is indented by ``pad``."""
    text = (",\n  " + pad).join(items)
    return f"[\n  {pad}{text}\n{pad}]" if text else "[]"


# One reduce step, keys sorted, at the depth of an element of a top-level
# array.  A chain writes tens of thousands, so steps and profile pairs are
# the only templates.  Direction and voter are filled in once per run, which
# leaves the slots of g_after, g_before and the run.
_STEP = """{
      "direction": %s,
      "g_after": %%s,
      "g_before": %%s,
      "run": [
        %%d,
        %%d
      ],
      "voter": %d
    }"""


def _ratio_text(numer: int, denom: int) -> str:
    """``str(Fraction(numer, denom))`` for a positive ``denom``, quoted: one
    ``math.gcd``, and no ``/1`` when the reduced denominator is 1."""
    g = math.gcd(numer, denom)
    return '"%d/%d"' % (numer // g, denom // g) if g != denom else '"%d"' % (numer // g)


def _steps_array(runs) -> str:
    """The ``steps`` array of a ``reduce`` report, written from a trace's
    :class:`~cardvote.bounds.SlideRun` records: each step's run and
    ``g_after`` from :meth:`~cardvote.bounds.SlideRun.slides`, the latter by
    ``_ratio_text``, and its ``g_before`` as the text before it."""

    def rendered():
        for r in runs:
            step = _STEP % (_quote(r.direction).replace("%", "%%"), r.voter)
            text = _ratio_text(r.numer, r.den * r.denom)
            for lo, hi, numer, denom in r.slides():
                before, text = text, _ratio_text(numer, denom)
                yield step % (text, before, lo, hi)

    return _array(rendered(), "  ")


# One utility of a profile, [numerator, denominator], at the depth of a pair
# inside a top-level profile value.
_PAIR = """[
          %d,
          %d
        ]"""


def _profile_record(profile: core.Profile) -> str:
    """``core.profile_to_json_dict(profile)`` as a top-level report value,
    laid out as ``json.dumps(indent=2)`` lays it out, with every utility
    written from the ``_PAIR`` template."""
    voters = (_array((_PAIR % (v.numerator, v.denominator) for v in p.values), "      ")
              for p in profile.prefs)
    return '{\n    "m": %d,\n    "n": %d,\n    "prefs": %s\n  }' % (
        profile.m, profile.n, _array(voters, "    "))


def _csv_report(config: dict, header: Sequence[str], rows: Iterable[Iterable],
                out: str | None) -> None:
    """A CSV table under a ``# config:`` line: the header, then one line per
    row of values in the header's order.  A table built as dicts passes its
    first row's keys (every command writes at least one row)."""
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), out)


def _load_profile(path: str) -> core.Profile:
    try:
        text = Path(path).read_text()
        if path.endswith(".csv"):
            return core.profile_from_csv_text(text)
        data = json.loads(text)
    except OSError as e:  # e.g. a directory, which click.Path(exists=True) accepts
        raise DataError(f"cannot read profile {path}: {e}") from e
    except (ValueError, RecursionError) as e:
        # ValueError covers undecodable bytes, malformed JSON and integers
        # past int()'s digit limit; RecursionError, nesting past the decoder's.
        raise DataError(f"cannot parse profile {path}: {e}") from e
    return core.profile_from_json_dict(data)


def _profile_body(profile: core.Profile, fmt: str) -> str:
    if fmt == "csv":
        return core.profile_to_csv_text(profile)
    return json.dumps(core.profile_to_json_dict(profile), sort_keys=True) + "\n"


class _Main(click.Group):
    """Root group: a usage error and every command's ``CardvoteError`` exit 1
    with ``Error: ...``, not click's 2, which here means a violation."""

    def make_context(self, info_name, args, parent=None, **extra):
        try:
            return super().make_context(info_name, args, parent, **extra)
        except click.UsageError as e:
            e.exit_code = 1
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as e:  # a subcommand's own parsing
            e.exit_code = 1
            raise
        except CardvoteError as e:
            raise click.ClickException(str(e)) from e


@click.group(cls=_Main)
def main():
    """Exact evaluation of truthful cardinal voting schemes."""


@main.command("eval")
@click.option("--mech", "spec", required=True, help="Mechanism spec, e.g. jstar or mix:1/2*j1:1+1/2*j1:2")
@click.option("--profile", "profile_path", required=True, type=click.Path(exists=True))
@click.option("--out", default=None, type=click.Path())
def eval_cmd(spec: str, profile_path: str, out: str | None):
    """Evaluate a mechanism on a profile: distribution, welfares, ratio."""
    profile = _load_profile(profile_path)
    mech = mechanisms.parse_mechanism(spec, profile.m, profile.n)
    dist = mech.evaluate(profile)
    report = core.welfare_report(profile, dist)
    body = {
        "mechanism": mech.name,
        "distribution": {
            "exact": [str(p) for p in dist.probs],
            "decimal": [_dec(p) for p in dist.probs],
        },
        "welfares": {
            "exact": [str(w) for w in report.welfares],
            "decimal": [_dec(w) for w in report.welfares],
        },
        "rv_winner": report.rv_winner,
        "expected_welfare": {"exact": str(report.expected), "decimal": _dec(report.expected)},
        "ratio": {"exact": str(report.ratio), "decimal": _dec(report.ratio)},
    }
    if mech.q is not None:
        body["quota_in_range"] = mech.q in mechanisms.j2q_quota_range(profile.n)
    _json_report({"subcommand": "eval", "mech": spec, "profile": profile_path}, body, out)


@main.command("ratio")
@click.option("--mech", "spec", required=True)
@click.option("--profile", "profile_path", required=True, type=click.Path(exists=True))
@click.option("--out", default=None, type=click.Path())
def ratio_cmd(spec: str, profile_path: str, out: str | None):
    """Welfare ratio of a mechanism on a profile."""
    profile = _load_profile(profile_path)
    mech = mechanisms.parse_mechanism(spec, profile.m, profile.n)
    value = core.ratio(mech, profile)
    _json_report(
        {"subcommand": "ratio", "mech": spec, "profile": profile_path},
        {"mechanism": mech.name, "ratio": {"exact": str(value), "decimal": _dec(value)}},
        out,
    )


# ---------------------------------------------------------------------------
# gen


@main.group()
def gen():
    """Emit profiles from the built-in generators."""


@gen.command("negative")
@click.option("--m", required=True, type=int)
@click.option("--repeat", default=1, type=int, show_default=True)
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv"]))
@click.option("--out", default=None, type=click.Path())
def gen_negative_cmd(m: int, repeat: int, fmt: str, out: str | None):
    """Adversarial profile capping top-q and pairwise-quota schemes."""
    _emit(_profile_body(generators.gen_negative(m, repeat), fmt), out)


@gen.command("dk")
@click.option("--m", required=True, type=int)
@click.option("--k", required=True, type=int)
@click.option("--a", required=True, type=int)
@click.option("--b", required=True, type=int)
@click.option("--c", required=True, type=int)
@click.option("--n", default=None, type=int, help="Optional cross-check; must equal a+b+c.")
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv"]))
@click.option("--out", default=None, type=click.Path())
def gen_dk_cmd(m, k, a, b, c, n, seed, fmt, out):
    """Seeded profile with voters in the three structured two-block classes."""
    if n is not None and n != a + b + c:
        raise click.ClickException(f"n={n} does not match a+b+c={a + b + c}")
    profile = generators.gen_Dk(generators.DkParams(m=m, k=k, a=a, b=b, c=c), seed)
    _emit(_profile_body(profile, fmt), out)


@gen.command("cyclic")
@click.option("--m", required=True, type=int)
@click.option("--star", required=True, type=int)
@click.option("--eps", required=True, help="Exact rational, e.g. 1/1000.")
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv"]))
@click.option("--out", default=None, type=click.Path())
def gen_cyclic_cmd(m, star, eps, fmt, out):
    """Cyclic-order profile with a single large utility at the starred voter."""
    _emit(_profile_body(generators.gen_cyclic(m, star, _rational(eps, "--eps")), fmt), out)


@gen.command("grid")
@click.option("--m", required=True, type=int)
@click.option("--n", required=True, type=int)
@click.option("--k", required=True, type=int)
@click.option("--seed", default=0, type=int, show_default=True)
@click.option("--ties/--tie-free", "ties", default=False, show_default=True)
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv"]))
@click.option("--out", default=None, type=click.Path())
def gen_grid_cmd(m, n, k, seed, ties, fmt, out):
    """Uniformly sampled normalized grid profile."""
    profile = generators.rand_grid_profile(m, n, k, seed, tie_free=not ties)
    _emit(_profile_body(profile, fmt), out)


# ---------------------------------------------------------------------------
# verify


_CHECKS = {
    "truthful": properties.check_truthful,
    "ordinal": properties.check_ordinal,
    "neutral": properties.check_neutral,
    "anonymous": properties.check_anonymous,
}


def _field(value):
    """One record field as JSON data, by its type: every exact value is
    written by ``str``, a profile as one row per voter."""
    if isinstance(value, core.Profile):
        return [_field(pref) for pref in value.prefs]
    if isinstance(value, core.Preference):
        return [str(v) for v in value.values]
    if isinstance(value, core.CandidateDistribution):
        return [str(p) for p in value.probs]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def _record(obj) -> dict:
    """A dataclass record (search space, witness, move) as JSON data."""
    return {f.name: _field(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def _verify_body(report: properties.WitnessReport) -> dict:
    """The body of a ``verify`` report: the verdict, the search space and a
    violation's witness, field by field, with a truthfulness witness's gain."""
    body = {
        "check": report.check,
        "mechanism": report.mechanism,
        "verdict": "holds" if report.holds else "violated",
        "search_space": _record(report.search_space),
    }
    w = report.witness
    if w is not None:
        body["witness"] = _record(w)
        if isinstance(w, properties.TruthfulnessWitness):
            body["witness"]["gain"] = str(w.gain)
    return body


@main.group()
def verify():
    """Exhaustive property checks over grid families (exit 2 on violation)."""


def _verify_command(name: str):
    @verify.command(name)
    @click.option("--mech", "spec", required=True)
    @click.option("--m", required=True, type=int)
    @click.option("--n", required=True, type=int)
    @click.option("--k", required=True, type=int)
    @click.option("--tie-free", is_flag=True, default=False)
    @click.option("--budget", default=properties.DEFAULT_BUDGET, type=int, show_default=True)
    @click.option("--out", default=None, type=click.Path())
    @click.pass_context
    def run(ctx, spec, m, n, k, tie_free, budget, out):
        mech = mechanisms.parse_mechanism(spec, m, n)
        report = _CHECKS[name](mech, m, n, k, tie_free=tie_free, budget=budget)
        config = {"subcommand": f"verify {name}", "mech": spec, "m": m, "n": n, "k": k,
                  "tie_free": tie_free, "budget": budget}
        _json_report(config, _verify_body(report), out)
        if not report.holds:
            ctx.exit(2)

    run.__doc__ = f"Check {name} over the enumerated grid family."
    return run


for _name in _CHECKS:
    _verify_command(_name)


# ---------------------------------------------------------------------------
# experiment


@main.group()
def experiment():
    """Reproducible experiment sweeps with exact values in every row."""


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok]
    except ValueError as e:
        raise click.ClickException(f"bad integer list {text!r}") from e
    if not values:
        raise PreconditionError(f"integer list {text!r} is empty")
    return values


@experiment.command("negative")
@click.option("--m", "ms_text", required=True, help="Comma-separated m values, e.g. 27,64,125.")
@click.option("--repeat", default=1, type=int, show_default=True)
@click.option("--out", default=None, type=click.Path())
def experiment_negative(ms_text: str, repeat: int, out: str | None):
    """Ratios of every top-q and pairwise-quota scheme on adversarial profiles."""
    ms = _int_list(ms_text)
    results = bounds.upper_bound_experiment(ms, repeat)

    def lines():
        # Every distinct ratio of one m is rendered once: most quotas share
        # a ratio, so its text and float conversions are reused.
        for m, j1, j2 in results:
            rendered = {}
            reference = m ** (-2.0 / 3.0)
            reference_text = format(reference, ".12g")
            for scheme, ratios in (("j1", j1), ("j2", j2)):
                for q, ratio in ratios.items():
                    exact = ratio.numerator, ratio.denominator  # a Fraction's hash costs a pow
                    texts = rendered.get(exact)
                    if texts is None:
                        value = float(ratio)
                        texts = rendered[exact] = (
                            str(ratio), format(value, ".12g"),
                            reference_text, format(value / reference, ".12g"))
                    yield (m, scheme, q, *texts)

    header = ("m", "scheme", "q", "ratio", "ratio_decimal", "m_pow_minus_2_3",
              "ratio_over_reference")
    _csv_report({"subcommand": "experiment negative", "m": ms, "repeat": repeat},
                header, lines(), out)


@experiment.command("lower")
@click.option("--m", required=True, type=int)
@click.option("--n", required=True, type=int)
@click.option("--k", required=True, type=int)
@click.option("--grid-step", "step", required=True, type=int)
@click.option("--seeds", default="0,1,2,3,4", show_default=True)
@click.option("--out", default=None, type=click.Path())
def experiment_lower(m, n, k, step, seeds, out):
    """Rounded benchmark values of structured profiles against the bound."""
    seed_list = _int_list(seeds)
    rows = bounds.lower_bound_experiment(m, n, k, step, seed_list)
    out_rows = [
        {
            "a": r.a,
            "b": r.b,
            "c": r.c,
            "seed": r.seed,
            "gbar": str(r.gbar),
            "gbar_decimal": _dec(r.gbar),
            "bound": str(r.bound),
            "bound_decimal": _dec(r.bound),
            "slack": str(r.slack),
            "ok": r.slack >= 0,
        }
        for r in rows
    ]
    config = {"subcommand": "experiment lower", "m": m, "n": n, "k": k, "grid_step": step,
              "seeds": seed_list}
    _csv_report(config, list(out_rows[0]), map(dict.values, out_rows), out)


# Work bound of ``experiment cyclic``: each m builds m profiles of m voters
# with m values each, m**3 values in all.
CYCLIC_BUDGET = 1_000_000


@experiment.command("cyclic")
@click.option("--m", "ms_text", required=True, help="Comma-separated m values (n = m).")
@click.option("--eps", default=None, help="Exact rational; defaults to 1/m^3 per m.")
@click.option("--out", default=None, type=click.Path())
def experiment_cyclic(ms_text: str, eps: str | None, out: str | None):
    """Ratio of the stacked-lottery scheme on every starred cyclic profile.
    The sum of m**3 over the m values must fit ``CYCLIC_BUDGET``, checked
    before any profile is built."""
    ms = _int_list(ms_text)
    work = sum(abs(m) ** 3 for m in ms)
    if work > CYCLIC_BUDGET:
        raise BudgetError(work, CYCLIC_BUDGET, "cyclic sweep")
    rows = []
    for m in ms:
        mech = mechanisms.j_star(m)  # rejects m < 2 before 1/m^3 is built
        eps_m = _rational(eps, "--eps") if eps else Fraction(1, m ** 3)
        profiles = [generators.gen_cyclic(m, star, eps_m) for star in range(1, m + 1)]
        # Equivalence is transitive, so comparing with the first profile
        # decides every pair.
        equivalent = all(
            properties.ordinal_equivalent(profile.prefs[i], profiles[0].prefs[i])
            for profile in profiles
            for i in range(m)
        )
        bound = Fraction(1, m) + m * m * eps_m
        for star, profile in enumerate(profiles, start=1):
            r = core.ratio(mech, profile)
            rows.append(
                {
                    "m": m,
                    "star": star,
                    "eps": str(eps_m),
                    "ratio": str(r),
                    "ratio_decimal": _dec(r),
                    "bound": str(bound),
                    "within_bound": r <= bound,
                    "all_orderings_equivalent": equivalent,
                }
            )
    _csv_report({"subcommand": "experiment cyclic", "m": ms_text, "eps": eps},
                list(rows[0]), map(dict.values, rows), out)


def _grid_family(m: int, n: int, k: int, tie_free: bool, first: int):
    """The grid profiles in enumeration order.  The first B profiles of
    ``product(prefs, repeat=n)`` use only the first B grid preferences, so
    at most ``first`` = B are listed (fewer when the family runs out), once
    ``min_ratio_search`` reads the first profile: after it has checked the
    budget B.  The family size P is never counted."""
    prefs = list(itertools.islice(properties.enumerate_Rk_prefs(m, k, tie_free), first))
    yield from map(core.Profile, itertools.product(prefs, repeat=n))


@experiment.command("minratio")
@click.option("--mech", "spec", required=True)
@click.option("--m", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--tie-free", is_flag=True, default=False)
@click.option("--profile", "profile_path", type=click.Path(exists=True), default=None)
@click.option("--budget", default=1_000_000, type=int, show_default=True)
@click.option("--out", default=None, type=click.Path())
def experiment_minratio(spec, m, n, k, tie_free, profile_path, budget, out):
    """Minimal exact ratio over a grid family or a single profile file."""
    if profile_path and (tie_free or (m, n, k) != (None, None, None)):
        raise PreconditionError("give --profile or the grid flags --m/--n/--k/--tie-free, not both")
    if profile_path:
        family = [_load_profile(profile_path)]
        mech = mechanisms.parse_mechanism(spec, family[0].m, family[0].n)
    elif None not in (m, n, k):
        if n < 1:
            raise PreconditionError(f"need at least one voter, got n={n}")
        core.check_grid_shape(m, k, tie_free)  # rejects bad m, k before the budget
        mech = mechanisms.parse_mechanism(spec, m, n)
        family = _grid_family(m, n, k, tie_free, budget)
    else:
        raise click.ClickException("provide either --profile or all of --m/--n/--k")
    result = bounds.min_ratio_search(mech, family, budget)
    config = {"subcommand": "experiment minratio", "mech": spec, "m": m, "n": n, "k": k,
              "tie_free": tie_free, "profile": profile_path, "budget": budget}
    _json_report(
        config,
        {
            "mechanism": mech.name,
            "min_ratio": {"exact": str(result.ratio), "decimal": _dec(result.ratio)},
            "visited": result.visited,
        },
        out,
        {"argmin_profile": _profile_record(result.profile)},
    )


# ---------------------------------------------------------------------------
# reduce / project / fit


@main.command("reduce")
@click.option("--profile", "profile_path", required=True, type=click.Path(exists=True))
@click.option("--k", required=True, type=int)
@click.option("--out", default=None, type=click.Path())
def reduce_cmd(profile_path: str, k: int, out: str | None):
    """Slide interior image blocks until every voter is two-block."""
    trace = bounds.reduce_to_Ck_trace(_load_profile(profile_path), k)
    body = {
        "g_initial": str(trace.g_initial),
        "g_final": str(trace.g_final),
        "anomalies": list(trace.anomalies),
    }
    _json_report({"subcommand": "reduce", "profile": profile_path, "k": k}, body, out,
                 {"result": _profile_record(trace.result), "steps": _steps_array(trace.runs)})


@main.command("project")
@click.option("--profile", "profile_path", required=True, type=click.Path(exists=True))
@click.option("--k", required=True, type=int)
@click.option("--out", default=None, type=click.Path())
def project_cmd(profile_path: str, k: int, out: str | None):
    """Project two-block voters onto the structured classes."""
    trace = bounds.project_to_Dk_trace(_load_profile(profile_path), k)
    _json_report(
        {"subcommand": "project", "profile": profile_path, "k": k},
        {"moves": [_record(mv) for mv in trace.moves]},
        out,
        {"result": _profile_record(trace.result)},
    )


def fit_slope(points: list[tuple[int, Fraction]]) -> tuple[float, float]:
    """Least-squares slope of log(ratio) against log(m), plus the sum of
    squared residuals."""
    if len(points) < 3:
        raise DataError(f"need at least 3 points, got {len(points)}")
    ms = [m for m, _ in points]
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise DataError("m values must be strictly increasing")
    for m, r in points:
        if m < 1:
            raise DataError(f"nonpositive m {m}")
        if r <= 0:
            raise DataError(f"nonpositive ratio {r}")
    xs = [math.log(m) for m, _ in points]
    try:
        ys = [math.log(float(r)) for _, r in points]
    except (OverflowError, ValueError) as e:  # float() overflows, or underflows to 0
        raise DataError(f"ratio outside the range of a float: {e}") from e
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    var = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / var
    intercept = ybar - slope * xbar
    residual = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    return slope, residual


@main.command("fit")
@click.option("--data", "data_path", required=True, type=click.Path(exists=True),
              help="CSV with columns m and ratio (exact p/q or decimal).")
@click.option("--aggregate", type=click.Choice(["none", "max", "min"]), default="none",
              show_default=True,
              help="Collapse multiple rows per m before fitting.")
@click.option("--out", default=None, type=click.Path())
def fit_cmd(data_path: str, aggregate: str, out: str | None):
    """Log-log slope of ratio against m."""
    raw: list[tuple[int, Fraction]] = []
    try:
        with open(data_path, newline="") as fh:
            lines = [line for line in fh if not line.startswith("#")]
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read fit data {data_path}: {e}") from e
    try:
        rows = list(csv.DictReader(io.StringIO("".join(lines))))
    except csv.Error as e:  # e.g. a bare carriage return, or a field past the size limit
        raise DataError(f"fit data {data_path} is malformed CSV: {e}") from e
    for row in rows:
        try:
            raw.append((int(row["m"]), core.parse_rational(row["ratio"])))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            raise DataError(f"bad fit row {row!r}") from e
    if aggregate == "none":
        points = raw
    else:
        pick = max if aggregate == "max" else min
        by_m: dict[int, Fraction] = {}
        for m, r in raw:
            by_m[m] = r if m not in by_m else pick(by_m[m], r)
        points = sorted(by_m.items())
    slope, residual = fit_slope(points)
    _json_report(
        {"subcommand": "fit", "data": data_path, "aggregate": aggregate},
        {"slope": format(slope, ".12g"), "residual": format(residual, ".12g"),
         "points": len(points)},
        out,
    )


if __name__ == "__main__":
    main()
