"""Command-line entry point wiring generators, mechanisms, checkers and
experiments into reproducible runs.

Reports are fully determined by the invocation (seeds included): the parsed
configuration is echoed into every report and no timestamps or environment
data are emitted, so reruns are byte-identical.  Exact rationals appear next
to any decimal rendering (decimals use 12 significant digits).

Exit codes: 0 success, 2 a property check found a violation, 1 any error.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import click

from . import bounds, core, generators, mechanisms, properties
from .errors import CardvoteError, DataError, PreconditionError


@dataclass(frozen=True)
class RunConfig:
    """Everything that determined a run; echoed into the report header."""

    subcommand: str
    params: tuple[tuple[str, object], ...]

    @classmethod
    def of(cls, subcommand: str, **params) -> "RunConfig":
        return cls(subcommand, tuple(sorted(params.items())))

    def as_dict(self) -> dict:
        return {"subcommand": self.subcommand, **{k: v for k, v in self.params}}


def _frac(f: Fraction) -> str:
    return str(f)


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


def _json_report(config: RunConfig, body: dict, out: str | None) -> None:
    report = {"config": config.as_dict(), **body}
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", out)


def _csv_report(
    config: RunConfig, fieldnames: list[str], rows: list[dict], out: str | None
) -> None:
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config.as_dict(), sort_keys=True) + "\n")
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
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


def _mech(spec: str) -> mechanisms.Mechanism:
    return mechanisms.parse_mechanism(spec)


def _wrap(fn):
    """Convert package errors into clean CLI failures (exit 1)."""

    def run(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CardvoteError as e:
            raise click.ClickException(str(e)) from e

    run.__name__ = fn.__name__
    run.__doc__ = fn.__doc__
    return run


@click.group()
def main():
    """Exact evaluation of truthful cardinal voting schemes."""


@main.command("eval")
@click.option("--mech", "spec", required=True, help="Mechanism spec, e.g. jstar or mix:1/2*j1:1+1/2*j1:2")
@click.option("--profile", "profile_path", required=True, type=click.Path(exists=True))
@click.option("--out", default=None, type=click.Path())
@_wrap
def eval_cmd(spec: str, profile_path: str, out: str | None):
    """Evaluate a mechanism on a profile: distribution, welfares, ratio."""
    mech = _mech(spec)
    profile = _load_profile(profile_path)
    dist = mech.evaluate(profile)
    report = core.welfare_report(profile, dist)
    body = {
        "mechanism": mech.name,
        "distribution": {
            "exact": [_frac(p) for p in dist.probs],
            "decimal": [_dec(p) for p in dist.probs],
        },
        "welfares": {
            "exact": [_frac(w) for w in report.welfares],
            "decimal": [_dec(w) for w in report.welfares],
        },
        "rv_winner": report.rv_winner,
        "expected_welfare": {"exact": _frac(report.expected), "decimal": _dec(report.expected)},
        "ratio": {"exact": _frac(report.ratio), "decimal": _dec(report.ratio)},
    }
    if mech.q is not None:
        body["quota_in_range"] = mech.q in mechanisms.j2q_quota_range(profile.n)
    _json_report(RunConfig.of("eval", mech=spec, profile=profile_path), body, out)


@main.command("ratio")
@click.option("--mech", "spec", required=True)
@click.option("--profile", "profile_path", required=True, type=click.Path(exists=True))
@click.option("--out", default=None, type=click.Path())
@_wrap
def ratio_cmd(spec: str, profile_path: str, out: str | None):
    """Welfare ratio of a mechanism on a profile."""
    mech = _mech(spec)
    profile = _load_profile(profile_path)
    value = core.ratio(mech, profile)
    _json_report(
        RunConfig.of("ratio", mech=spec, profile=profile_path),
        {"mechanism": mech.name, "ratio": {"exact": _frac(value), "decimal": _dec(value)}},
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
@_wrap
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
@_wrap
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
@_wrap
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
@_wrap
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
    @_wrap
    def run(ctx, spec, m, n, k, tie_free, budget, out):
        mech = _mech(spec)
        report = _CHECKS[name](mech, m, n, k, tie_free=tie_free, budget=budget)
        config = RunConfig.of(
            f"verify {name}", mech=spec, m=m, n=n, k=k, tie_free=tie_free, budget=budget
        )
        _json_report(config, report.to_json_dict(), out)
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
@_wrap
def experiment_negative(ms_text: str, repeat: int, out: str | None):
    """Ratios of every top-q and pairwise-quota scheme on adversarial profiles."""
    ms = _int_list(ms_text)
    rows = bounds.upper_bound_experiment(ms, repeat)
    out_rows = []
    for row in rows:
        reference = row.m ** (-2.0 / 3.0)
        out_rows.append(
            {
                "m": row.m,
                "scheme": row.scheme,
                "q": row.q,
                "ratio": _frac(row.ratio),
                "ratio_decimal": _dec(row.ratio),
                "m_pow_minus_2_3": format(reference, ".12g"),
                "ratio_over_reference": format(float(row.ratio) / reference, ".12g"),
            }
        )
    config = RunConfig.of("experiment negative", m=ms, repeat=repeat)
    _csv_report(
        config,
        ["m", "scheme", "q", "ratio", "ratio_decimal", "m_pow_minus_2_3", "ratio_over_reference"],
        out_rows,
        out,
    )


@experiment.command("lower")
@click.option("--m", required=True, type=int)
@click.option("--n", required=True, type=int)
@click.option("--k", required=True, type=int)
@click.option("--grid-step", "step", required=True, type=int)
@click.option("--seeds", default="0,1,2,3,4", show_default=True)
@click.option("--out", default=None, type=click.Path())
@_wrap
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
            "gbar": _frac(r.gbar),
            "gbar_decimal": _dec(r.gbar),
            "bound": _frac(r.bound),
            "bound_decimal": _dec(r.bound),
            "slack": _frac(r.slack),
            "ok": r.slack >= 0,
        }
        for r in rows
    ]
    config = RunConfig.of("experiment lower", m=m, n=n, k=k, grid_step=step, seeds=seed_list)
    _csv_report(
        config,
        ["a", "b", "c", "seed", "gbar", "gbar_decimal", "bound", "bound_decimal", "slack", "ok"],
        out_rows,
        out,
    )


@experiment.command("cyclic")
@click.option("--m", "ms_text", required=True, help="Comma-separated m values (n = m).")
@click.option("--eps", default=None, help="Exact rational; defaults to 1/m^3 per m.")
@click.option("--out", default=None, type=click.Path())
@_wrap
def experiment_cyclic(ms_text: str, eps: str | None, out: str | None):
    """Ratio of the stacked-lottery scheme on every starred cyclic profile."""
    rows = []
    for m in _int_list(ms_text):
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
                    "eps": _frac(eps_m),
                    "ratio": _frac(r),
                    "ratio_decimal": _dec(r),
                    "bound": _frac(bound),
                    "within_bound": r <= bound,
                    "all_orderings_equivalent": equivalent,
                }
            )
    config = RunConfig.of("experiment cyclic", m=ms_text, eps=eps)
    _csv_report(
        config,
        ["m", "star", "eps", "ratio", "ratio_decimal", "bound", "within_bound", "all_orderings_equivalent"],
        rows,
        out,
    )


@experiment.command("minratio")
@click.option("--mech", "spec", required=True)
@click.option("--m", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--tie-free", is_flag=True, default=False)
@click.option("--profile", "profile_path", type=click.Path(exists=True), default=None)
@click.option("--budget", default=1_000_000, type=int, show_default=True)
@click.option("--out", default=None, type=click.Path())
@_wrap
def experiment_minratio(spec, m, n, k, tie_free, profile_path, budget, out):
    """Minimal exact ratio over a grid family or a single profile file."""
    mech = _mech(spec)
    if profile_path:
        family = [_load_profile(profile_path)]
    elif None not in (m, n, k):
        if n < 1:
            raise PreconditionError(f"need at least one voter, got n={n}")
        prefs = list(properties.enumerate_Rk_prefs(m, k, tie_free))
        family = (
            core.Profile(combo) for combo in itertools.product(prefs, repeat=n)
        )
    else:
        raise click.ClickException("provide either --profile or all of --m/--n/--k")
    result = bounds.min_ratio_search(mech, family, budget)
    config = RunConfig.of(
        "experiment minratio",
        mech=spec, m=m, n=n, k=k, tie_free=tie_free, profile=profile_path, budget=budget,
    )
    _json_report(
        config,
        {
            "mechanism": mech.name,
            "min_ratio": {"exact": _frac(result.ratio), "decimal": _dec(result.ratio)},
            "visited": result.visited,
            "argmin_profile": core.profile_to_json_dict(result.profile),
        },
        out,
    )


# ---------------------------------------------------------------------------
# reduce / project / fit


@main.command("reduce")
@click.option("--profile", "profile_path", required=True, type=click.Path(exists=True))
@click.option("--k", required=True, type=int)
@click.option("--out", default=None, type=click.Path())
@_wrap
def reduce_cmd(profile_path: str, k: int, out: str | None):
    """Slide interior image blocks until every voter is two-block."""
    trace = bounds.reduce_to_Ck_trace(_load_profile(profile_path), k)
    body = {
        "result": core.profile_to_json_dict(trace.result),
        "g_initial": _frac(trace.g_initial),
        "g_final": _frac(trace.g_final),
        "anomalies": list(trace.anomalies),
        "steps": [
            {
                "voter": s.voter,
                "run": list(s.run),
                "direction": s.direction,
                "g_before": _frac(s.g_before),
                "g_after": _frac(s.g_after),
            }
            for s in trace.steps
        ],
    }
    _json_report(RunConfig.of("reduce", profile=profile_path, k=k), body, out)


@main.command("project")
@click.option("--profile", "profile_path", required=True, type=click.Path(exists=True))
@click.option("--k", required=True, type=int)
@click.option("--out", default=None, type=click.Path())
@_wrap
def project_cmd(profile_path: str, k: int, out: str | None):
    """Project two-block voters onto the structured classes."""
    trace = bounds.project_to_Dk_trace(_load_profile(profile_path), k)
    body = {
        "result": core.profile_to_json_dict(trace.result),
        "moves": [
            {
                "voter": mv.voter,
                "kept": mv.kept,
                "target_class": mv.target_class,
                "before": [str(v) for v in mv.before.values],
                "after": [str(v) for v in mv.after.values],
            }
            for mv in trace.moves
        ],
    }
    _json_report(RunConfig.of("project", profile=profile_path, k=k), body, out)


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
@_wrap
def fit_cmd(data_path: str, aggregate: str, out: str | None):
    """Log-log slope of ratio against m."""
    raw: list[tuple[int, Fraction]] = []
    try:
        with open(data_path, newline="") as fh:
            lines = [line for line in fh if not line.startswith("#")]
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read fit data {data_path}: {e}") from e
    for row in csv.DictReader(io.StringIO("".join(lines))):
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
        RunConfig.of("fit", data=data_path, aggregate=aggregate),
        {"slope": format(slope, ".12g"), "residual": format(residual, ".12g"),
         "points": len(points)},
        out,
    )


if __name__ == "__main__":
    main()
