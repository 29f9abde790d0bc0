"""The spec parser against a reference copy of its earlier form.

``reference_parse`` is the parser as it stood before one parenthesis scan
replaced ``_is_parenthesized`` and ``_split_mix_parts``, and before a
``sym:`` read relabel-invariance from the parse instead of from its inner
scheme's name.  The two must refuse the same specs and otherwise give the
same names and the same distributions.  The reference averages a ``sym:``
of a mixture of ``sym:`` parts over every relabeling again, the m!**2 path,
so it also checks that dropping that average changes no distribution.

One error text differs: a spec that starts with "(" and whose parentheses
do not pair was an "unrecognized mechanism token" and is now "unbalanced
... in ...", a ``MechanismSpecError`` either way.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cardvote.core import parse_rational
from cardvote.errors import CardvoteError, MechanismSpecError
from cardvote.generators import rand_grid_profile
from cardvote.mechanisms import (
    _SIMPLE,
    MAX_NESTING,
    constant_winner,
    j1q,
    j2q,
    j_star,
    mix,
    parse_mechanism,
    range_voting,
    symmetrize,
)
from test_input_fuzz import TINY, _outcome, grammar_specs, specs


def _split_mix_parts(body: str) -> list[str]:
    # A component ends at a depth-0 '+' after its '*': weights hold "1e+0".
    parts, depth, start, starred = [], 0, 0, False
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise MechanismSpecError(f"unbalanced ')' in {body!r}")
        elif depth == 0 and ch == "*":
            starred = True
        elif depth == 0 and ch == "+" and starred:
            parts.append(body[start:i])
            start, starred = i + 1, False
    if depth != 0:
        raise MechanismSpecError(f"unbalanced '(' in {body!r}")
    parts.append(body[start:])
    return parts


def _is_parenthesized(spec: str) -> bool:
    if not (spec.startswith("(") and spec.endswith(")")):
        return False
    depth = 0
    for i, ch in enumerate(spec):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return i == len(spec) - 1
    return False


def reference_parse(spec: str, m: int, n: int, depth: int = 0):
    if depth > MAX_NESTING:
        raise MechanismSpecError(f"mechanism spec nests deeper than {MAX_NESTING} levels")
    spec = spec.strip()
    if _is_parenthesized(spec):
        return reference_parse(spec[1:-1], m, n, depth + 1)
    if _SIMPLE.match(spec):
        if spec == "rv":
            return range_voting()
        if spec == "jstar":
            return j_star(m)
        head, arg = spec.split(":")
        try:
            value = int(arg)
        except ValueError as e:  # more digits than int() converts
            raise MechanismSpecError(f"number in {head}:<{len(arg)} digits> is too long") from e
        if head == "j1":
            return j1q(value)
        if head == "j2":
            return j2q(value)
        return constant_winner(value)
    if spec.startswith("mix:"):
        parts = []
        for token in _split_mix_parts(spec[len("mix:"):]):
            if "*" not in token:
                raise MechanismSpecError(
                    f"mixture component {token!r} must look like <weight>*<spec>"
                )
            w_text, sub = token.split("*", 1)
            try:
                w = parse_rational(w_text)
            except (ValueError, ZeroDivisionError) as e:
                raise MechanismSpecError(f"bad mixture weight {w_text!r}") from e
            parts.append((w, reference_parse(sub, m, n, depth + 1)))
        return mix(parts)
    if spec.startswith("sym:"):
        inner = reference_parse(spec[len("sym:"):], m, n, depth + 1)
        if inner.name.startswith("sym:"):  # already relabel-invariant: averaging again is a no-op
            return replace(inner, name=f"sym:{inner.name}")
        return symmetrize(inner, m, n)
    raise MechanismSpecError(f"unrecognized mechanism token {spec!r}")


def _parsed(parse, spec, m, n):
    """The parsed mechanism, or the type of the error that refuses the spec."""
    try:
        return parse(spec, m, n)
    except CardvoteError as e:
        return type(e)


def _distribution(mech, profile):
    """The distribution on the profile, or the type of the error that refuses it."""
    try:
        return mech.evaluate(profile)
    except CardvoteError as e:
        return type(e)


@settings(max_examples=400, deadline=None)
@given(specs)
def test_same_names_and_outcomes_as_the_reference(spec):
    got = _parsed(parse_mechanism, spec, TINY.m, TINY.n)
    expected = _parsed(reference_parse, spec, TINY.m, TINY.n)
    if isinstance(expected, type):
        assert got is expected
        return
    assert (got.name, got.anonymous) == (expected.name, expected.anonymous)
    assert _outcome(got) == _outcome(expected)


@settings(max_examples=150, deadline=None)
@given(grammar_specs, st.integers(2, 3), st.integers(1, 2), st.integers(1, 3),
       st.integers(0, 2**32))
def test_same_distributions_as_the_reference_on_tied_grids(spec, m, n, k, seed):
    profile = rand_grid_profile(m, n, k, seed, tie_free=False)
    got, expected = _parsed(parse_mechanism, spec, m, n), _parsed(reference_parse, spec, m, n)
    if isinstance(expected, type):
        assert got is expected
        return
    assert got.name == expected.name
    assert _distribution(got, profile) == _distribution(expected, profile)


@pytest.mark.parametrize("spec", ["(rv", "(rv))", "((rv)", "(mix:1*rv"])
def test_unpaired_parenthesis_is_reported_as_unbalanced(spec):
    with pytest.raises(MechanismSpecError, match="unrecognized mechanism token"):
        reference_parse(spec, 2, 1)
    with pytest.raises(MechanismSpecError, match=r"unbalanced '[()]' in "):
        parse_mechanism(spec, 2, 1)
