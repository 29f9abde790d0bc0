"""Source checks over the package, with the stdlib ``ast``.

Internal invariants must still be checked under ``python -O``, which strips
``assert`` statements: the package raises explicit errors instead.  Imports
must be used, only ``core`` turns the `Fraction` view of a distribution or
of a preference back into integers, and the grid families are built from
integer steps.  Welfare has one integer form, ``Profile.totals``: only
``core`` calls ``scaled``, no module defines or imports a `Fraction` ``dot``
product, and ``bounds`` reads neither ``.probs`` nor ``welfare_vector``
(each of which the ``bounds`` and ``properties`` modules did before the
functionals read the integer form, so this guard failed there).  Only the
``cli`` renders reports: ``properties`` reads neither the ``.probs`` nor the
``.values`` view and calls no ``str`` (it did both while its reports
rendered their own JSON).  The package keeps no memoizing cache, the
grid scans have one budget gate, a grid family's shape has one check, no
scheme is judged by its name, and no ballot evaluator reads a profile.
Cached views use the one lock-free ``core.cached_view``, never
``functools.cached_property`` (which ``core`` and ``bounds`` used before).
Only ``bounds`` steps a reduction run.
Every definition is reached from the package, as a click command or from
the benchmark tracer, and the package root binds only its modules."""

import ast
import dataclasses
import importlib.util
from pathlib import Path

import cardvote
from cardvote.core import Ballot, Profile

SOURCES = sorted(Path(cardvote.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"core.py", "bounds.py", "generators.py"}


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    """Every bare name the module reads, including names inside string
    annotations such as ``-> "Preference"``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def test_no_unused_imports():
    """Deleting a definition must not leave its imports behind; the package
    ``__init__`` is exempt because its imports are the modules it binds
    (see ``test_package_root_binds_only_modules``)."""
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_distributions_are_not_rescaled():
    """A distribution's integer form is ``(den, nums)``, kept by ``core``;
    no module may rebuild it from the `Fraction` view with
    ``scaled(....probs)``."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "scaled" and any(
                isinstance(sub, ast.Attribute) and sub.attr == "probs"
                for arg in node.args
                for sub in ast.walk(arg)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_preferences_are_not_rescaled():
    """A preference stores only its integer form ``(den, nums)``, and
    ``values`` is the `Fraction` view of it; no module but ``core`` may
    rebuild the integers with ``scaled(....values)``, and ``bounds`` rounds
    from them instead of comparing utilities with ``HALF``."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if path.name != "core.py" and isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "scaled" and any(
                    isinstance(sub, ast.Attribute) and sub.attr == "values"
                    for arg in node.args
                    for sub in ast.walk(arg)
                ):
                    found.append(f"{path.name}:{node.lineno} scaled")
            if path.name == "bounds.py" and isinstance(node, ast.Compare) and any(
                isinstance(sub, ast.Name) and sub.id == "HALF"
                for side in [node.left, *node.comparators]
                for sub in ast.walk(side)
            ):
                found.append(f"{path.name}:{node.lineno} HALF")
    assert found == []


GRID_CONSTRUCTORS = {
    "generators.py": {"gen_negative", "gen_Dk", "two_block_preference", "rand_grid_profile"},
    "properties.py": {"enumerate_Rk_prefs"},
}


def test_grid_constructors_build_no_fractions():
    """The grid families are built from integer steps: their constructors
    call no ``Fraction(...)`` and make voters only through
    ``Preference.from_steps``."""
    found, seen = [], set()
    for path in SOURCES:
        names = GRID_CONSTRUCTORS.get(path.name, set())
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(func, ast.FunctionDef) and func.name in names):
                continue
            seen.add(func.name)
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if isinstance(callee, ast.Name) and callee.id in ("Fraction", "Preference"):
                    found.append(f"{func.name}:{node.lineno} {callee.id}")
                elif (isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name)
                      and callee.value.id == "Preference" and callee.attr != "from_steps"):
                    found.append(f"{func.name}:{node.lineno} Preference.{callee.attr}")
    assert seen == set().union(*GRID_CONSTRUCTORS.values())
    assert found == []


def test_welfare_has_one_integer_form():
    """Ratios, functionals and witness utilities are integer dot products
    over ``Profile.totals`` and a distribution's ``nums``: no module but
    ``core`` converts with ``scaled``, none defines or imports ``dot``, and
    ``bounds`` neither reads a distribution's ``.probs`` view nor calls
    ``welfare_vector``."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "scaled" and path.name != "core.py":
                    found.append(f"{path.name}:{node.lineno} scaled")
                if name == "welfare_vector" and path.name == "bounds.py":
                    found.append(f"{path.name}:{node.lineno} welfare_vector")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "dot":
                found.append(f"{path.name}:{node.lineno} def dot")
            elif isinstance(node, ast.ImportFrom) and any(
                alias.name == "dot" for alias in node.names
            ):
                found.append(f"{path.name}:{node.lineno} import dot")
            elif (isinstance(node, ast.Attribute) and node.attr == "probs"
                  and path.name == "bounds.py"):
                found.append(f"{path.name}:{node.lineno} .probs")
    assert found == []


def test_properties_render_nothing():
    """``properties`` returns reports as plain data and scans in integers:
    it reads neither `Fraction` view, ``.probs`` or ``.values``, and calls
    no ``str``; the ``cli`` renders every report."""
    path = next(p for p in SOURCES if p.name == "properties.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ("probs", "values"):
            found.append(f"{node.lineno} .{node.attr}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "str"):
            found.append(f"{node.lineno} str")
    assert found == []


def test_no_scheme_is_judged_by_its_name():
    """No module calls ``.startswith`` on a ``.name`` attribute: whether a
    scheme is relabel-invariant is a fact of the spec's parse, not of its
    name, which misses a mixture of ``sym:`` parts.  This failed while the
    parser kept a ``sym:`` only when ``inner.name.startswith("sym:")``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "startswith" and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "name"
    ]
    assert found == []


# Each memoizing cache in the package, as "module:function": none.  The
# stacked lottery is one integer formula built in microseconds, and the
# parser builds jstar and sym: once, for the one shape it is given.
# A new cache joins this set together with the workload that needs it.
CACHED_FUNCTIONS: set[str] = set()


def test_one_memoizing_cache():
    """Every ``functools.lru_cache`` or ``functools.cache`` in the package,
    named by the function it decorates (or by its line if it decorates
    none), is in ``CACHED_FUNCTIONS``, and each listed one is still there."""
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in func.decorator_list:
                    owner.update((id(sub), func.name) for sub in ast.walk(decorator))
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ("lru_cache", "cache"):
                found.add(f"{path.name}:{owner.get(id(node), node.lineno)}")
    assert found == CACHED_FUNCTIONS


def test_one_budget_gate_for_the_grid_scans():
    """Every grid scan's budget is checked in one place: in ``properties``,
    ``BudgetError`` is raised only inside ``_GridScan.__init__``, which
    counts the walk before it builds the grid (each check once raised its
    own copy, after the scan had built P**n)."""
    path = next(p for p in SOURCES if p.name == "properties.py")
    tree = ast.parse(path.read_text(), str(path))
    gate = next(node for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == "_GridScan")
    init = next(node for node in gate.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    inside = {id(node) for node in ast.walk(init)}
    raised = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and any(isinstance(sub, ast.Name) and sub.id == "BudgetError"
                      for sub in ast.walk(node))]
    assert raised and all(id(node) in inside for node in raised)


def test_one_cached_view_mechanism():
    """No module names ``cached_property``: each cached view is a
    ``core.cached_view``, which takes no lock on a first read (Python
    3.11's ``functools.cached_property`` takes one on every first read)."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Attribute) and node.attr == "cached_property")
        or (isinstance(node, ast.Name) and node.id == "cached_property")
        or (isinstance(node, ast.alias) and node.name == "cached_property")
    ]
    assert found == []


def test_only_bounds_steps_a_slide_run():
    """A reduction run is stepped in one place, ``SlideRun.slides``: outside
    ``bounds`` no module reads ``.gap``, ``.d_numer``, ``.d_denom`` or
    ``.shift``.  This failed while ``cli._steps_array`` repeated the
    stepping of ``ReductionTrace.steps`` from those four fields."""
    found = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in SOURCES if path.name != "bounds.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("gap", "d_numer", "d_denom", "shift")
    ]
    assert found == []


SHAPE_MESSAGES = ("grid resolution k must be", "cannot host")


def test_one_shape_check_for_the_grid_family():
    """A grid family's (m, k) is checked in one place: across the package,
    an error naming the grid resolution k or a tie-free k that "cannot
    host" m values is raised only inside ``core.check_grid_shape`` (``core``,
    ``properties`` and ``generators`` once each raised their own copy)."""
    raised, inside = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if (path.name == "core.py" and isinstance(func, ast.FunctionDef)
                    and func.name == "check_grid_shape"):
                inside |= set(ast.walk(func))
        raised += [(path.name, node) for node in ast.walk(tree) if isinstance(node, ast.Raise)
                   and any(isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                           and any(text in sub.value for text in SHAPE_MESSAGES)
                           for sub in ast.walk(node))]
    outside = [f"{name}:{node.lineno}" for name, node in raised if node not in inside]
    assert len(raised) == len(SHAPE_MESSAGES) and outside == []


def _public(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)} | {
        name for name in dir(cls) if not name.startswith("_")}


# What a Profile offers that a Ballot does not (its voters, their utilities
# and the ballot itself), and a mechanism's profile entry point: a ballot
# evaluator reads none of them.
PROFILE_ONLY = _public(Profile) - _public(Ballot) | {"evaluate"}


def test_ballot_evaluators_read_no_profile():
    """A grid scan evaluates a ballot scheme once per ballot, which is sound
    only while its ballot evaluator reads the ballot and nothing else.  In
    ``mechanisms``, only ``_ballot_scheme`` passes ``evaluate_ballot`` to
    ``Mechanism`` (no ``replace`` sets it), and each ``_ballot_scheme``
    call passes a function of its own scope that takes one ``Ballot``,
    names neither ``Profile`` nor ``profile`` and reads no attribute of
    ``PROFILE_ONLY``."""
    path = next(p for p in SOURCES if p.name == "mechanisms.py")
    tree = ast.parse(path.read_text(), str(path))
    helper = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_ballot_scheme")
    inside = {id(node) for node in ast.walk(helper)}
    setters = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
               and any(kw.arg == "evaluate_ballot" for kw in node.keywords)]
    assert setters and all(id(node) in inside for node in setters)
    parents = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    evaluators, found = [], []
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_ballot_scheme":
            scope = parents[id(call)]
            while not isinstance(scope, ast.FunctionDef):
                scope = parents[id(scope)]
            local = {node.name: node for node in scope.body if isinstance(node, ast.FunctionDef)}
            evaluators.append(local[call.args[1].id])
    for func in evaluators:
        params = func.args.args
        if len(params) != 1 or ast.unparse(params[0].annotation) != "Ballot":
            found.append(f"{func.lineno} {func.name} parameters")
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and node.id in ("Profile", "profile"):
                found.append(f"{node.lineno} {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in PROFILE_ONLY:
                found.append(f"{node.lineno} .{node.attr}")
    assert PROFILE_ONLY == {"prefs", "totals", "ballot", "evaluate"}
    assert len(evaluators) == 5 and found == []


def _tracer_wrapped() -> set[str]:
    """Every package name ``bench/tracer.py`` wraps: the functions of its
    ``LAYERS`` and the factories of its ``EVALUATORS``."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {name for _, names in tracer.LAYERS.values() for name in names} | set(tracer.EVALUATORS)


def _is_click_command(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def test_package_root_binds_only_modules():
    """``cardvote/__init__.py`` has one import, ``from . import`` of the
    package's own modules, assigns only ``__all__`` and ``__version__``,
    defines no function or class, and ``__all__`` names exactly those
    modules.  This failed while it re-exported 45 of the modules' names."""
    path = next(p for p in SOURCES if p.name == "__init__.py")
    body = [node for node in ast.parse(path.read_text(), str(path)).body
            if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))]
    imports = [node for node in body if isinstance(node, ast.ImportFrom)]
    assigned = [target.id for node in body if isinstance(node, ast.Assign)
                for target in node.targets]
    assert sorted(assigned) == ["__all__", "__version__"]
    assert len(imports) == 1 and len(body) == 1 + len(assigned)
    (root,) = imports
    assert root.level == 1 and root.module is None
    assert all(alias.asname is None for alias in root.names)
    modules = [alias.name for alias in root.names]
    assert {f"{name}.py" for name in modules} <= {p.name for p in SOURCES}
    assert cardvote.__all__ == modules


def test_every_module_level_definition_is_reached():
    """Every module-level function and class is referenced, by name or as
    an attribute, somewhere in the package outside its own definition, or
    is a click command or a name the benchmark tracer wraps (read from the
    tracer itself, so the exemption follows it)."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    exempt = _tracer_wrapped()
    reads = [(stmt, _used_names(stmt) | {node.attr for node in ast.walk(stmt)
                                         if isinstance(node, ast.Attribute)})
             for tree in trees.values() for stmt in tree.body]
    unreached = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in exempt and not _is_click_command(node)
        and not any(node.name in names for stmt, names in reads if stmt is not node)
    ]
    assert unreached == []


# Each method that no module in the package reads as an attribute, with the
# reason it stays.
UNREAD_METHODS = {
    "Preference.normalized": "the standard constructor the README documents",
    "ReductionTrace.steps": "the per-slide view the benchmark tracer's hook and the tests read",
    "_Main.invoke": "a click override, which click calls",
    "_Main.make_context": "a click override, which click calls",
}


def _attribute_reads(tree: ast.AST) -> set[str]:
    """Every attribute name the tree reads, outside a function of the same
    name (so a method that only delegates to its namesake is not a reader)."""
    found = set()

    def visit(node: ast.AST, function: str | None) -> None:
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr != function):
            found.add(node.attr)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_every_method_is_read():
    """Every non-dunder method is read as an attribute somewhere in the
    package, outside a function of the same name, or is in
    ``UNREAD_METHODS``; each listed one is still unread.  This failed while
    ``Profile.is_tie_free`` and ``Preference.is_tie_free`` (called only by
    its namesake) were defined.  Names are matched without types, so a read
    of ``str.replace`` would have kept a ``Profile.replace`` alive: the
    guard finds methods nothing reads, not every one nothing calls."""
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    reads = set().union(*map(_attribute_reads, trees))
    unread = {
        f"{cls.name}.{func.name}"
        for tree in trees
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for func in cls.body if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (func.name.startswith("__") and func.name.endswith("__"))
        and func.name not in reads
    }
    assert unread == set(UNREAD_METHODS)
