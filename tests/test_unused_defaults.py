"""Every defaulted parameter of a public module-level function of the package
is passed by some call in the package or the benchmark, checked with
``ast``. A default that no caller outside the tests overrides is a constant
in disguise: each such option doubles the configurations the tests must
cover while nothing uses the other values. Calls are matched by the
function's name, as ``f(...)`` or ``module.f(...)``; a parameter counts as
passed when some call names it as a keyword or reaches its position, and a
call with ``*args`` or ``**kwargs`` passes every parameter it could reach."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nodalflow"
PERFBENCH = PACKAGE.parents[1] / "perfbench"

# Options for users of the library rather than for any caller in it:
# perturb_to_nonzero's are given to users by the README, and
# check_edge_equivalence's are how acceptance criterion 06 samples.
ALLOWED = {
    "nodal.perturb_to_nonzero(magnitude)", "nodal.perturb_to_nonzero(seed)",
    "vertex_flow.check_edge_equivalence(trials)", "vertex_flow.check_edge_equivalence(seed)",
}


def defaulted(source: str) -> dict[str, list[tuple[str, int | None]]]:
    """For each public module-level function of ``source``, its defaulted
    parameters as (name, position), the position being None for a
    keyword-only one."""
    found = {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        params = [(p.arg, pos) for pos, p in enumerate(positional)
                  if pos >= len(positional) - len(a.defaults)]
        params += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        if params:
            found[node.name] = params
    return found


def passed(source: str) -> set[tuple[str, str | int]]:
    """(function name, keyword or position) for every argument that a call
    in ``source`` passes; ``"**"`` and ``"*"`` for unpacked ones."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for pos, arg in enumerate(node.args):
            out.add((name, "*" if isinstance(arg, ast.Starred) else pos))
        out |= {(name, kw.arg or "**") for kw in node.keywords}
    return out


def unpassed(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.function(param)`` for each defaulted parameter of the public
    functions of ``modules`` (name to source) that no call in ``callers``
    passes."""
    calls = set().union(*map(passed, callers))
    return [
        f"{module}.{fn}({name})"
        for module, source in modules.items()
        for fn, params in defaulted(source).items()
        for name, pos in params
        if not {(fn, name), (fn, "**"), (fn, "*")} & calls
        and not (pos is not None and (fn, pos) in calls)
    ]


def test_unpassed_finds_options_no_call_sets():
    module = (
        "def f(a, b=1, *, c=2, d=3):\n    pass\n"
        "def g(a=0, b=1):\n    pass\n"
        "def h(x=0):\n    pass\n"
        "def _private(x=0):\n    pass\n"
    )
    caller = "f(0, 1, d=4)\nm.g(**opts)\nh(*args)\n"
    assert unpassed({"m": module}, [caller]) == ["m.f(c)"]


def test_every_default_of_a_public_function_has_a_caller():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    callers = [*modules.values(), *(p.read_text() for p in sorted(PERFBENCH.glob("*.py")))]
    assert sorted(set(unpassed(modules, callers)) - ALLOWED) == []
