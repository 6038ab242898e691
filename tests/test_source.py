"""Checks on the package source itself."""

import ast
from pathlib import Path

import tauideal

PACKAGE = Path(tauideal.__file__).parent


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips asserts, so a check must raise a TauIdealError
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_numpy_imports_in_the_package():
    # every computation is on Python ints; numpy is not a dependency
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# The functions that may branch on the orthant, as "file:function".  A new
# orthant-versus-general fork, or the removal of one, shows up as a diff here.
ORTHANT_FORKS = {
    "campaigns.py:brute_force_colon",
    "cli.py:load_ring",
    "ideals.py:_require_orthant",
    "ideals.py:frobenius_root",
    "ideals.py:kill_variable",
}


def _orthant_calls(node, owner, found):
    """Add "owner" to found for each call of is_orthant or _require_orthant
    under node, owner being the innermost enclosing function's name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _orthant_calls(child, child.name, found)
            continue
        if isinstance(child, ast.Call):
            f = child.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in ("is_orthant", "_require_orthant"):
                found.add(owner)
        _orthant_calls(child, owner, found)


def test_orthant_forks_stay_in_the_allowlist():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = set()
        _orthant_calls(tree, "<module>", owners)
        found |= {f"{path.name}:{owner}" for owner in owners}
    assert found == ORTHANT_FORKS


def _wrapped_at_each_module(layers: Path) -> dict[str, set[str]]:
    """The names ``perfbench/layers.py`` wraps, by the module it wraps them
    at: each ``tracer.wrap(owner, "name", ...)`` call, with ``owner`` a module
    variable bound by ``map(module, (...))`` or a loop variable over a tuple
    of them."""
    tree = ast.parse(layers.read_text(), filename=str(layers))
    modules = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "map"):
            names = [n.value for n in node.value.args[1].elts]
            modules.update(zip((t.id for t in node.targets[0].elts), names))
    loops = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            for inner in ast.walk(node):
                loops[id(inner)] = (node.target.id, [e.id for e in node.iter.elts])
    wrapped: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap"):
            owner, name = node.args[0].id, node.args[1].value
            target, owners = loops.get(id(node), (None, []))
            for variable in owners if owner == target else [owner]:
                wrapped.setdefault(modules[variable], set()).add(name)
    return wrapped


def test_unused_imports_are_exactly_perfbench_wrap_sites():
    # a name a module imports but never reads is there only for perfbench to
    # wrap; any other unused import is dead, and a binding perfbench stops
    # wrapping shows up here
    layers = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    wrapped = _wrapped_at_each_module(layers)
    unused, expected = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        read |= {
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__"
            for elt in node.value.elts
        }
        module = path.stem
        unused |= {f"{module}.{name}" for name in imported - read}
        expected |= {f"{module}.{name}" for name in imported & wrapped.get(module, set()) - read}
    assert unused == expected
    assert expected == {
        "campaigns.tight_integral_closure_at_q",
        "frobenius.frobenius_root",
        "frobenius.minimal_upset_generators",
        "frobenius.minimalize",
        "frobenius.power",
        "ideals.toric_ring",
        "tau.minimal_upset_generators",
    }
