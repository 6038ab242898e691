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
