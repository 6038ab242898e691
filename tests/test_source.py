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


def test_no_function_level_relative_imports_in_the_package():
    # every module imports the package's modules at its top, so their order
    # (lattice, polyhedra, enumeration, ideals, tau, frobenius, ...) is the
    # layering, and no import cycle can hide inside a function
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{path.name}:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert found == set()


# The functions that may branch on the orthant, as "file:function".  A new
# orthant-versus-general fork, or the removal of one, shows up as a diff here.
ORTHANT_FORKS = {
    "campaigns.py:brute_force_colon",
    "cli.py:load_ring",
    "ideals.py:_require_orthant",
    "ideals.py:frobenius_root",
    "ideals.py:kill_variable",
}


def _callers(node, owner, names, found):
    """Add "owner" to found for each call of a function in names under node,
    owner being the innermost enclosing function's name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _callers(child, child.name, names, found)
            continue
        if isinstance(child, ast.Call):
            f = child.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in names:
                found.add(owner)
        _callers(child, owner, names, found)


def _package_callers(names) -> set[str]:
    """"file:function" for each function of the package that calls one of names."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = set()
        _callers(tree, "<module>", names, owners)
        found |= {f"{path.name}:{owner}" for owner in owners}
    return found


def test_orthant_forks_stay_in_the_allowlist():
    assert _package_callers(("is_orthant", "_require_orthant")) == ORTHANT_FORKS


# The functions that call the packed row-sum kernel ``_sums`` and the bound
# kernel ``_maxima``.  Every power is built in ``powers``; a second power or
# product builder shows up as a diff here.
PRODUCT_KERNEL_CALLERS = {
    "ideals.py:colon",
    "ideals.py:intersect",
    "ideals.py:multiply",
    "ideals.py:powers",
}


def test_product_kernels_have_exactly_the_pinned_callers():
    assert _package_callers(("_sums", "_maxima")) == PRODUCT_KERNEL_CALLERS


# The functions that run a double description, directly or through the
# degree bound's ``_vertex_rays``: sigma's facets, a Newton polyhedron's
# facets and vertices, and the degree bound's vertices.  A second double
# description for one fact shows up as a diff here.
DD_CALLERS = {
    "enumeration.py:degree_bound",
    "lattice.py:cone_from_rays",
    "polyhedra.py:_vertex_rays",
    "polyhedra.py:newton_polyhedron",
}


def test_double_descriptions_have_exactly_the_pinned_callers():
    assert _package_callers(("dual_extreme_rays", "_vertex_rays")) == DD_CALLERS


# The functions that seed a ``Random``.  Every random campaign draws through
# the one driver ``campaigns._seeded``, whose closure is ``campaign``; a second
# seeded instance loop shows up as a diff here.
SEEDED_LOOPS = {
    "campaigns.py:campaign",
    "campaigns.py:campaign_colon_formula",
}


def test_random_is_seeded_only_by_the_pinned_loops():
    assert _package_callers(("Random",)) == SEEDED_LOOPS


def _own_nodes(func):
    """The nodes of func's body outside the functions nested in it."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _compares_range_variables(func) -> bool:
    """Does func hold an ``==`` between two of its loop variables that run
    over a ``range(...)``, as the i == j of a hand-built unit vector?"""
    nodes = list(_own_nodes(func))
    ranged = {
        loop.target.id for loop in nodes
        if isinstance(loop, (ast.For, ast.comprehension))
        and isinstance(loop.target, ast.Name)
        and getattr(getattr(loop.iter, "func", None), "id", None) == "range"
    }
    return any(
        isinstance(op, ast.Eq) and {getattr(x, "id", None) for x in (left, right)} <= ranged
        for node in nodes if isinstance(node, ast.Compare)
        for op, left, right in zip(node.ops, [node.left, *node.comparators], node.comparators)
    )


def test_unit_vectors_are_built_in_one_place():
    # every e_1 .. e_d comes from ``lattice.unit_vectors``; a second
    # identity basis built by hand shows up as a diff here
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {f"{path.name}:{func.name}" for func in ast.walk(tree)
                  if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and _compares_range_variables(func)}
    assert found == {"lattice.py:unit_vectors"}


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
        "frobenius.newton_polyhedron",
        "frobenius.power",
        "ideals.toric_ring",
        "tau.minimal_upset_generators",
        "tau.minimalize",
    }


def test_enumeration_caches_only_the_hilbert_basis_and_the_lines():
    # one semigroup walk per ring: the lines' bottoms are the only walked
    # cache, so a second walk over the points cannot come back unseen
    tree = ast.parse((PACKAGE / "enumeration.py").read_text())
    cached = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in node.decorator_list:
                f = d.func if isinstance(d, ast.Call) else d
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in {"cache", "lru_cache", "cached_property"}:
                    cached.add(node.name)
    assert cached == {"hilbert_basis", "_lines"}


def test_every_call_of_a_wrapped_function_goes_through_a_wrapped_binding():
    # perfbench/layers.py wraps a function at the modules it names, so a call
    # through any other binding (a bare name in, or an attribute of, a module
    # where it is not wrapped) runs outside its span and the traced counts
    # miss it
    layers = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
    wrapped = _wrapped_at_each_module(layers)
    names = set().union(*wrapped.values())
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {
            alias.asname or alias.name: alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level and node.module is None
            for alias in node.names
        }
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in _own_nodes(func):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Name) and f.id in names:
                    via, name = path.stem, f.id
                elif (isinstance(f, ast.Attribute) and f.attr in names
                        and getattr(f.value, "id", None) in modules):
                    via, name = modules[f.value.id], f.attr
                else:
                    continue
                if name not in wrapped.get(via, set()):
                    found.add(f"{path.name}:{func.name}")
    assert found == set()


def test_ideals_upset_union_is_the_one_adapter_from_boxes():
    # bound vectors become an ideal in one place; a second adapter that hands
    # ``upset_union`` its boxes shows up as a diff here
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {
                    f"{path.name}:{func.name}" for node in _own_nodes(func)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "upset_union"
                    and (len(node.args) > 2 or any(k.arg == "boxes" for k in node.keywords))
                }
    assert found == {"ideals.py:_upset_union"}


def test_the_newton_sharing_key_is_built_in_one_place():
    # every route that reads t*P(a) gets it from ``tau._scaled_polyhedron``,
    # so P(a) is shared under one key; a second builder of the key
    # ("newton", ring, a.gens) shows up as a diff here
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {
                    f"{path.name}:{func.name}" for node in _own_nodes(func)
                    if isinstance(node, ast.Tuple) and node.elts
                    and getattr(node.elts[0], "value", None) == "newton"
                }
    assert found == {"tau.py:_scaled_polyhedron"}
