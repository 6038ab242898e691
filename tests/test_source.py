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


# The functions that call the floors kernel ``_floors``: the root chain
# reads a power only through its multiset floors, while ``powers`` squares
# with the product kernel and ``trace_root`` floors its rows in place, so
# the kernel can change for the root chain alone; a second caller shows up
# as a diff here.
FLOOR_KERNEL_CALLERS = {"frobenius.py:frobenius_root_tau_oracle"}


def test_the_floors_kernel_has_exactly_the_pinned_callers():
    assert _package_callers(("_floors",)) == FLOOR_KERNEL_CALLERS


# The functions that call the exact elimination ``_echelon``: the rank, and
# the one cached left inverse of sigma's rays, from which w, smoothness and
# the points are read; a second elimination of a ring's rays shows up as a
# diff here.
ELIMINATION_CALLERS = {"lattice.py:left_inverse", "lattice.py:matrix_rank"}


def test_the_elimination_has_exactly_the_pinned_callers():
    assert _package_callers(("_echelon",)) == ELIMINATION_CALLERS


# The functions that start a lazy ``powers`` chain: ``power``, its one value,
# and the tight-closure searches' ``rows``.  The root chain reads every power
# through its multiset floors, so a power chain started there, or a second
# route to a power, shows up as a diff here.
POWER_CHAIN_CALLERS = {"ideals.py:power", "frobenius.py:rows"}


def test_power_chains_have_exactly_the_pinned_callers():
    assert _package_callers(("powers",)) == POWER_CHAIN_CALLERS


def test_every_minimal_filter_is_the_one_orthant_filter():
    # the bitmask kernel is read by the divisibility test ``_covers`` and
    # by ``minimal_vectors_orthant``, through which every minimal filter
    # goes; a private minimal filter shows up as a diff here
    assert _package_callers(("_below_masks",)) == {
        "ideals.py:_covers",
        "lattice.py:minimal_vectors_orthant",
    }


# The functions that run a double description, directly or through the
# degree bound's ``_vertex_rays``: sigma's facets, a Newton polyhedron's
# facets and vertices, and the degree bound's vertices.  A second double
# description for one fact shows up as a diff here.
DD_CALLERS = {
    "enumeration.py:_degree_bound",
    "lattice.py:cone_from_rays",
    "polyhedra.py:_vertex_rays",
    "polyhedra.py:newton_polyhedron",
}


def test_double_descriptions_have_exactly_the_pinned_callers():
    assert _package_callers(("dual_extreme_rays", "_vertex_rays")) == DD_CALLERS


# The functions that seed a ``Random``.  Every random campaign draws through
# ``campaigns._seeded``, whose closure is ``campaign``; a second seeded
# instance loop shows up as a diff here.
SEEDED_LOOPS = {
    "campaigns.py:campaign",
    "campaigns.py:campaign_colon_formula",
}


# The callers of the compile core ``polyhedra._compile``, which trusts its
# polyhedron, integer shift and denominator: the checked entry
# ``lattice_inequalities`` and the three routes that hold those values
# already (tau's r*w over r, the socle corners over q, the integral
# closure's origin over 1).  A route that compiles through the entry
# again, or a new caller of the core, shows up as a diff here.
COMPILE_CORE_CALLERS = {
    "frobenius.py:_corner_inequalities",
    "ideals.py:integral_closure",
    "polyhedra.py:lattice_inequalities",
    "tau.py:_tau_inequalities",
}


def test_the_compile_core_has_exactly_the_pinned_callers():
    assert _package_callers(("_compile",)) == COMPILE_CORE_CALLERS


def test_newton_polyhedron_is_the_one_newton_builder():
    # a NewtonPolyhedron is made only by ``newton_polyhedron``, the one
    # place that picks vertex candidates, and rescaled by ``_scaled``; the
    # closed-form first insert runs only inside the double description;
    # every package caller hands ``newton_polyhedron`` the ideal itself,
    # not its generators.  A second builder, or a caller that sends a
    # checked ideal's generators through the raw check, shows up as a
    # diff here
    assert _package_callers(("NewtonPolyhedron",)) == {
        "polyhedra.py:_scaled",
        "polyhedra.py:newton_polyhedron",
    }
    assert _package_callers(("_rotation_minima",)) == {"polyhedra.py:newton_polyhedron"}
    assert _package_callers(("_lifted",)) == {"lattice.py:dual_extreme_rays"}
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {
                    (f"{path.name}:{func.name}", ast.unparse(node.args[1]))
                    for node in _own_nodes(func)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    == "newton_polyhedron"
                }
    assert found == {
        ("campaigns.py:vertex_reduction", "a"),
        ("cli.py:cmd_newton", "a"),
        ("ideals.py:integral_closure", "I"),
        ("tau.py:_scaled_polyhedron", "a"),
    }


def test_random_is_seeded_only_by_the_pinned_loops():
    assert _package_callers(("Random",)) == SEEDED_LOOPS


def test_reports_are_made_only_by_the_two_runners():
    # a campaign yields (ok, fields) pairs and ``run_campaign`` records them
    # into the one report it makes; a campaign that makes its own report,
    # and so names itself a second time, shows up as a diff here
    assert _package_callers(("CampaignReport",)) == {
        "campaigns.py:run_campaign",
        "campaigns.py:run_crosscheck",
    }


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


def test_enumeration_caches_only_the_lines():
    # one record per ring: its grading, Hilbert basis and walked bottoms are
    # the only cache, so a second walk or a second per-ring cache cannot
    # come back unseen
    tree = ast.parse((PACKAGE / "enumeration.py").read_text())
    cached = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in node.decorator_list:
                f = d.func if isinstance(d, ast.Call) else d
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in {"cache", "lru_cache", "cached_property"}:
                    cached.add(node.name)
    assert cached == {"_lines"}


def test_an_ideal_is_made_with_its_rows():
    # an ideal's rows are set when it is made, so ideals.py names no lazy
    # attribute, and one helper sets (and so orders) every ideal's gens and
    # rows: a lazy pairing or a second place that orders an ideal comes back
    # as a diff here
    tree = ast.parse((PACKAGE / "ideals.py").read_text())
    names = {
        getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        for node in ast.walk(tree)
    }
    assert names.isdisjoint({"cache", "lru_cache", "cached_property"})
    setters = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                setters |= {
                    f"{path.name}:{func.name}" for node in _own_nodes(func)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__setattr__" and len(node.args) > 1
                    and getattr(node.args[1], "value", None) in {"gens", "rows"}
                }
    assert setters == {"ideals.py:_ordered"}


def test_the_grading_is_derived_only_by_the_lines_record():
    # l is computed once per ring, in ``_Lines.__init__``; a per-call l
    # anywhere else shows up as a diff here
    assert _package_callers(("ell_vector",)) == {"enumeration.py:__init__"}
    found = set()
    for cls in ast.parse((PACKAGE / "enumeration.py").read_text()).body:
        if isinstance(cls, ast.ClassDef):
            owners = set()
            _callers(cls, cls.name, ("ell_vector",), owners)
            found |= {f"{cls.name}.{owner}" for owner in owners}
    assert found == {"_Lines.__init__"}


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
    # bound vectors become an ideal in one place; besides the entry
    # ``upset_union``, which passes its caller's checked boxes on, a second
    # adapter that hands the kernel's core ``_union`` its boxes shows up as
    # a diff here
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {
                    f"{path.name}:{func.name}" for node in _own_nodes(func)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_union"
                    and (len(node.args) > 2 or any(k.arg == "boxes" for k in node.keywords))
                }
    assert found == {"enumeration.py:upset_union", "ideals.py:_upset_union"}


def test_no_package_function_calls_the_kernel_entries():
    # ``upset_union``, ``degree_bound`` and ``lattice_inequalities`` check
    # what they are given and are for callers outside the package; the
    # package hands the values it derived to their cores ``_union``,
    # ``_degree_bound`` and ``polyhedra._compile``, so a route that pays
    # the entry checks again shows up as a diff here
    assert _package_callers(("upset_union", "degree_bound", "lattice_inequalities")) == set()


def test_the_slice_bound_is_read_through_the_one_degree_bound_rule():
    # ``_degree_bound`` is the one place that picks the slice bound, a
    # caller's proven bound or the vertex double description; a second
    # place that reads the slice bound first shows up as a diff here
    assert _package_callers(("_slice_bound",)) == {"enumeration.py:_degree_bound"}


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


# The functions that check a raw value (the vector, ring and exponent checks
# of ``lattice`` and ``polyhedra``), or that make a checked value from values
# already checked without checking it again (``ideals._derived``).  Every
# caller of a check is an entry point or an entry check; a check that moves
# into a core, or a new way round one, shows up as a diff here.
CHECK_CALLERS = {
    "int_vectors": {
        "enumeration.py:_check_union",
        "enumeration.py:by_degree",
        "frobenius.py:_multiplier_searches",
        "ideals.py:minimalize",
        "lattice.py:cone_from_rays",
        "lattice.py:dual_extreme_rays",
        "lattice.py:semigroup_columns",
        "polyhedra.py:newton_polyhedron",
    },
    "check_ring": {
        "campaigns.py:random_monomial_ideal",
        "campaigns.py:run_crosscheck",
        "enumeration.py:_check_union",
        "enumeration.py:by_degree",
        "enumeration.py:hilbert_basis",
        "enumeration.py:lattice_points_upto",
        "frobenius.py:_validate_socle_point",
        "ideals.py:__post_init__",
        "ideals.py:maximal_ideal",
        "ideals.py:unit_ideal",
        "ideals.py:zero_ideal",
        "polyhedra.py:newton_polyhedron",
        "tau.py:veronese_maximal_ideal",
    },
    "exponent": {
        "campaigns.py:run_crosscheck",
        "cli.py:cmd_crosscheck",
        "cli.py:cmd_tau",
        "frobenius.py:tight_closure_members_at_q",
        "polyhedra.py:scale",
        "tau.py:_check_request",
    },
    "semigroup_columns": {"ideals.py:__post_init__"},
    # a shift and a point are rational by nature; every pair is integer
    "rational_vector": {
        "polyhedra.py:contains",
        "polyhedra.py:lattice_inequalities",
    },
    # the checked pairing of raw vectors; a checked ideal's are its ``rows``
    "_ray_coords": {
        "frobenius.py:_multiplier_searches",
        "ideals.py:contains_monomial",
    },
    "_derived": {
        "campaigns.py:vertex_reduction",
        "frobenius.py:tau_socle_oracle",
        "ideals.py:_from_rows",
        "ideals.py:bracket_power",
        "ideals.py:integral_closure",
        "ideals.py:maximal_ideal",
        "ideals.py:unit_ideal",
        "ideals.py:zero_ideal",
        "tau.py:tau",
    },
    # raw vectors become an ideal in one place; no ideal the package derives
    # goes through the constructor's check again
    "MonomialIdeal": {"ideals.py:minimalize"},
}


def test_checks_have_exactly_the_pinned_callers():
    assert {name: _package_callers((name,)) for name in CHECK_CALLERS} == CHECK_CALLERS


def test_a_tau_call_reads_its_exponent_and_generators_once(monkeypatch):
    # tau checks t once (``tau._check_request``; ``scale`` read it again),
    # newton_polyhedron reads the ideal's generators and rows as they are,
    # with no scan of their entry types (``int_vectors`` scanned them once,
    # and ``semigroup_columns`` once more before that), and the result is
    # made without the constructor's check
    import sys
    from collections import Counter
    from fractions import Fraction

    from tauideal.ideals import MonomialIdeal, minimalize
    from tauideal.lattice import orthant_ring
    from tauideal.tau import tau

    ring = orthant_ring(3)
    a = minimalize(ring, [(4, 1, 0), (0, 3, 2), (1, 0, 5), (2, 2, 2)])
    tau_module, polyhedra = sys.modules["tauideal.tau"], sys.modules["tauideal.polyhedra"]
    calls = Counter()

    def count(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.update([name]) or real(*args))

    count(tau_module, "exponent")
    for name in ("exponent", "int_vectors", "semigroup_columns"):
        if hasattr(polyhedra, name):  # where t*P(a) reads them
            count(polyhedra, name)
    count(MonomialIdeal, "__post_init__")
    tau(ring, a, Fraction(3, 2))
    assert calls == {"exponent": 1}
