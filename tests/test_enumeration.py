"""The semigroup walk and the proven degree bound of the up-set
enumerator, against references and brute force."""

import ast
import dataclasses
import inspect
import math
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import ge, mul
from random import Random

import pytest

import tauideal.enumeration as enumeration
import tauideal.errors
import tauideal.polyhedra as polyhedra
from tauideal.enumeration import (
    degree_bound,
    ell_vector,
    lattice_points_upto,
    least_offsets,
    minimal_upset_generators,
    shared,
    sharing,
    upset_union,
)
from tauideal.errors import DimensionMismatchError, InputError
from tauideal.frobenius import _socle_corners
from tauideal.ideals import maximal_ideal, minimalize, power
from tauideal.lattice import (
    IntVec,
    ToricRing,
    dual_extreme_rays,
    orthant_ring,
    pairing,
    toric_ring,
    vec_add,
    vec_scale,
    vec_sub,
)
from tauideal.polyhedra import lattice_inequalities, newton_polyhedron, scale
from tauideal.tau import tau, veronese_ring

from rings import TEST_RINGS

SQUARE_CONE = toric_ring([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
RINGS = {
    "orthant1": orthant_ring(1),
    "orthant2": orthant_ring(2),
    "orthant3": orthant_ring(3),
    "orthant4": orthant_ring(4),
    "veronese22": veronese_ring(2, 2),
    "veronese32": veronese_ring(3, 2),
    "square": SQUARE_CONE,
    "index5": toric_ring([(0, 1), (5, -2)]),
}


def ray_degree_sum(ring):
    """D, the sum of the d largest l-degrees over the extreme rays of sigma_dual."""
    ell = ell_vector(ring)
    return sum(sorted((pairing(r, ell) for r in ring.sigma_dual.rays), reverse=True)[:ring.d])


def dot(u, v):
    """The integer dot product, with no package code: the brute-force
    references below pair millions of times."""
    return sum(map(mul, u, v))


def brute_points(ring, top):
    """Every lattice point of sigma_dual with l <= top, in (l, lex) order,
    from a box that holds sum lambda_r r for sum lambda_r l(r) <= top."""
    ell = ell_vector(ring)
    rays = [(r, dot(r, ell)) for r in ring.sigma_dual.rays]
    span = [
        range(min(0, min(top * r[k] // deg for r, deg in rays)),
              max(0, max(-(-top * r[k] // deg) for r, deg in rays)) + 1)
        for k in range(ring.d)
    ]
    pts = [p for p in product(*span)
           if dot(p, ell) <= top and all(dot(p, n) >= 0 for n in ring.sigma.rays)]
    return sorted(pts, key=lambda p: (dot(p, ell), p))


def brute_minimal(ring, points, members):
    """Minimal members: those not y + s for a member y != m and s in sigma_dual.

    In (l, lex) order each y lies above a minimal member of no larger degree
    found before, so testing those alone suffices."""
    found = {}
    for m in points:
        if m in members:
            # m - g lies in sigma_dual iff it pairs >= 0 with every ray of sigma
            rc = [dot(m, n) for n in ring.sigma.rays]
            if not any(all(map(ge, rc, rg)) for rg in found.values()):
                found[m] = rc
    return list(found)


def slice_applies(ring, ineqs):
    return all(pairing(r, a) > 0 for a, _ in ineqs for r in ring.sigma_dual.rays)


def seeded_upsets():
    """(label, ring, pairs) for the up-sets of tau, integral closure and the
    socle corners of seeded ideals, at t with small numerator and denominator."""
    rng = Random(2026)
    cases = []
    for name, ring in RINGS.items():
        # generators from the first few degrees, 3 or 6 times the lowest ray's
        ell = ell_vector(ring)
        low = (3 if ring.d >= 3 else 6) * min(pairing(r, ell) for r in ring.sigma_dual.rays)
        pool = brute_points(ring, low)[1:]
        for i in range(8 if ring.d <= 3 else 5):
            gens = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            if i % 2:
                # a point on every ray of sigma_dual: every facet normal
                # pairs positively with the rays, and the slice bound applies
                for r in ring.sigma_dual.rays:
                    k = rng.randint(1, 3)
                    gens.append(tuple(k * x for x in r))
            a = minimalize(ring, gens)
            t = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            P = newton_polyhedron(ring, a.gens)
            tP = scale(P, t)
            cases.append((f"{name} tau {a.gens} t={t}", ring,
                          lattice_inequalities(tP, ring.w, strict=True)))
            cases.append((f"{name} closure {a.gens}", ring, lattice_inequalities(P)))
            q = rng.choice([2, 3, 4])
            for x in _socle_corners(ring, q):
                cases.append((f"{name} corner {x} q={q} {a.gens} t={t}", ring,
                              lattice_inequalities(tP, [Fraction(xi, q) for xi in x])))
        for c in (1, 2, 3):
            cases.append((f"{name} corner offsets c={c}", ring,
                          tuple((n, c) for n in ring.sigma.rays)))
    return cases


UPSETS = seeded_upsets()


def test_no_minimal_generator_lies_above_the_bound():
    branches = Counter()
    for label, ring, ineqs in UPSETS:
        bound = degree_bound(ring, ineqs)
        branches["slice" if slice_applies(ring, ineqs) else "caratheodory"] += 1
        ell = ell_vector(ring)
        points = brute_points(ring, bound + 2 * ray_degree_sum(ring))
        members = {m for m, f in zip(points, reference_inequality_batch(ineqs)(points)) if f}
        truth = brute_minimal(ring, points, members)
        assert truth, label
        assert max(pairing(m, ell) for m in truth) <= bound, label
        offsets = least_offsets(ring, [ineqs], bound)
        assert minimal_upset_generators(ring, offsets, bound) == truth, label
    # both arguments of degree_bound are exercised
    assert branches["slice"] >= 20 and branches["caratheodory"] >= 20, branches


def test_slice_bound_of_tau_of_m8_in_six_variables():
    ring = orthant_ring(6)
    P = newton_polyhedron(ring, power(maximal_ideal(ring), 8).gens)
    ineqs = lattice_inequalities(scale(P, 1), ring.w, strict=True)
    assert slice_applies(ring, ineqs)
    assert degree_bound(ring, ineqs) == 3


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
def test_slice_bound_reaches_the_origin_when_every_point_is_a_member(ring):
    # <m, l> >= -3 holds on all of sigma_dual, so the origin is the one
    # generator; k* below 0 once gave a negative bound and no generator
    ineqs = [(ell_vector(ring), -3)]
    assert slice_applies(ring, ineqs)
    assert degree_bound(ring, ineqs) >= 0
    assert upset_union(ring, [ineqs])[0] == ((0,) * ring.d,)


@pytest.mark.parametrize("d", range(1, 7))
def test_orthant_hilbert_basis_is_the_unit_vectors(d):
    ring = orthant_ring(d)
    units = [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
    assert sorted(enumeration._lines(ring).basis) == sorted(units)
    ell = ell_vector(ring)
    assert max(pairing(h, ell) for h in enumeration._lines(ring).basis) == 1


@pytest.mark.parametrize("ring", [SQUARE_CONE, veronese_ring(3, 2), RINGS["index5"]],
                         ids=["square", "veronese32", "index5"])
def test_hilbert_basis_against_brute_force_irreducibility(ring):
    # irreducible: nonzero and not a sum of two nonzero points, searched two
    # degrees past D
    ell = ell_vector(ring)
    D = ray_degree_sum(ring)
    points = brute_points(ring, D + 2)[1:]
    sums = {tuple(x + y for x, y in zip(u, v)) for u in points for v in points}
    irreducible = [p for p in points if p not in sums]
    assert list(enumeration._lines(ring).basis) == irreducible
    assert max(pairing(h, ell) for h in irreducible) == max(
        pairing(h, ell) for h in enumeration._lines(ring).basis)


@pytest.mark.parametrize("ring", TEST_RINGS, ids=range(len(TEST_RINGS)))
def test_the_lines_record_holds_the_grading_by_its_definitions(ring):
    # l(x) = sum <x, n> over the rays n of sigma, on seeded points; r the
    # (l, lex)-least extreme ray of sigma_dual; D the sum of the d largest
    # l(v) over those rays; H the largest l over the irreducible nonzero
    # points, all of degree at most D
    enumeration._lines.cache_clear()
    lines = enumeration._lines(ring)

    def l(x):
        return sum(pairing(x, n) for n in ring.sigma.rays)

    rng = Random(ring.d)
    for _ in range(20):
        x = tuple(rng.randint(-9, 9) for _ in range(ring.d))
        assert pairing(x, lines.ell) == l(x)
    degrees = sorted(l(v) for v in ring.sigma_dual.rays)
    assert (lines.lr, lines.r) == min((l(v), v) for v in ring.sigma_dual.rays)
    D = sum(degrees[-ring.d:])
    assert lines.D == D
    points = brute_points(ring, D)[1:]
    sums = {tuple(x + y for x, y in zip(u, v)) for u in points for v in points}
    assert lines.H == max(l(p) for p in points if p not in sums)


def test_doubling_loop_and_its_error_are_gone():
    for name in ("MAX_DOUBLINGS", "upper_degree_seed", "ray_degree_gap",
                 "EnumerationBoundError"):
        assert not hasattr(enumeration, name), name
    assert not hasattr(tauideal.errors, "EnumerationBoundError")
    assert not hasattr(tauideal, "EnumerationBoundError")


def _graded_points(ring: ToricRing, bound: int) -> list[IntVec]:
    # the enumerator before the semigroup walk, kept as the reference:
    # a recursion on the orthant, a coordinate box scan elsewhere
    if ring.is_orthant():
        pts: list[IntVec] = []

        def rec(prefix, remaining, k):
            if k == ring.d - 1:
                for x in range(remaining + 1):
                    pts.append(prefix + (x,))
                return
            for x in range(remaining + 1):
                rec(prefix + (x,), remaining - x, k + 1)

        rec((), bound, 0)
        pts.sort(key=lambda p: (sum(p), p))
        return pts

    ell = ell_vector(ring)
    lo = [0] * ring.d
    hi = [0] * ring.d
    corners = [tuple(Fraction(0) for _ in range(ring.d))]
    for r in ring.sigma_dual.rays:
        deg = pairing(r, ell)
        corners.append(tuple(Fraction(bound * x, deg) for x in r))
    for k in range(ring.d):
        vals = [c[k] for c in corners]
        lo[k] = math.floor(min(vals))
        hi[k] = math.ceil(max(vals))
    pts = []
    for p in product(*(range(lo[k], hi[k] + 1) for k in range(ring.d))):
        if pairing(p, ell) <= bound and ring.in_semigroup(p):
            pts.append(p)
    pts.sort(key=lambda p: (pairing(p, ell), p))
    return pts


WALK_RINGS = {
    **{f"orthant{d}": orthant_ring(d) for d in range(1, 7)},
    **{f"veronese{d}{r}": veronese_ring(d, r) for d, r in ((2, 2), (2, 3), (3, 2), (4, 2))},
    "square": SQUARE_CONE,
    "index5": RINGS["index5"],
    "cone_10_12": toric_ring([(1, 0), (1, 2)]),
}


@pytest.mark.parametrize("ring", WALK_RINGS.values(), ids=WALK_RINGS.keys())
def test_walk_matches_the_reference_in_any_order(ring):
    top = 2 * ray_degree_sum(ring)
    reference = {b: _graded_points(ring, b) for b in range(top + 1)}
    increasing = list(range(top + 1))
    shuffled = increasing[:]
    Random(top).shuffle(shuffled)
    for order in (increasing, increasing[::-1], shuffled):
        enumeration._lines.cache_clear()
        for warm in (False, True):
            for b in order:
                assert lattice_points_upto(ring, b) == reference[b], (b, order, warm)


@pytest.mark.parametrize("ring", WALK_RINGS.values(), ids=WALK_RINGS.keys())
def test_hilbert_basis_matches_the_reference_irreducibles(ring):
    # the former construction: the irreducibility filter over every point
    # of degree <= D, which holds every irreducible element
    irreducible = []
    for m in _graded_points(ring, ray_degree_sum(ring))[1:]:
        if not any(ring.in_semigroup(tuple(x - y for x, y in zip(m, h))) for h in irreducible):
            irreducible.append(m)
    enumeration._lines.cache_clear()
    assert enumeration._lines(ring).basis == tuple(irreducible)


def test_returned_points_do_not_alias_the_level_cache():
    ring = veronese_ring(2, 3)
    expected = _graded_points(ring, 9)
    first = lattice_points_upto(ring, 9)
    first[0] = (-1, -1)
    first.append((99, 99))
    del first[3:7]
    assert lattice_points_upto(ring, 9) == expected
    shorter = lattice_points_upto(ring, 6)
    shorter.clear()
    assert lattice_points_upto(ring, 6) == _graded_points(ring, 6)


def test_enumeration_has_one_path():
    # no orthant fork and no rational box scan are left in the enumerator
    tree = ast.parse(inspect.getsource(enumeration))
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "is_orthant" not in attributes
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "Fraction" not in imported and "fractions" not in imported | modules
    assert not hasattr(enumeration, "_graded_points")


# -- reference: the per-point membership test --------------------------------
# Kept here only to check the per-line offsets and the pair sets against.

def reference_inequality_batch(ineqs):
    def batch(points):
        return [all(sum(map(mul, m, a)) >= c for a, c in ineqs) for m in points]

    return batch


TEN_RINGS = {
    name: WALK_RINGS[name]
    for name in ("orthant1", "orthant2", "orthant3", "orthant4", "veronese22",
                 "veronese23", "veronese32", "square", "index5", "cone_10_12")
}


def line_of(ring, p):
    """(b, j) with p = b + j*r on the line of its bottom b, r the kernel's
    ray, by the floor rule: j = min floor(<p, n>/<r, n>) over the rays n of
    sigma with <r, n> > 0."""
    r = enumeration._lines(ring).r
    j = min(pairing(p, n) // pairing(r, n) for n in ring.sigma.rays if pairing(r, n) > 0)
    return tuple(x - j * y for x, y in zip(p, r)), j


def offset_flags(ring, ineq_sets, points):
    """Membership of each point in the union of the pair sets' up-sets, read
    off the least offsets of its line: p = b + j*r is a member iff j is at
    least the least offset of b."""
    ell = ell_vector(ring)
    bound = max((pairing(p, ell) for p in points), default=0)
    lines = [line_of(ring, p) for p in points]
    offsets = least_offsets(ring, ineq_sets, bound)([b for b, _ in lines])
    return [j >= k for (_, j), k in zip(lines, offsets)]


@pytest.mark.parametrize("ring", TEN_RINGS.values(), ids=TEN_RINGS.keys())
def test_inequality_batch_matches_the_per_point_reference(ring):
    # named for the packed predicate the per-line offsets replaced: the
    # offsets must give the per-point reference's verdict on every point,
    # also past 64 bits, where a fixed-width pairing would wrap
    rng = Random(3131)
    big = 2**64 + 7
    points = lattice_points_upto(ring, 8)
    seen = Counter()
    for _ in range(15):
        gens = rng.sample(points[1:], rng.randint(1, min(4, len(points) - 1)))
        tP = scale(newton_polyhedron(ring, gens), rng.choice((Fraction(1, 2), 1, Fraction(3, 2))))
        facets = list(lattice_inequalities(tP))
        systems = (
            facets,
            [(a, c + big) for a, c in facets],
            [(n, rng.randint(1, 3)) for n in ring.sigma.rays],
            [],
        )
        sample = rng.sample(points, rng.randint(1, len(points)))
        lifted = [
            tuple(x + big * y for x, y in zip(p, rng.choice(ring.sigma_dual.rays)))
            for p in sample
        ]
        for ineqs in systems:
            for pts in (sample, lifted, []):
                got = offset_flags(ring, [ineqs], pts)
                assert got == reference_inequality_batch(ineqs)(pts), (ineqs, pts)
                seen.update(got)
        # the reference's zip drops the extra entry or the missing one
        for bad in ((1,) * (ring.d + 1), (0,) * (ring.d - 1)):
            with pytest.raises(DimensionMismatchError):
                least_offsets(ring, [facets], 8)(sample + [bad])
    assert seen[True] >= 100 and seen[False] >= 100, seen


# -- reference: degree_bound on Fraction vertices --------------------------------
# degree_bound as it was before the Caratheodory branch read the homogeneous
# integer rays of its vertex DD, and the vertices of a region of inequalities
# as Fractions from one DD of its own, kept here only to check the integer
# version and ``NewtonPolyhedron.vertices`` against.

def reference_inequality_vertices(recession, ineqs):
    d = recession.dim
    halfspaces = []
    for a, c in ineqs:
        c = Fraction(c)
        halfspaces.append(tuple(c.denominator * x for x in a) + (-c.numerator,))
    halfspaces += [n + (0,) for n in recession.halfspaces]
    halfspaces.append((0,) * d + (1,))
    return [
        tuple(Fraction(x, e[d]) for x in e[:d])
        for e in dual_extreme_rays(halfspaces)
        if e[d] > 0
    ]


def reference_degree_bound(ring, ineqs):
    ell = ell_vector(ring)
    slopes = [
        (c, pairing(r, ell), sum(map(mul, r, a)))
        for a, c in ineqs
        for r in ring.sigma_dual.rays
    ]
    if all(ra > 0 for _, _, ra in slopes):
        k_star = max((-(-c * deg // ra) for c, deg, ra in slopes), default=0)
        return k_star + pairing(enumeration._lines(ring).basis[-1], ell) - 1
    top = max(pairing(v, ell) for v in reference_inequality_vertices(ring.sigma_dual, ineqs))
    return math.ceil(top) + ray_degree_sum(ring) - 1


def test_degree_bound_matches_the_fraction_reference():
    branches = Counter()
    for label, ring, ineqs in UPSETS:
        bound = degree_bound(ring, ineqs)
        assert bound == reference_degree_bound(ring, ineqs), label
        assert type(bound) is int, label
        branches["slice" if slice_applies(ring, ineqs) else "caratheodory"] += 1
    assert branches["slice"] >= 20 and branches["caratheodory"] >= 20, branches


def test_kernel_matches_brute_force_with_any_larger_offset_above_the_bound():
    # the kernel against brute force on the up-sets and on the integer
    # pairs of scaled Newton polyhedra (``lattice_inequalities``, which cut
    # out the same lattice points as their facets), given the exact offsets
    # and given offsets raised wherever their point lies above the bound,
    # as the callback contract allows
    rng = Random(5151)
    cases = list(UPSETS)
    for name, ring in TEN_RINGS.items():
        pool = lattice_points_upto(ring, 4)[1:]
        for _ in range(4):
            gens = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            t = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            cases.append((f"{name} {gens} t={t}", ring,
                          lattice_inequalities(scale(newton_polyhedron(ring, gens), t))))
    branches, raised, crowded = Counter(), Counter(), Counter()
    for label, ring, ineqs in cases:
        bound = degree_bound(ring, ineqs)
        branch = "slice" if slice_applies(ring, ineqs) else "caratheodory"
        branches[branch] += 1
        ell = ell_vector(ring)
        points = brute_points(ring, bound)
        members = {
            m for m, f in zip(points, reference_inequality_batch(ineqs)(points)) if f
        }
        truth = brute_minimal(ring, points, members)
        exact = least_offsets(ring, [ineqs], bound)
        lines = enumeration._lines(ring)

        def larger_above(bottoms):
            offsets = exact(bottoms)
            for i, (b, k) in enumerate(zip(bottoms, offsets)):
                if pairing(b, ell) + k * lines.lr > bound:
                    offsets[i] += rng.randint(1, 5)
                    raised[branch] += 1
            return offsets

        for offsets in (exact, larger_above):
            assert minimal_upset_generators(ring, offsets, bound) == truth, label
        # the kernel skips the tests of candidates of the least degree; one
        # degree higher a line's least member is often not minimal, so a
        # skip of that degree too would keep it
        least = min(pairing(g, ell) for g in truth)
        bottoms = [b for b in lines.flat if pairing(b, ell) <= bound]
        heads = {vec_add(b, vec_scale(k, lines.r)) for b, k in zip(bottoms, exact(bottoms))}
        crowded[branch] += any(
            pairing(m, ell) == least + 1 <= bound and m not in truth for m in heads
        )
    assert branches["slice"] >= 20 and branches["caratheodory"] >= 20, branches
    # in the slice branch every point of degree k* or more is a member, and
    # l(r) <= H, so the least member of each line lies at or below the bound
    assert raised["slice"] == 0 and raised["caratheodory"] >= 20, raised
    assert crowded["slice"] >= 10 and crowded["caratheodory"] >= 10, (crowded, branches)


@pytest.mark.parametrize("d", range(2, 6))
def test_no_neighbour_is_computed_when_every_generator_has_the_least_degree(d, monkeypatch):
    # tau(m^n) = m^(n - d + 1) on the orthant, and the slice bound is
    # n - d + 1 too, so every candidate has the least degree of a member
    # and is minimal untested
    ring = orthant_ring(d)
    calls = []
    real = enumeration._Lines.neighbours
    monkeypatch.setattr(
        enumeration._Lines, "neighbours", lambda lines, b: calls.append(b) or real(lines, b)
    )
    m = maximal_ideal(ring)
    for n in range(d, d + 3):
        assert tau(ring, power(m, n), 1) == power(m, n - d + 1), n
    assert calls == []


def test_upset_union_makes_one_vertex_dd_per_caratheodory_set(monkeypatch):
    # the degree bound comes from one _vertex_rays call, and the slice
    # branch makes none; counted on single sets and on pairs of sets
    calls = []
    real = enumeration._vertex_rays
    monkeypatch.setattr(
        enumeration, "_vertex_rays", lambda *args: calls.append(args) or real(*args)
    )
    by_ring = {}
    for _, ring, ineqs in UPSETS:
        if not all(a in ring.sigma.rays for a, _ in ineqs):  # boxes may be realized
            by_ring.setdefault(ring, []).append(ineqs)
    caratheodory = 0
    for ring, sets in by_ring.items():
        for chosen in [[a] for a in sets] + [list(pair) for pair in zip(sets, sets[1:])]:
            calls.clear()
            upset_union(ring, chosen)
            expected = sum(not slice_applies(ring, ineqs) for ineqs in chosen)
            assert len(calls) == expected, chosen
            caratheodory += expected
    assert caratheodory >= 20, caratheodory


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9, 16])
def test_packed_fields_at_the_edge_of_their_width(width):
    # named for the byte widths at which the packed predicate the per-line
    # offsets replaced changed its field width: edge is the largest |sum| a
    # field of `width` bytes held with its guard bit; each case puts a
    # pairing, a threshold or an offset exactly at it, and one past it
    edge = 2 ** (8 * width - 1) - 1
    line, plane = orthant_ring(1), orthant_ring(2)
    cases = []
    for e in (edge, edge + 1):
        p = (e - e % 8) // 8
        cases += [
            (line, [(0,), (e,), (e // 2,)], [((1,), 0)]),  # a point at e
            (line, [(0,), (e - 1,), (e,)], [((1,), e)]),  # a threshold and offset at +e
            (line, [(0,), (1,)], [((1,), -e)]),  # ... and at -e
            (line, [(0,), (e // 2,), (e // 2 + 1,)], [((2,), e)]),  # <r, a> = 2
            # <r, a> = 0 on r = (0, 1): the line holds every point or none
            (plane, [(e, 0), (e - 1, 0), (e, p), (e - 1, p)], [((1, 0), e)]),
            # two coordinates: sum a_i * p + c = e
            (plane, [(0, 0), (p, 0), (0, p), (p, p)], [((3, 5), e % 8)]),
            (plane, [(0, 0), (p, 0), (0, p), (p, p)], [((3, 5), 8 * p), ((2, 6), 0)]),
            (plane, [(0, 0), (p, 0), (0, p), (p, p)], [((5, 3), e - e % 8)]),
        ]
    seen = Counter()
    for ring, points, ineqs in cases:
        want = reference_inequality_batch(ineqs)(points)
        assert offset_flags(ring, [ineqs], points) == want, (points, ineqs)
        # in a union with a set that admits nothing
        nothing = [((0,) * ring.d, 1)]
        assert offset_flags(ring, [nothing, ineqs], points) == want
        seen.update(want)
    assert seen[True] >= 20 and seen[False] >= 10, seen


def test_vertex_rays_give_the_vertices():
    # the integer pairs of the up-sets, and those of scaled Newton
    # polyhedra with large and small t (``lattice_inequalities``)
    rng = Random(2727)
    cases = [(label, ring, ineqs) for label, ring, ineqs in UPSETS]
    for name, ring in RINGS.items():
        pool = lattice_points_upto(ring, 6)[1:]
        for t in (Fraction(5, 3), Fraction(10**18 + 1, 7), Fraction(1, 10**18)):
            P = scale(newton_polyhedron(ring, rng.sample(pool, min(3, len(pool)))), t)
            cases.append((f"{name} t={t}", ring, lattice_inequalities(P)))
    for label, ring, ineqs in cases:
        rays = polyhedra._vertex_rays(ring.sigma_dual, ineqs)
        assert all(type(x) is int and e[-1] > 0 for e in rays for x in e), label
        assert sorted(tuple(Fraction(x, e[-1]) for x in e[:-1]) for e in rays) == sorted(
            reference_inequality_vertices(ring.sigma_dual, ineqs)
        ), label


def test_upset_union_matches_brute_force_on_pairs_of_upsets():
    by_ring = {}
    for label, ring, ineqs in UPSETS:
        by_ring.setdefault(ring, []).append((label, ineqs))
    for ring, sets in by_ring.items():
        for (la, a), (lb, b) in zip(sets, sets[1:]):
            bound = max(degree_bound(ring, a), degree_bound(ring, b))
            points = brute_points(ring, bound + 2 * ray_degree_sum(ring))
            members = {
                m for m, fa, fb in zip(points, reference_inequality_batch(a)(points),
                                       reference_inequality_batch(b)(points))
                if fa or fb
            }
            gens, tested = upset_union(ring, [a, b])
            assert gens == tuple(sorted(brute_minimal(ring, points, members))), (la, lb)
            # a box (every normal a ray of sigma) may be realized by one point
            # and leave the enumeration; two other sets are scanned together
            if not any(all(n in ring.sigma.rays for n, _ in s) for s in (a, b)):
                # exactly the lines of the bottoms of degree <= bound: the
                # points p with p - r outside sigma_dual
                r, ell = enumeration._lines(ring).r, ell_vector(ring)
                bottoms = [p for p in points if pairing(p, ell) <= bound
                           and not ring.in_semigroup(vec_sub(p, r))]
                assert tested == len(bottoms), (la, lb)


# -- the sharing scope --------------------------------------------------------

def _counter():
    calls = []

    def compute():
        calls.append(None)
        return len(calls)

    return compute


def test_shared_computes_once_per_key_inside_a_block_and_always_outside():
    compute = _counter()
    assert [shared("k", compute) for _ in range(2)] == [1, 2]
    with sharing():
        assert [shared("k", compute) for _ in range(2)] == [3, 3]
        assert shared("j", compute) == 4
        with sharing():  # an inner block starts empty and ends with itself
            assert shared("k", compute) == 5
        assert shared("k", compute) == 3
    assert shared("k", compute) == 6


def test_a_block_that_raised_leaves_nothing_behind():
    compute = _counter()
    with pytest.raises(RuntimeError):
        with sharing():
            assert shared("k", compute) == 1
            raise RuntimeError("inside the block")
    assert shared("k", compute) == 2
    with sharing():
        assert shared("k", compute) == 3


def _count_builds(monkeypatch):
    """Count Newton polyhedra built through tau's binding and enumerations."""
    import sys

    counts = Counter()
    for module, name in ((sys.modules["tauideal.tau"], "newton_polyhedron"),
                         (enumeration, "minimal_upset_generators")):
        real = getattr(module, name)

        def counted(*args, real=real, name=name, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_tau_shares_a_key_only_for_the_same_ideal_and_pairs(monkeypatch):
    ring = orthant_ring(2)
    a = minimalize(ring, [(6, 0), (3, 2), (0, 5)])
    b = minimalize(ring, [(4, 0), (1, 2), (0, 5)])
    requests = [(a, 1), (a, 1), (a, Fraction(1, 2)), (b, 1)]
    outside = [tau(ring, ideal, t) for ideal, t in requests]
    counts = _count_builds(monkeypatch)
    assert [tau(ring, ideal, t) for ideal, t in requests] == outside
    assert counts == {"newton_polyhedron": 4, "minimal_upset_generators": 4}
    counts.clear()
    with sharing():
        assert [tau(ring, ideal, t) for ideal, t in requests] == outside
    # P(a) holds no t, so a and b are built once each; the pairs carry t,
    # so only the repeated (a, 1) reuses an enumeration
    assert counts == {"newton_polyhedron": 2, "minimal_upset_generators": 3}


def test_the_line_cache_holds_bottoms_only_after_tau():
    # the one per-ring cache is the lines' bottoms b (b - r outside
    # sigma_dual); no expanded point of a line is kept
    enumeration._lines.cache_clear()
    ring = orthant_ring(3)
    a = minimalize(ring, [(4, 1, 0), (0, 3, 2), (1, 0, 5), (2, 2, 2)])
    assert len(tau(ring, a, 16).gens) == 1328
    lines = enumeration._lines(ring)
    assert len(lines.flat) > 1
    for b in lines.flat:
        assert not ring.in_semigroup(vec_sub(b, lines.r)), b


# upset_union and degree_bound check everything they read, at their entry:
# each of these gave a silent answer (the first four), a bare TypeError (the
# float normal) or a bare ValueError (the pair of three)
BAD_KERNEL_INPUTS = {
    "box of the wrong length": (
        lambda R: upset_union(R, [], [(1, 0, 0)]), DimensionMismatchError),
    "box with a float entry": (lambda R: upset_union(R, [], [(1.5, 0)]), InputError),
    "union normal outside sigma": (lambda R: upset_union(R, [[((-1, 1), 1)]]), InputError),
    "bound normal outside sigma": (lambda R: degree_bound(R, [((-1, 1), 1)]), InputError),
    "float normal": (lambda R: upset_union(R, [[((1.5, 1), 1)]]), InputError),
    "pair of three": (lambda R: upset_union(R, [[((1, 0), 1, 2)]]), InputError),
    # and the rest of each kind
    "box with a negative entry": (lambda R: upset_union(R, [], [(-1, 0)]), InputError),
    "box that is not a sequence": (lambda R: upset_union(R, [], [None]), InputError),
    "normal of the wrong length": (
        lambda R: degree_bound(R, [((1, 0, 0), 1)]), DimensionMismatchError),
    "pair that is not a sequence": (lambda R: degree_bound(R, [5]), InputError),
    "float bound": (lambda R: upset_union(R, [[((1, 1), 2)]], bound=2.5), InputError),
}


@pytest.mark.parametrize("case", sorted(BAD_KERNEL_INPUTS))
def test_the_kernel_entry_checks_its_boxes_and_pairs(case):
    call, error = BAD_KERNEL_INPUTS[case]
    with pytest.raises(error):
        call(orthant_ring(2))


def test_compiled_pairs_are_checked_at_the_entry_like_any_pairs():
    # lattice_inequalities hands over plain pairs: on P's ring they give
    # what the same pairs give as a tuple
    ring = orthant_ring(2)
    ineqs = lattice_inequalities(newton_polyhedron(ring, [(0, 1)]))
    assert ineqs == (((0, 1), 1),)
    assert upset_union(ring, [ineqs]) == upset_union(ring, [tuple(ineqs)])
    assert degree_bound(ring, ineqs) == degree_bound(ring, tuple(ineqs))
    # on another ring they are checked: (0, 1) lies outside this sigma
    other = toric_ring([(1, 0), (1, 2)])
    with pytest.raises(InputError):
        upset_union(other, [ineqs])
    with pytest.raises(InputError):
        degree_bound(other, ineqs)
    # a hand-built polyhedron with a facet normal outside sigma compiles to
    # pairs the entries refuse on P's own ring too (the union was once the
    # silent (((0, 1),), 3))
    P = newton_polyhedron(ring, [(0, 1)])
    bad = lattice_inequalities(dataclasses.replace(P, bounds=(((-1, 1), 1),)))
    assert bad == (((-1, 1), 1),)
    with pytest.raises(InputError):
        upset_union(ring, [bad])
    with pytest.raises(InputError):
        degree_bound(ring, bad)
