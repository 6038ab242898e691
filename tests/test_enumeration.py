"""The semigroup walk and the proven degree bound of the up-set
enumerator, against references and brute force."""

import ast
import inspect
import math
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import mul
from random import Random

import pytest

import tauideal.enumeration as enumeration
import tauideal.errors
from tauideal.enumeration import (
    degree_bound,
    ell_vector,
    hilbert_basis,
    inequality_batch,
    lattice_points_upto,
    minimal_upset_generators,
)
from tauideal.errors import DimensionMismatchError
from tauideal.frobenius import _socle_corners
from tauideal.ideals import maximal_ideal, minimalize, power
from tauideal.lattice import IntVec, ToricRing, orthant_ring, pairing, toric_ring
from tauideal.polyhedra import lattice_inequalities, newton_polyhedron, scale
from tauideal.tau import veronese_ring

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


def brute_points(ring, top):
    """Every lattice point of sigma_dual with l <= top, in (l, lex) order,
    from a box that holds sum lambda_r r for sum lambda_r l(r) <= top."""
    ell = ell_vector(ring)
    rays = [(r, pairing(r, ell)) for r in ring.sigma_dual.rays]
    span = [
        range(min(0, min(top * r[k] // deg for r, deg in rays)),
              max(0, max(-(-top * r[k] // deg) for r, deg in rays)) + 1)
        for k in range(ring.d)
    ]
    pts = [p for p in product(*span)
           if pairing(p, ell) <= top and all(pairing(p, n) >= 0 for n in ring.sigma.rays)]
    return sorted(pts, key=lambda p: (pairing(p, ell), p))


def brute_minimal(ring, points, members):
    """Minimal members: those not y + s for a member y != m and s in sigma_dual.

    In (l, lex) order each y lies above a minimal member of no larger degree
    found before, so testing those alone suffices."""
    found = []
    for m in points:
        if m in members and not any(
            all(pairing(m, n) - pairing(g, n) >= 0 for n in ring.sigma.rays) for g in found
        ):
            found.append(m)
    return found


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
        batch = inequality_batch(ineqs)
        members = {m for m, f in zip(points, batch(points)) if f}
        truth = brute_minimal(ring, points, members)
        assert truth, label
        assert max(pairing(m, ell) for m in truth) <= bound, label
        assert minimal_upset_generators(ring, batch, bound) == truth, label
    # both arguments of degree_bound are exercised
    assert branches["slice"] >= 20 and branches["caratheodory"] >= 20, branches


def test_slice_bound_of_tau_of_m8_in_six_variables():
    ring = orthant_ring(6)
    P = newton_polyhedron(ring, power(maximal_ideal(ring), 8).gens)
    ineqs = lattice_inequalities(scale(P, 1), ring.w, strict=True)
    assert slice_applies(ring, ineqs)
    assert degree_bound(ring, ineqs) == 3


@pytest.mark.parametrize("d", range(1, 7))
def test_orthant_hilbert_basis_is_the_unit_vectors(d):
    ring = orthant_ring(d)
    units = [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
    assert sorted(hilbert_basis(ring)) == sorted(units)
    ell = ell_vector(ring)
    assert max(pairing(h, ell) for h in hilbert_basis(ring)) == 1


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
    assert list(hilbert_basis(ring)) == irreducible
    assert max(pairing(h, ell) for h in irreducible) == max(
        pairing(h, ell) for h in hilbert_basis(ring))


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


def clear_enumeration_caches():
    enumeration._levels.cache_clear()
    hilbert_basis.cache_clear()


@pytest.mark.parametrize("ring", WALK_RINGS.values(), ids=WALK_RINGS.keys())
def test_walk_matches_the_reference_in_any_order(ring):
    top = 2 * ray_degree_sum(ring)
    reference = {b: _graded_points(ring, b) for b in range(top + 1)}
    increasing = list(range(top + 1))
    shuffled = increasing[:]
    Random(top).shuffle(shuffled)
    for order in (increasing, increasing[::-1], shuffled):
        clear_enumeration_caches()
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
    clear_enumeration_caches()
    assert hilbert_basis(ring) == tuple(irreducible)


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


# -- reference: inequality_batch before pairing_columns ----------------------
# The per-point test, kept here only to check the column-wise batch against.

def reference_inequality_batch(ineqs):
    def batch(points):
        return [all(sum(map(mul, m, a)) >= c for a, c in ineqs) for m in points]

    return batch


TEN_RINGS = {
    name: WALK_RINGS[name]
    for name in ("orthant1", "orthant2", "orthant3", "orthant4", "veronese22",
                 "veronese23", "veronese32", "square", "index5", "cone_10_12")
}


@pytest.mark.parametrize("ring", TEN_RINGS.values(), ids=TEN_RINGS.keys())
def test_inequality_batch_matches_the_per_point_reference(ring):
    rng = Random(3131)
    big = 2**64 + 7  # past 64 bits, where a fixed-width pairing would wrap
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
                got = inequality_batch(ineqs)(pts)
                assert got == reference_inequality_batch(ineqs)(pts), (ineqs, pts)
                seen.update(got)
        # the reference's zip drops the extra entry or the missing one
        for bad in ((1,) * (ring.d + 1), (0,) * (ring.d - 1)):
            with pytest.raises(DimensionMismatchError):
                inequality_batch(facets)(sample + [bad])
    assert seen[True] >= 100 and seen[False] >= 100, seen
