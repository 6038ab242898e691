"""The line scan of the up-set kernel against brute force, and every route
through it against the walk-and-test kernel it replaced, kept here only as
the reference."""

import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from random import Random

import pytest

import tauideal.enumeration as enumeration_module
import tauideal.frobenius as frobenius_module
from tauideal.enumeration import (
    _lines,
    degree_bound,
    ell_vector,
    hilbert_basis,
    lattice_points_upto,
    upset_union,
)
from tauideal.errors import TauIdealError
from tauideal.frobenius import (
    frobenius_root_tau_oracle,
    in_star_E,
    tau_socle_oracle,
)
from tauideal.ideals import colon, integral_closure, intersect, minimalize, trace_root
from tauideal.lattice import (
    _points,
    minimal_vectors_orthant,
    pairing,
    pairing_columns,
    vec_sub,
)
from tauideal.polyhedra import lattice_inequalities, newton_polyhedron, scale
from tauideal.tau import tau

from rings import TEST_RINGS


def member(ineqs, m):
    return all(pairing(m, a) >= c for a, c in ineqs)


# -- reference: the walk-and-test kernel -------------------------------------

def reference_minimal_upset_generators(ring, is_member, bound):
    """Test every walked point of degree up to bound, then keep the members
    m with no member m - h, h in the Hilbert basis."""
    points = lattice_points_upto(ring, bound)
    members = {m for m in points if is_member(m)}
    return [
        m for m in points
        if m in members and not any(vec_sub(m, h) in members for h in hilbert_basis(ring))
    ]


def reference_union(ring, ineq_sets, boxes=(), bound=None, rows=False):
    """The kernel's core ``_union`` with the walk-and-test kernel: realized boxes as
    there, the rest of the union tested point by point over its degree
    shell.  A caller's bound is taken and not used: the shell is bounded by
    ``degree_bound`` with its double description.  The answer is the
    generators and their ray coordinates, aligned; with ``rows`` the
    generators' sorted ray coordinates alone."""
    gens, count = _reference_union(ring, ineq_sets, boxes)
    coords = list(zip(*pairing_columns(gens, ring.sigma.rays)))
    if rows:
        return sorted(coords), count
    return (gens, coords), count


def _reference_union(ring, ineq_sets, boxes):
    rays = ring.sigma.rays
    bounds, others = list(boxes), []
    for ineqs in map(tuple, ineq_sets):
        if all(a in rays for a, _ in ineqs):
            bounds.append(tuple(max([0, *(c for a, c in ineqs if a == n)]) for n in rays))
        else:
            others.append(ineqs)
    realized = {}
    if bounds:
        tops = minimal_vectors_orthant(bounds)
        coords = zip(*pairing_columns(_points(ring, tops), rays))
        realized = {v: m for v, m, rc in zip(tops, _points(ring, tops), coords) if rc == v}
        others += [tuple(zip(rays, v)) for v in tops if v not in realized]
    if not others:
        return tuple(sorted(realized.values())), 0
    bound = max(degree_bound(ring, ineqs) for ineqs in others)
    gens = reference_minimal_upset_generators(
        ring, lambda m: any(member(ineqs, m) for ineqs in others), bound
    )
    if realized:
        realized.update(zip(zip(*pairing_columns(gens, rays)), gens))
        gens = [realized[rc] for rc in minimal_vectors_orthant(realized)]
    return tuple(sorted(gens)), len(lattice_points_upto(ring, bound))


# -- brute force --------------------------------------------------------------

def brute_points(ring, top):
    """Every lattice point of sigma_dual with l <= top, from a coordinate box
    that holds the convex hull of 0 and the points top*r/l(r)."""
    ell = ell_vector(ring)
    rays = [(r, pairing(r, ell)) for r in ring.sigma_dual.rays]
    span = [
        range(min(0, min(top * r[k] // deg for r, deg in rays)),
              max(0, max(-(-top * r[k] // deg) for r, deg in rays)) + 1)
        for k in range(ring.d)
    ]
    return [p for p in product(*span) if pairing(p, ell) <= top and ring.in_semigroup(p)]


def brute_minimal(ring, members):
    """The members not of the form y + s with y another member, s in sigma_dual.

    In (l, lex) order each such y lies above a minimal member of no larger
    degree found before, so testing those alone suffices."""
    ell = ell_vector(ring)
    found = []
    for m in sorted(members, key=lambda p: (pairing(p, ell), p)):
        if not any(ring.in_semigroup(vec_sub(m, g)) for g in found):
            found.append(m)
    return sorted(found)


@pytest.mark.parametrize("ring", TEST_RINGS, ids=range(len(TEST_RINGS)))
def test_bottoms_and_the_floor_rule_against_brute_force(ring):
    lines = _lines(ring)
    r = lines.r
    ell = ell_vector(ring)
    # r is the (l, lex)-least extreme ray of sigma_dual and a Hilbert basis element
    assert r == min(ring.sigma_dual.rays, key=lambda v: (pairing(v, ell), v))
    assert r in hilbert_basis(ring)
    walked = lattice_points_upto(ring, 8)
    assert sorted(walked) == sorted(brute_points(ring, 8))
    lines.grow(8)
    bottoms = [b for b, e in zip(lines.flat, lines.degrees) if e <= 8]
    assert all(lines.flat[lines.pos[b]] == b for b in bottoms)
    assert len(set(bottoms)) == len(bottoms)
    assert set(bottoms) == {p for p in walked if not ring.in_semigroup(vec_sub(p, r))}
    assert [pairing(b, ell) for b in bottoms] == sorted(pairing(b, ell) for b in bottoms)
    plus = [n for n in ring.sigma.rays if pairing(r, n) > 0]
    for p in walked:
        j = min(pairing(p, n) // pairing(r, n) for n in plus)
        assert tuple(x - j * y for x, y in zip(p, r)) in set(bottoms), p


@pytest.mark.parametrize("ring", TEST_RINGS, ids=range(len(TEST_RINGS)))
def test_upset_union_matches_brute_force_on_random_pair_sets(ring):
    # facets of scaled Newton polyhedra, shifted by w or a socle-like
    # fraction of it, and ray boxes; one to three sets per union
    rng = Random(4242)
    pool = lattice_points_upto(ring, 5)[1:]
    for _ in range(6):
        sets = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.2:
                sets.append([(n, rng.randint(0, 3)) for n in ring.sigma.rays])
                continue
            gens = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            t = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            tP = scale(newton_polyhedron(ring, gens), t)
            shift = rng.choice([None, ring.w, tuple(Fraction(1, 3) * x for x in ring.w)])
            sets.append(lattice_inequalities(tP, shift, strict=shift is ring.w))
        bound = max(degree_bound(ring, ineqs) for ineqs in sets)
        members = [p for p in brute_points(ring, bound)
                   if any(member(ineqs, p) for ineqs in sets)]
        assert upset_union(ring, sets)[0] == tuple(brute_minimal(ring, members)), sets


# -- the socle oracle's own degree bound --------------------------------------

def socle_kernel_calls(ring, seed, monkeypatch):
    """(pair sets, bound) of the kernel call of each tau_socle_oracle call
    on seeded ideals of the ring at t = 0, 7/3 and a t of denominator
    1000003, at p = 2 and 3 with qmax = p**2."""
    calls = []
    real = frobenius_module._union

    def recorded(ring, sets, boxes=(), bound=None, rows=False):
        calls.append((sets, bound))
        return real(ring, sets, boxes, bound, rows)

    monkeypatch.setattr(frobenius_module, "_union", recorded)
    rng = Random(seed)
    pool = lattice_points_upto(ring, 4)[1:]
    for _ in range(2):
        a = minimalize(ring, rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        for t in (0, Fraction(7, 3), Fraction(rng.randint(10**6 + 4, 2 * 10**6 + 5), 10**6 + 3)):
            for p in (2, 3):
                tau_socle_oracle(ring, a, t, qmax=p**2, p=p)
    return calls


@pytest.mark.parametrize("ring", TEST_RINGS, ids=range(len(TEST_RINGS)))
def test_socle_bound_holds_on_every_corner_upset(ring, monkeypatch):
    # every minimal generator of every corner's up-set, found by brute force
    # up to the double description's bound as well, has degree <= the bound
    ell = ell_vector(ring)
    calls = socle_kernel_calls(ring, 6060 + len(ring.sigma.rays) * ring.d, monkeypatch)
    assert len(calls) == 12
    for sets, bound in calls:
        for ineqs in sets:
            top = max(bound, degree_bound(ring, ineqs))
            members = [m for m in brute_points(ring, top) if member(ineqs, m)]
            degrees = [pairing(m, ell) for m in brute_minimal(ring, members)]
            assert max(degrees) <= bound, (ineqs, bound, degrees)


@pytest.mark.parametrize("ring", TEST_RINGS, ids=range(len(TEST_RINGS)))
def test_socle_oracle_runs_no_vertex_double_description(ring, monkeypatch):
    # the corners' pair sets are bounded by the oracle's own bound or the
    # slice argument; the ring's corners, a box union cached per ring and q
    # that keeps the box's double description, are computed first
    for q in (4, 9):
        frobenius_module._socle_corners(ring, q)
    vertex_dds = []
    real = enumeration_module._vertex_rays
    monkeypatch.setattr(
        enumeration_module, "_vertex_rays", lambda *args: vertex_dds.append(args) or real(*args)
    )
    assert socle_kernel_calls(ring, 7070, monkeypatch)
    assert vertex_dds == []


# -- the seeded comparison ----------------------------------------------------

ROUTE_KINDS = {"tau", "socle", "star", "root", "closure", "intersect", "colon", "trace_root"}


def route_outputs(seed, enter=lambda kind: None):
    """Every route through the up-set kernel on seeded ideals of TEST_RINGS;
    ``enter`` is called with each route's kind before the route runs."""
    rng = Random(seed)
    out = []

    def run(kind, *key_and_call):
        *key, call = key_and_call
        enter(kind)
        out.append((kind, *key, call()))

    for ring in TEST_RINGS:
        pool = lattice_points_upto(ring, 4)[1:]
        for _ in range(2):
            a = minimalize(ring, rng.sample(pool, rng.randint(1, min(3, len(pool)))))
            b = minimalize(ring, rng.sample(pool, rng.randint(1, min(3, len(pool)))))
            for t in (0, Fraction(1, 2), 1, Fraction(5, 2), 4):
                run("tau", a.gens, t, lambda: tau(ring, a, t).gens)
            for t in (Fraction(1, 2), 1):
                for p in (2, 3):
                    run("socle", a.gens, t, p,
                        lambda: tau_socle_oracle(ring, a, t, qmax=8, p=p).ideal.gens)
                u = tuple(-x for x in rng.choice(pool))
                run("star", a.gens, t, u, lambda: in_star_E(ring, a, t, u, qmax=8))

                def root():
                    try:
                        return frobenius_root_tau_oracle(ring, a, t, qmax=32).gens
                    except TauIdealError as exc:
                        return type(exc).__name__

                run("root", a.gens, t, root)
            run("closure", a.gens, lambda: integral_closure(a).gens)
            run("intersect", a.gens, b.gens, lambda: intersect(a, b).gens)
            run("colon", a.gens, b.gens, lambda: colon(a, b).gens)
            # the q <= 6 with (q-1)*w a lattice point, at least one q > 1 on each ring
            for q in range(1, 7):
                if (q - 1) % ring.gorenstein_index == 0:
                    run("trace_root", a.gens, q, lambda: trace_root(a, q).gens)
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_every_route_matches_the_walk_and_test_kernel(seed, monkeypatch):
    got = route_outputs(seed)
    calls = Counter()
    kind = [None]

    def counted(*args, **kwargs):
        calls[kind[0]] += 1
        return reference_union(*args, **kwargs)

    def enter(route):
        # the socle corners are cached per ring and q; each route makes its own
        kind[0] = route
        frobenius_module._socle_corners.cache_clear()

    # every module that binds the kernel's core by name
    for name in ("enumeration", "tau", "ideals", "frobenius"):
        monkeypatch.setattr(sys.modules[f"tauideal.{name}"], "_union", counted)
    assert route_outputs(seed, enter) == got
    frobenius_module._socle_corners.cache_clear()
    # each kind of route ran through the stand-in, so the comparison is
    # not of the kernel against itself
    assert set(calls) == ROUTE_KINDS, calls
