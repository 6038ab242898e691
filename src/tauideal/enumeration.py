"""Lattice-point enumeration of up-closed sets in the exponent semigroup.

The enumeration is graded by the strictly positive functional l(x) = sum_i
<x, n_i> over the cone generators.  The points of sigma_dual cap M come from
one semigroup walk over the Hilbert basis, level by level in l, with the
levels cached per ring.  Every up-set it serves is cut out of sigma_dual cap
M by integer facet pairs (a, c), <m, a> >= c, tested one pair at a time
over a whole batch of points (``inequality_batch``, on the columns of
``lattice.pairing_columns``), and ``degree_bound`` proves from those pairs
that no minimal generator has l above a bound.  ``upset_union`` is the
package's one up-set kernel: a box of ray coordinates that one lattice
point realizes has that point as its generator, and the rest of a union
of up-sets is enumerated once, up to the largest bound.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from functools import cache, reduce
from itertools import product, repeat
from operator import add, and_, ge, mul, or_

from .lattice import IntVec, ToricRing, _points, minimal_vectors_orthant, pairing
from .lattice import pairing_columns, vec_sub
from .polyhedra import _vertex_rays


def ell_vector(ring: ToricRing) -> IntVec:
    """The grading functional as a vector: sum of the sigma generators."""
    return tuple(map(sum, zip(*ring.sigma.rays)))


def _ray_degree_sum(ring: ToricRing) -> int:
    """D: the sum of the d largest l-degrees over the extreme rays of sigma_dual."""
    ell = ell_vector(ring)
    degrees = sorted((pairing(r, ell) for r in ring.sigma_dual.rays), reverse=True)
    return sum(degrees[: ring.d])


@cache
def hilbert_basis(ring: ToricRing) -> tuple[IntVec, ...]:
    """The irreducible elements of sigma_dual cap M, sorted by (l, lex).

    By Caratheodory each element m lies in the cone of d linearly independent
    extreme rays r_i, as sum lambda_i r_i.  If some lambda_i >= 1, m - r_i is
    in the semigroup, so an irreducible m is r_i itself or has every
    lambda_i < 1.  Either way it lies in the zonotope sum_r [0, 1]*r over all
    extreme rays r, whose coordinate box [sum min(0, r_k), sum max(0, r_k)]
    in each coordinate k is all that is scanned.  The irreducible box points
    are the nonzero box points of sigma_dual whose ray coordinates rc are
    minimal among theirs (one ``lattice.minimal_vectors_orthant`` call): a
    reducible m = h + s has an irreducible h in the box with rc(h) <= rc(m),
    and any other such box point a splits m as a + (m - a).  Computed once
    per ring.
    """
    rays = ring.sigma_dual.rays
    box = [
        range(sum(min(0, r[k]) for r in rays), sum(max(0, r[k]) for r in rays) + 1)
        for k in range(ring.d)
    ]
    points = [p for p in product(*box) if any(p)]
    coords = zip(*pairing_columns(points, ring.sigma.rays))
    by_coords = {rc: p for p, rc in zip(points, coords) if min(rc) >= 0}
    basis = [by_coords[rc] for rc in minimal_vectors_orthant(by_coords)]
    ell = ell_vector(ring)
    return tuple(sorted(basis, key=lambda p: (pairing(p, ell), p)))


@cache
def _levels(ring: ToricRing) -> list[dict[IntVec, int]]:
    """The degree levels of sigma_dual cap M walked so far.  Level k maps
    each point of l-degree k, in lex order, to the least i such that the
    point is a sum of the Hilbert basis elements h_0 .. h_i (0 for the
    origin).  ``lattice_points_upto`` appends to the list."""
    return [{(0,) * ring.d: 0}]


def lattice_points_upto(ring: ToricRing, bound: int) -> list[IntVec]:
    """Points of sigma_dual cap M with l-degree <= bound, sorted by (l, lex).

    One walk over the Hilbert basis h_0, h_1, ..., sorted by l, so every
    l(h_j) >= 1.  Level k is made of the p + h_j with p in level
    k - l(h_j) and j at least the index i recorded for p.  Every nonzero m
    of degree k is a sum of basis elements; among such sums take one whose
    largest index j* is least.  Then m - h_j* is a sum of h_0 .. h_j*, so
    its index is at most j* and the walk makes m from it; and every p + h_j
    the walk makes is a sum of h_0 .. h_j.  So level k is exactly the points
    of degree k, and since j runs upwards the index recorded for m is j*
    (induction on k).  On a free semigroup each point is made once; on
    others the dict drops repeats.  The caller gets a fresh list.
    """
    levels = _levels(ring)
    ell = ell_vector(ring)
    steps = [(j, h, pairing(h, ell)) for j, h in enumerate(hilbert_basis(ring))]
    for k in range(len(levels), bound + 1):
        level: dict[IntVec, int] = {}
        for j, h, e in steps:
            if e <= k:
                for p, i in levels[k - e].items():
                    if i <= j:
                        level.setdefault(tuple(map(add, p, h)), j)
        levels.append(dict(sorted(level.items())))
    return [p for level in levels[: bound + 1] for p in level]


def degree_bound(ring: ToricRing, ineqs) -> int:
    """A proven bound on l over the minimal generators of the up-set
    S = {m in sigma_dual cap M : <m, a> >= c for every pair (a, c)}.

    The normals a lie in sigma, so S is closed under adding semigroup
    elements.  Two arguments, tried in this order:

    Slice bound, when <r, a> > 0 for every extreme ray r of sigma_dual and
    every pair.  A point y of sigma_dual with l(y) = k is a convex
    combination of the points k*r/l(r), and <k*r/l(r), a> >= c once k >=
    c*l(r)/<r, a>.  So with k* the largest ceil(c*l(r)/<r, a>), every
    lattice point of sigma_dual with l >= k* lies in S.  A point y with l(y)
    >= k* + H, H the largest l in the Hilbert basis, is h + y' for some
    Hilbert basis element h, with l(y') >= k*; so y' is in S and y is not
    minimal.  The bound is k* + H - 1.

    Caratheodory bound, otherwise.  S is the lattice points of the
    polyhedron Q = conv(V) + sigma_dual, V the vertices of
    {x in sigma_dual : <x, a> >= c}, and each point of Q is v + sum
    lambda_i r_i with v in conv(V) and at most d extreme rays r_i.  If some
    lambda_i >= 1, m - r_i is a lattice point of Q, so m is not minimal.
    Hence a minimal m has l(m) < max l(V) + D, D the sum of the d largest
    l(r), and l(m) <= ceil(max l(V)) + D - 1 as l(m) is an integer.  The
    vertices are x/s for the integer rays (x, s) of the homogenized region
    (``polyhedra._vertex_rays``), so ceil(max l(V)) is the largest integer
    quotient ceil(<x, l>/s).
    """
    ell = ell_vector(ring)
    slopes = [
        (c, pairing(r, ell), sum(map(mul, r, a)))
        for a, c in ineqs
        for r in ring.sigma_dual.rays
    ]
    if all(ra > 0 for _, _, ra in slopes):
        k_star = max((-(-c * deg // ra) for c, deg, ra in slopes), default=0)
        return k_star + pairing(hilbert_basis(ring)[-1], ell) - 1
    # map stops at ell's end, so <x, l> skips the last coordinate s of (x, s)
    top = max(
        -(-sum(map(mul, e, ell)) // e[-1]) for e in _vertex_rays(ring.sigma_dual, ineqs)
    )
    return top + _ray_degree_sum(ring) - 1


def inequality_batch(ineqs):
    """Membership batch for the lattice points m with <m, a> >= c for every
    integer pair (a, c), as built by ``polyhedra.lattice_inequalities``.

    The batch takes a list of points and tests one inequality at a time over
    all of them, on the columns of ``pairing_columns``; a point of the wrong
    length raises DimensionMismatchError."""
    normals = [a for a, _ in ineqs]
    bounds = [c for _, c in ineqs]

    def batch(points):
        flags = [True] * len(points)
        for column, c in zip(pairing_columns(points, normals), bounds):
            flags = list(map(and_, flags, map(ge, column, repeat(c))))
        return flags

    return batch


def minimal_upset_generators(
    ring: ToricRing, member_batch, degree_bound: int
) -> list[IntVec]:
    """Minimal generators of an up-closed subset of sigma_dual cap M, given a
    bound on their l-degree (``degree_bound`` proves one), in (l, lex) order.

    ``member_batch`` maps a list of lattice points to membership booleans.
    The set must be closed under adding semigroup elements.  A member m is
    not minimal iff m = y + s with y a member and s != 0 in the semigroup;
    then s = h + s' for a Hilbert basis element h, and m - h = y + s' is a
    member of lower degree.  So one pass over the points suffices.
    """
    pts = lattice_points_upto(ring, degree_bound)
    members = {m for m, is_member in zip(pts, member_batch(pts)) if is_member}
    basis = hilbert_basis(ring)
    return [
        m for m in pts
        if m in members and not any(vec_sub(m, h) in members for h in basis)
    ]


_shared: ContextVar[dict | None] = ContextVar("_shared", default=None)


@contextmanager
def sharing():
    """A scope in which ``shared`` computes P(a), keyed on (ring, a.gens), and
    each ``upset_union``, keyed on (ring, pair sets), once.  Callers still
    compile their own pairs, and a hit is what the same pure function returns
    on equal inputs, so routes that meet in a block compare as without it.
    Nothing outlives a block, even one that raised.  A scope, not an
    argument, keeps the signatures that stand-ins for ``tau`` take."""
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def shared(key, compute):
    """compute(), once per key inside a ``sharing`` block, always outside."""
    memo = _shared.get()
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def upset_union(ring: ToricRing, ineq_sets) -> tuple[tuple[IntVec, ...], int]:
    """(sorted minimal generators, points tested) of the union of the up-sets
    the integer pair sets cut out.

    A set whose normals are all rays n_j of sigma is the box rc(m) >= v in
    ray coordinates, v_j the largest max(c, 0) on n_j; a box above another
    adds nothing.  A lattice point whose ray coordinates are v divides every
    member, so it is the box's only generator; ``lattice._points`` finds it
    where it exists (always on a smooth cone).  The other boxes and sets are
    enumerated together up to the largest of their degree bounds, as a
    minimal generator of a union is one of some member, and merged with the
    realized points on ray coordinates.
    """
    ineq_sets = tuple(map(tuple, ineq_sets))

    def compute():
        rays = ring.sigma.rays
        boxes, others = [], []
        for ineqs in ineq_sets:
            if all(a in rays for a, _ in ineqs):
                boxes.append(tuple(max([0, *(c for a, c in ineqs if a == n)]) for n in rays))
            else:
                others.append(ineqs)
        tops = minimal_vectors_orthant(boxes)
        points = _points(ring, tops)
        coords = zip(*pairing_columns(points, rays))
        realized = {v: m for v, m, rc in zip(tops, points, coords) if rc == v}
        others += [tuple(zip(rays, v)) for v in tops if v not in realized]
        if not others:  # points of distinct minimal boxes divide none of each other
            return tuple(sorted(realized.values())), 0
        batches = [inequality_batch(ineqs) for ineqs in others]
        tested = []

        def member_batch(points):
            tested.append(len(points))
            return reduce(lambda x, y: [*map(or_, x, y)], [b(points) for b in batches])

        bound = max(degree_bound(ring, ineqs) for ineqs in others)
        gens = minimal_upset_generators(ring, member_batch, bound)
        if realized:
            realized.update(zip(zip(*pairing_columns(gens, rays)), gens))
            gens = [realized[rc] for rc in minimal_vectors_orthant(realized)]
        return tuple(sorted(gens)), sum(tested)

    return shared(("upset", ring, ineq_sets), compute)
