"""Lattice-point enumeration of up-closed sets in the exponent semigroup.

The enumeration is graded by the strictly positive functional l(x) = sum_i
<x, n_i> over the cone generators.  Every up-set it serves is cut out of
sigma_dual cap M by integer facet pairs (a, c), <m, a> >= c, and
``degree_bound`` proves from those pairs that no minimal generator has l
above a bound, so the lattice points are enumerated once, up to it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import product
from operator import mul

from .lattice import IntVec, ToricRing, pairing, vec_add, vec_sub
from .polyhedra import inequality_vertices


def ell_vector(ring: ToricRing) -> IntVec:
    """The grading functional as a vector: sum of the sigma generators."""
    total = ring.sigma.rays[0]
    for r in ring.sigma.rays[1:]:
        total = vec_add(total, r)
    return total


def _ray_degree_sum(ring: ToricRing) -> int:
    """D: the sum of the d largest l-degrees over the extreme rays of sigma_dual."""
    ell = ell_vector(ring)
    degrees = sorted((pairing(r, ell) for r in ring.sigma_dual.rays), reverse=True)
    return sum(degrees[: ring.d])


def _graded_points(ring: ToricRing, bound: int) -> list[IntVec]:
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


def lattice_points_upto(ring: ToricRing, bound: int) -> list[IntVec]:
    """Points of sigma_dual cap M with l-degree <= bound, sorted by (l, lex)."""
    return _graded_points(ring, bound)


@cache
def hilbert_basis(ring: ToricRing) -> tuple[IntVec, ...]:
    """The irreducible elements of sigma_dual cap M, sorted by (l, lex).

    By Caratheodory each element lies in the cone of d linearly independent
    extreme rays r_i, as sum lambda_i r_i.  An irreducible one is r_i itself
    or has every lambda_i < 1 (else subtract r_i), so its l is at most D, the
    sum of the d largest l(r_i).  A point is reducible iff it is h + s with
    h an irreducible of lower degree and s in the semigroup.

    Computed once per ring; it calls the enumerator under its private name,
    so the per-call counts of ``lattice_points_upto`` do not depend on
    whether this cache is warm.
    """
    basis: list[IntVec] = []
    for m in _graded_points(ring, _ray_degree_sum(ring))[1:]:
        if not any(ring.in_semigroup(vec_sub(m, h)) for h in basis):
            basis.append(m)
    return tuple(basis)


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
    l(r), and l(m) <= ceil(max l(V)) + D - 1 as l(m) is an integer.
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
    top = max(pairing(v, ell) for v in inequality_vertices(ring, ineqs))
    return math.ceil(top) + _ray_degree_sum(ring) - 1


def inequality_batch(ineqs):
    """Membership batch for the lattice points m with <m, a> >= c for every
    integer pair (a, c), as built by ``polyhedra.lattice_inequalities``."""

    def batch(points):
        return [all(sum(map(mul, m, a)) >= c for a, c in ineqs) for m in points]

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
