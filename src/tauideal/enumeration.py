"""Lattice-point enumeration of up-closed sets in the exponent semigroup.

The enumeration is graded by the strictly positive functional l(x) = sum_i
<x, n_i> over the cone generators.  Candidate generators are collected up to
a seed degree, then a saturation frontier certifies (empirically) that no
minimal generator was missed; otherwise the degree bound doubles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from operator import mul

from .errors import EnumerationBoundError
from .lattice import IntVec, ToricRing, pairing, vec_add

MAX_DOUBLINGS = 20  # degree-bound doublings before EnumerationBoundError


def ell_vector(ring: ToricRing) -> IntVec:
    """The grading functional as a vector: sum of the sigma generators."""
    total = ring.sigma.rays[0]
    for r in ring.sigma.rays[1:]:
        total = vec_add(total, r)
    return total


def ray_degree_gap(ring: ToricRing) -> int:
    """Max l-degree among the primitive extreme rays of sigma_dual."""
    ell = ell_vector(ring)
    return max(pairing(r, ell) for r in ring.sigma_dual.rays)


def upper_degree_seed(ring: ToricRing, vertices, shift=None) -> int:
    """ceil(max over vertices v of l(v + shift)) plus the ray degree gap."""
    ell = ell_vector(ring)
    if shift is None:
        shift = tuple(Fraction(0) for _ in range(ring.d))
    top = max(pairing(vec_add(tuple(Fraction(x) for x in v), shift), ell)
              for v in vertices)
    return max(math.ceil(top), 0) + ray_degree_gap(ring)


def lattice_points_upto(ring: ToricRing, bound: int) -> list[IntVec]:
    """Points of sigma_dual cap M with l-degree <= bound, sorted by (l, lex)."""
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


def inequality_batch(ineqs):
    """Membership batch for the lattice points m with <m, a> >= c for every
    integer pair (a, c), as built by ``polyhedra.lattice_inequalities``."""

    def batch(points):
        return [all(sum(map(mul, m, a)) >= c for a, c in ineqs) for m in points]

    return batch


def minimal_upset_generators(
    ring: ToricRing, member_batch, degree_seed: int
) -> list[IntVec]:
    """Minimal generators of an up-closed subset of sigma_dual cap M.

    ``member_batch`` maps a list of lattice points to membership booleans.
    The set must be nonempty and closed under adding semigroup elements.
    Raises EnumerationBoundError if the frontier never saturates.
    """
    ell = ell_vector(ring)
    gap = ray_degree_gap(ring)
    orthant = ring.is_orthant()
    units = [tuple(1 if i == j else 0 for j in range(ring.d))
             for i in range(ring.d)]
    bound = max(degree_seed, gap)
    for _ in range(MAX_DOUBLINGS):
        pts = lattice_points_upto(ring, bound + gap)
        flags = member_batch(pts)
        flag = dict(zip(pts, flags))
        gens: list[IntVec] = []
        saturated = True
        for m, is_member in zip(pts, flags):
            if not is_member:
                continue
            if orthant:
                nonminimal = any(
                    m[i] > 0 and flag.get(tuple(x - e for x, e in zip(m, u)))
                    for i, u in enumerate(units)
                )
            else:
                nonminimal = any(
                    ring.in_semigroup(tuple(x - y for x, y in zip(m, g)))
                    for g in gens
                )
            if nonminimal:
                continue
            if pairing(m, ell) <= bound:
                gens.append(m)
            else:
                saturated = False
                break
        if saturated and gens:
            return gens
        bound *= 2
    raise EnumerationBoundError(
        f"no saturated generator frontier up to l-degree {bound}"
    )
