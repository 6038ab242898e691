"""Exact lattice and cone arithmetic.

Exponent vectors are plain tuples of Python ints (arbitrary precision);
rational points are tuples of ``fractions.Fraction``.  Cones are stored with
both a ray and a halfspace description, converted by the double description
method with exact integer arithmetic.  The double description tracks each
ray's tight set as an integer bitmask over the inserted halfspaces and tests
adjacency and extremality on those masks alone, so it needs no rank
computation; ``matrix_rank`` stays as an independent exact reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    ConeNotFullDimensionalError,
    ConeNotPointedError,
    DimensionMismatchError,
    NotQGorensteinError,
    ZeroVectorError,
)

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


def pairing(m, n):
    """Duality pairing (exact dot product) of two equal-length vectors."""
    if len(m) != len(n):
        raise DimensionMismatchError(f"length {len(m)} vs {len(n)}")
    return sum(a * b for a, b in zip(m, n))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def vec_neg(v):
    return tuple(-x for x in v)


def primitivize(v: IntVec) -> IntVec:
    """Divide an integer vector by the (positive) gcd of its coordinates."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        raise ZeroVectorError("cannot primitivize the zero vector")
    return tuple(x // g for x in v)


def matrix_rank(rows) -> int:
    """Rank of a list of integer/rational row vectors (exact elimination)."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    col = 0
    while rank < len(m) and col < ncols:
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for i in range(rank + 1, len(m)):
            if m[i][col] != 0:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def _insert(lineality, rays, h, bit):
    """One double description step: cut the cone lineality + cone(rays) by
    <x, h> >= 0, where ``bit`` is the mask bit of h.

    ``rays`` maps each ray to the bitmask of the inserted halfspaces it is
    tight on.  Invariant, before and after the step: the keys of ``rays`` are
    exactly the extreme rays of the cone modulo its lineality space (spanned
    by ``lineality``), one primitive representative each, and every
    lineality vector pairs to zero with every inserted halfspace, so a ray's
    tight set does not depend on the representative.
    """
    lin_vals = [pairing(l, h) for l in lineality]
    k = next((j for j, v in enumerate(lin_vals) if v != 0), None)
    if k is not None:
        # h crosses the lineality space: shrink it to h's hyperplane and
        # project each ray there along l0, which keeps the ray's tight set
        # (l0 pairs to zero with it) and adds h; l0 itself becomes a ray
        # tight on everything inserted before h
        l0, d0 = lineality[k], lin_vals[k]
        if d0 < 0:
            l0, d0 = vec_neg(l0), -d0
        new_lin = [
            primitivize(vec_sub(vec_scale(d0, l), vec_scale(v, l0)))
            for j, (l, v) in enumerate(zip(lineality, lin_vals))
            if j != k
        ]
        new_rays: dict[IntVec, int] = {}
        for r, mask in rays.items():
            v = pairing(r, h)
            proj = vec_sub(vec_scale(d0, r), vec_scale(v, l0))
            if any(proj):
                new_rays.setdefault(primitivize(proj), mask | bit)
        new_rays.setdefault(primitivize(l0), bit - 1)
        return new_lin, new_rays

    pos, neg = [], []
    new_rays = {}
    for r, mask in rays.items():
        v = pairing(r, h)
        if v > 0:
            pos.append((r, mask, v))
            new_rays[r] = mask
        elif v < 0:
            neg.append((r, mask, v))
        else:
            new_rays[r] = mask | bit
    # the new rays are the crossings of the edges (2-faces) from a positive
    # to a negative ray; the smallest face holding r and s is cut out by the
    # halfspaces tight on both, and its extreme rays are the rays tight on
    # all of them, so r and s span an edge iff no third ray is
    target = len(h) - len(lineality) - 2
    masks = list(rays.values())
    for r, mr, rh in pos:
        for s, ms, sh in neg:
            common = mr & ms
            if common.bit_count() < target:
                continue  # an edge is cut out by at least ``target`` halfspaces
            if sum(1 for m in masks if m & common == common) > 2:
                continue
            combo = vec_add(vec_scale(-sh, r), vec_scale(rh, s))
            new_rays.setdefault(primitivize(combo), common | bit)
    return lineality, new_rays


def dual_extreme_rays(halfspaces) -> list[IntVec]:
    """Extreme rays of the cone {x : <x,h> >= 0 for all h}.

    The cone must be pointed and full-dimensional; otherwise
    ConeNotPointedError / ConeNotFullDimensionalError is raised.  Rays are
    primitive integer vectors, sorted lexicographically.

    Double description, one halfspace at a time (``_insert``), starting from
    the whole space.  Each ray carries the bitmask of the inserted halfspaces
    it is tight on (bit i for the i-th), updated as halfspaces arrive; two
    rays on opposite sides of a new halfspace are adjacent iff no third ray
    is tight on every halfspace both are tight on (the combinatorial test of
    Fukuda and Prodon, 1996).  After each insertion the rays are exactly the
    extreme rays of the current cone modulo its lineality space.
    """
    halfspaces = [tuple(h) for h in halfspaces]
    if not halfspaces:
        raise ConeNotPointedError("no halfspaces: the whole space is not pointed")
    dim = len(halfspaces[0])
    for h in halfspaces:
        if len(h) != dim:
            raise DimensionMismatchError("halfspaces of mixed lengths")
        if all(x == 0 for x in h):
            raise ZeroVectorError("zero halfspace normal")

    lineality: list[IntVec] = [
        tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
    ]
    rays: dict[IntVec, int] = {}
    for i, h in enumerate(halfspaces):
        lineality, rays = _insert(lineality, rays, h, 1 << i)

    if lineality:
        raise ConeNotPointedError("halfspaces admit a line")
    if not rays:
        raise ConeNotFullDimensionalError("cone is the origin only")
    implicit = -1
    for mask in rays.values():
        implicit &= mask
    if implicit:
        h = halfspaces[(implicit & -implicit).bit_length() - 1]
        raise ConeNotFullDimensionalError(f"halfspace {h} is an implicit equality")
    # the rays generate the now pointed cone, so a ray is extreme iff no
    # other ray is tight on all of its halfspaces
    masks = list(rays.values())
    return sorted(
        r for r, mr in rays.items() if sum(1 for m in masks if m & mr == mr) == 1
    )


def _dedupe(vectors):
    seen = set()
    out = []
    for v in vectors:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone with both descriptions populated.

    ``rays`` are the primitive generators as given (deduplicated); the cone is
    guaranteed strongly convex and full-dimensional.  Each halfspace h means
    <x,h> >= 0.
    """

    dim: int
    rays: tuple[IntVec, ...]
    halfspaces: tuple[IntVec, ...]


def cone_from_rays(generators) -> Cone:
    """Build a cone from integer generators, computing its H-representation."""
    gens = _dedupe([primitivize(tuple(g)) for g in generators])
    if not gens:
        raise ConeNotFullDimensionalError("no generators")
    dim = len(gens[0])
    try:
        halfspaces = dual_extreme_rays(gens)
    except ConeNotPointedError as exc:
        # the dual contains a line exactly when the generators do not span
        raise ConeNotFullDimensionalError(str(exc)) from exc
    except ConeNotFullDimensionalError as exc:
        raise ConeNotPointedError(str(exc)) from exc
    return Cone(dim=dim, rays=tuple(sorted(gens)), halfspaces=tuple(halfspaces))


def dual_cone(cone: Cone) -> Cone:
    """The dual cone: rays become halfspaces and vice versa."""
    return Cone(
        dim=cone.dim,
        rays=tuple(sorted(dual_extreme_rays(cone.rays))),
        halfspaces=cone.rays,
    )


def solve_unit_pairings(generators) -> RatVec:
    """Solve <w, n_i> = 1 for all generators n_i by exact elimination.

    Raises NotQGorensteinError when the system is inconsistent.  Uniqueness
    holds because the generators span (full-dimensional cone).
    """
    gens = [tuple(g) for g in generators]
    d = len(gens[0])
    aug = [[Fraction(x) for x in g] + [Fraction(1)] for g in gens]
    pivots = []
    rank = 0
    for col in range(d):
        piv = next((i for i in range(rank, len(aug)) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        pv = aug[rank][col]
        aug[rank] = [a / pv for a in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(aug)):
        if aug[i][d] != 0:
            raise NotQGorensteinError("pairing system <w, n_i> = 1 is inconsistent")
    if rank < d:
        raise ConeNotFullDimensionalError("generators do not span the lattice")
    w = [Fraction(0)] * d
    for i, col in enumerate(pivots):
        w[col] = aug[i][d]
    return tuple(w)


@dataclass(frozen=True)
class ToricRing:
    """Ambient data of a Q-Gorenstein toric ring.

    ``sigma`` is the defining cone in the dual lattice, ``sigma_dual`` the
    cone of exponent vectors, ``w`` the rational vector pairing to 1 against
    every generator of sigma, and ``gorenstein_index`` the least r with r*w
    integral.
    """

    d: int
    sigma: Cone
    sigma_dual: Cone
    w: RatVec
    gorenstein_index: int

    def is_orthant(self) -> bool:
        units = {tuple(1 if i == j else 0 for j in range(self.d)) for i in range(self.d)}
        return set(self.sigma.rays) == units

    def in_semigroup(self, m) -> bool:
        """Membership of an integer vector in sigma_dual (the exponent cone)."""
        if len(m) != self.d:
            raise DimensionMismatchError(f"vector length {len(m)}, ring rank {self.d}")
        return all(pairing(m, h) >= 0 for h in self.sigma_dual.halfspaces)


def gorenstein_vector(sigma: Cone):
    """The vector w with <w, n_i> = 1 for every generator, plus its index."""
    w = solve_unit_pairings(sigma.rays)
    index = 1
    for x in w:
        index = index * x.denominator // gcd(index, x.denominator)
    return w, index


def toric_ring(generators) -> ToricRing:
    """Construct a ToricRing from integer generators of sigma.

    Checks strong convexity and full-dimensionality, computes the dual cone
    by double description, and solves for the Q-Gorenstein vector.
    """
    sigma = cone_from_rays(generators)
    dual_rays = dual_extreme_rays(sigma.rays)
    sigma_dual = Cone(
        dim=sigma.dim, rays=tuple(sorted(dual_rays)), halfspaces=sigma.rays
    )
    w, index = gorenstein_vector(sigma)
    return ToricRing(
        d=sigma.dim,
        sigma=sigma,
        sigma_dual=sigma_dual,
        w=w,
        gorenstein_index=index,
    )


def orthant_ring(d: int) -> ToricRing:
    """The polynomial ring k[x_1..x_d] as a toric ring."""
    return toric_ring(
        [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
    )
