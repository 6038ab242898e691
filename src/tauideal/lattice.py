"""Exact lattice and cone arithmetic.

Exponent vectors are plain tuples of Python ints (arbitrary precision);
rational points are tuples of ``fractions.Fraction``.  Cones are stored with
both a ray and a halfspace description, converted by the double description
method with exact integer arithmetic.
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


def _tight_at(inserted, r):
    return [h for h in inserted if pairing(r, h) == 0]


def dual_extreme_rays(halfspaces) -> list[IntVec]:
    """Extreme rays of the cone {x : <x,h> >= 0 for all h}.

    The cone must be pointed and full-dimensional; otherwise
    ConeNotPointedError / ConeNotFullDimensionalError is raised.  Rays are
    primitive integer vectors, sorted lexicographically.
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
    rays: list[IntVec] = []
    inserted: list[IntVec] = []

    for h in halfspaces:
        crossing = [(l, pairing(l, h)) for l in lineality if pairing(l, h) != 0]
        if crossing:
            l0, d0 = crossing[0]
            if d0 < 0:
                l0, d0 = vec_neg(l0), -d0
            new_lin = []
            for l in lineality:
                if l == crossing[0][0]:
                    continue
                v = pairing(l, h)
                proj = vec_sub(vec_scale(d0, l), vec_scale(v, l0))
                new_lin.append(primitivize(proj))
            new_rays = []
            for r in rays:
                v = pairing(r, h)
                proj = vec_sub(vec_scale(d0, r), vec_scale(v, l0))
                if any(x != 0 for x in proj):
                    new_rays.append(primitivize(proj))
            new_rays.append(primitivize(l0))
            lineality = new_lin
            rays = _dedupe(new_rays)
        else:
            pos = [r for r in rays if pairing(r, h) > 0]
            neg = [r for r in rays if pairing(r, h) < 0]
            zero = [r for r in rays if pairing(r, h) == 0]
            if neg:
                target = dim - len(lineality) - 2
                new_rays = pos + zero
                for r in pos:
                    rh = pairing(r, h)
                    tight_r = set(_tight_at(inserted, r))
                    for s in neg:
                        common = [g for g in tight_r if pairing(s, g) == 0]
                        if target < 0 or matrix_rank(common) != target:
                            continue
                        sh = pairing(s, h)
                        combo = vec_add(vec_scale(-sh, r), vec_scale(rh, s))
                        new_rays.append(primitivize(combo))
                rays = _dedupe(new_rays)
        inserted.append(h)

    if lineality:
        raise ConeNotPointedError("halfspaces admit a line")
    if not rays:
        raise ConeNotFullDimensionalError("cone is the origin only")
    total = rays[0]
    for r in rays[1:]:
        total = vec_add(total, r)
    for h in inserted:
        if pairing(total, h) == 0:
            raise ConeNotFullDimensionalError(
                f"halfspace {h} is an implicit equality"
            )
    extreme = [
        r for r in rays if matrix_rank(_tight_at(inserted, r)) == dim - 1
    ]
    return sorted(set(extreme))


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
