"""Newton polyhedra of monomial ideals.

A Newton polyhedron is conv(generator exponents) + sigma_dual.  Both the
V-representation (vertices, recession rays) and the irredundant facet
H-representation are computed once, by homogenizing to a cone in one more
dimension and running double description twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError, InputError
from .lattice import (
    Cone,
    IntVec,
    RatVec,
    ToricRing,
    dual_extreme_rays,
    pairing,
    primitivize,
)


@dataclass(frozen=True)
class NewtonPolyhedron:
    """Exact polyhedron t * (conv(generators) + recession cone).

    Each inequality (a, b) means <x, a> >= b.  At scale 1 all right-hand
    sides are integers; scaled polyhedra carry exact rational ones.
    """

    dim: int
    recession: Cone
    vertices: tuple[RatVec, ...]
    rays: tuple[IntVec, ...]
    inequalities: tuple[tuple[IntVec, Fraction], ...]
    scale: Fraction

    def contains(self, p, strict: bool = False) -> bool:
        """Closed (or strict/interior) membership of a rational point."""
        if len(p) != self.dim:
            raise DimensionMismatchError(
                f"point length {len(p)}, polyhedron dimension {self.dim}"
            )
        for a, b in self.inequalities:
            v = pairing(p, a)
            if strict:
                if v <= b:
                    return False
            elif v < b:
                return False
        return True


def lattice_inequalities(
    P: NewtonPolyhedron, shift=None, strict: bool = False
) -> tuple[tuple[IntVec, int], ...]:
    """Integer facets (a, c) cutting out the lattice points m with m + shift
    in P (in its interior if ``strict``): each pair means <m, a> >= c.

    For integer <m, a>, <m + s, a> > b iff <m, a> >= floor(b - <s, a>) + 1,
    and <m + s, a> >= b iff <m, a> >= ceil(b - <s, a>).  Facet normals lie in
    sigma, so every m in sigma_dual meets a bound c <= 0; those are left out.
    """
    out = []
    for a, b in P.inequalities:
        beta = b - pairing(shift, a) if shift is not None else b
        c = math.floor(beta) + 1 if strict else math.ceil(beta)
        if c > 0:
            out.append((a, c))
    return tuple(out)


def inequality_vertices(ring: ToricRing, ineqs) -> list[RatVec]:
    """Vertices of {x in sigma_dual : <x, a> >= c for every pair (a, c)}.

    The pairs have c > 0 and normals a in sigma, as from
    ``lattice_inequalities``.  Homogenized as <x, a> - c*s >= 0, <x, n> >= 0
    for the rays n of sigma and s >= 0, the region is a pointed
    full-dimensional cone; its extreme rays with s > 0 are the vertices.
    """
    d = ring.d
    halfspaces = [tuple(a) + (-c,) for a, c in ineqs]
    halfspaces += [n + (0,) for n in ring.sigma.rays]
    halfspaces.append((0,) * d + (1,))
    return [
        tuple(Fraction(x, e[d]) for x in e[:d])
        for e in dual_extreme_rays(halfspaces)
        if e[d] > 0
    ]


def newton_polyhedron(ring: ToricRing, generators) -> NewtonPolyhedron:
    """Newton polyhedron of the ideal generated by the given exponents."""
    gens = sorted({tuple(g) for g in generators})
    if not gens:
        raise InputError("Newton polyhedron of the zero ideal is undefined")
    d = ring.d
    homog = [g + (1,) for g in gens] + [r + (0,) for r in ring.sigma_dual.rays]
    facets_h = dual_extreme_rays(homog)
    extremes = dual_extreme_rays(facets_h)

    vertices = []
    rays = []
    for e in extremes:
        last = e[d]
        if last > 0:
            vertices.append(tuple(Fraction(x, last) for x in e[:d]))
        else:
            rays.append(primitivize(e[:d]))
    inequalities = []
    for f in facets_h:
        a, c = f[:d], f[d]
        if all(x == 0 for x in a):
            continue  # the homogenizing facet, not a facet of P
        inequalities.append((a, Fraction(-c)))
    return NewtonPolyhedron(
        dim=d,
        recession=ring.sigma_dual,
        vertices=tuple(sorted(vertices)),
        rays=tuple(sorted(rays)),
        inequalities=tuple(sorted(inequalities)),
        scale=Fraction(1),
    )


def scale(P: NewtonPolyhedron, t) -> NewtonPolyhedron:
    """The polyhedron t*P: vertices and right-hand sides scaled by t >= 0.

    t = 0 degenerates to the recession cone itself.
    """
    t = Fraction(t)
    if t < 0:
        raise InputError(f"negative scale {t}")
    if P.scale != 1:
        raise InputError("only scale-1 polyhedra can be rescaled")
    if t == 0:
        zero = tuple(Fraction(0) for _ in range(P.dim))
        ineqs = tuple(
            sorted((h, Fraction(0)) for h in P.recession.halfspaces)
        )
        return NewtonPolyhedron(
            dim=P.dim,
            recession=P.recession,
            vertices=(zero,),
            rays=P.rays,
            inequalities=ineqs,
            scale=t,
        )
    return NewtonPolyhedron(
        dim=P.dim,
        recession=P.recession,
        vertices=tuple(sorted(tuple(t * x for x in v) for v in P.vertices)),
        rays=P.rays,
        inequalities=tuple((a, t * b) for a, b in P.inequalities),
        scale=t,
    )
