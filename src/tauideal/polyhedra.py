"""Newton polyhedra of monomial ideals.

A Newton polyhedron is conv(generator exponents) + sigma_dual, stored as its
irredundant facets: one double description of the cone over the generators,
homogenized in one more dimension.  Every membership test reads only these
facets.  The vertices are derived from the facets on first use, by a second
double description (``inequality_vertices``); the recession rays are those
of sigma_dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatchError, InputError
from .lattice import (
    Cone,
    IntVec,
    RatVec,
    ToricRing,
    dual_extreme_rays,
    pairing,
)


@dataclass(frozen=True)
class NewtonPolyhedron:
    """Exact polyhedron t * (conv(generators) + recession cone).

    Each inequality (a, b) means <x, a> >= b.  At scale 1 all right-hand
    sides are integers; scaled polyhedra carry exact rational ones.
    """

    dim: int
    recession: Cone
    inequalities: tuple[tuple[IntVec, Fraction], ...]
    scale: Fraction

    @cached_property
    def vertices(self) -> tuple[RatVec, ...]:
        """The vertices, sorted, computed from the facets on first read."""
        return tuple(sorted(inequality_vertices(self.recession, self.inequalities)))

    @property
    def rays(self) -> tuple[IntVec, ...]:
        """The recession rays: the sorted primitive extreme rays of sigma_dual."""
        return self.recession.rays

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


def inequality_vertices(recession: Cone, ineqs) -> list[RatVec]:
    """Vertices of {x in recession : <x, a> >= c for every pair (a, c)}.

    The normals a lie in the dual of the recession cone and the c are
    rational and >= 0, as in ``lattice_inequalities`` and in the facets of a
    (scaled) Newton polyhedron.  Homogenized as <x, a> - c*s >= 0 (each row
    cleared of c's denominator), <x, n> >= 0 for the facet normals n of the
    recession cone and s >= 0, the region is a pointed full-dimensional
    cone; its extreme rays with s > 0 are the vertices.
    """
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


def newton_polyhedron(ring: ToricRing, generators) -> NewtonPolyhedron:
    """Newton polyhedron of the ideal generated by the given exponents."""
    gens = sorted({tuple(g) for g in generators})
    if not gens:
        raise InputError("Newton polyhedron of the zero ideal is undefined")
    d = ring.d
    homog = [g + (1,) for g in gens] + [r + (0,) for r in ring.sigma_dual.rays]
    inequalities = [
        (f[:d], Fraction(-f[d]))
        for f in dual_extreme_rays(homog)
        if any(f[:d])  # else the homogenizing facet s >= 0, not a facet of P
    ]
    return NewtonPolyhedron(
        dim=d,
        recession=ring.sigma_dual,
        inequalities=tuple(sorted(inequalities)),
        scale=Fraction(1),
    )


def scale(P: NewtonPolyhedron, t) -> NewtonPolyhedron:
    """The polyhedron t*P: right-hand sides scaled by t >= 0.

    t = 0 degenerates to the recession cone itself.
    """
    t = Fraction(t)
    if t < 0:
        raise InputError(f"negative scale {t}")
    if P.scale != 1:
        raise InputError("only scale-1 polyhedra can be rescaled")
    if t == 0:
        ineqs = tuple(sorted((h, Fraction(0)) for h in P.recession.halfspaces))
    else:
        ineqs = tuple((a, t * b) for a, b in P.inequalities)
    return NewtonPolyhedron(
        dim=P.dim, recession=P.recession, inequalities=ineqs, scale=t
    )
