"""Newton polyhedra of monomial ideals.

A Newton polyhedron is conv(generator exponents) + sigma_dual, stored as its
irredundant facets: those of the cone over the generators (checked to lie
in sigma_dual), homogenized in one more dimension.  ``newton_polyhedron``
finds them from proven vertices first (the generators with lex-least
rotated ray coordinates): one double description on those, one batched
containment test of the other generators against its facets, and a second
double description only when some generator cuts that cone.  Every
membership test reads only these facets, compiled by
``lattice_inequalities`` into integer bounds with one lcm per call and an
integer floor or ceiling division per facet.  The vertices come from a
double description of the facets, as homogeneous integer rays (``_vertex_rays``,
which the degree bound reads directly); only ``NewtonPolyhedron.vertices``
turns them into Fractions.  The recession rays are those of sigma_dual.
Every exponent t enters through ``exponent``, which refuses anything but a
finite rational t >= 0 with InputError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from .errors import DimensionMismatchError, InputError
from .lattice import (
    Cone,
    IntVec,
    RatVec,
    ToricRing,
    dual_extreme_rays,
    pairing,
    pairing_columns,
    semigroup_columns,
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


def exponent(t) -> Fraction:
    """The exponent t as an exact rational; InputError unless t is a
    finite rational >= 0 (an int, a Fraction, a float or a string such as
    "3/2")."""
    try:
        t = Fraction(t)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"cannot read the exponent {t!r}: {exc}") from exc
    if t < 0:
        raise InputError(f"negative exponent t = {t}")
    return t


def lattice_inequalities(
    P: NewtonPolyhedron, shift=None, strict: bool = False
) -> tuple[tuple[IntVec, int], ...]:
    """Integer facets (a, c) cutting out the lattice points m with m + shift
    in P (in its interior if ``strict``): each pair means <m, a> >= c.

    For integer <m, a>, <m + s, a> > b iff <m, a> >= floor(b - <s, a>) + 1,
    and <m + s, a> >= b iff <m, a> >= ceil(b - <s, a>).  Every right-hand
    side b is an integer times P's scale, so with L the lcm of the scale's
    and the shift's denominators, L*b and L*s are integer, and c is the
    floor or ceiling of the integer quotient (L*b - <L*s, a>) / L.  Facet
    normals lie in sigma, so every m in sigma_dual meets a bound c <= 0;
    those are left out.
    """
    shift = (0,) * P.dim if shift is None else tuple(shift)
    if len(shift) != P.dim:
        raise DimensionMismatchError(f"length {len(shift)} vs {P.dim}")
    den = lcm(P.scale.denominator, *(x.denominator for x in shift))
    lifted = [x.numerator * (den // x.denominator) for x in shift]
    out = []
    for a, b in P.inequalities:
        num = b.numerator * (den // b.denominator) - sum(map(mul, lifted, a))
        c = num // den + 1 if strict else -(-num // den)
        if c > 0:
            out.append((a, c))
    return tuple(out)


def _vertex_rays(recession: Cone, ineqs) -> list[IntVec]:
    """The extreme rays (x, s) with s > 0 of the homogenized region of
    ``inequality_vertices``: its vertices are the points x/s."""
    d = recession.dim
    halfspaces = [
        tuple(c.denominator * x for x in a) + (-c.numerator,) for a, c in ineqs
    ]
    halfspaces += [n + (0,) for n in recession.halfspaces]
    halfspaces.append((0,) * d + (1,))
    return [e for e in dual_extreme_rays(halfspaces) if e[d] > 0]


def inequality_vertices(recession: Cone, ineqs) -> list[RatVec]:
    """Vertices of {x in recession : <x, a> >= c for every pair (a, c)}.

    The normals a lie in the dual of the recession cone and the c are
    rational and >= 0, as in ``lattice_inequalities`` and in the facets of a
    (scaled) Newton polyhedron.  Homogenized as <x, a> - c*s >= 0 (each row
    cleared of c's denominator), <x, n> >= 0 for the facet normals n of the
    recession cone and s >= 0, the region is a pointed full-dimensional
    cone; its extreme rays (x, s) with s > 0 (``_vertex_rays``) give the
    vertices x/s.
    """
    d = recession.dim
    return [
        tuple(Fraction(x, e[d]) for x in e[:d]) for e in _vertex_rays(recession, ineqs)
    ]


def _rotation_minima(columns) -> set[int]:
    """The indices of the vectors whose ray coordinate columns, read from
    column j onward cyclically in either direction, are lex-least, over
    every j.  A unique least entry of column j decides both directions;
    otherwise whole rotated rows are compared, and distinct vectors never
    tie, since the rays of sigma span."""
    out = set()
    index = range(len(columns[0]))
    for j, column in enumerate(columns):
        low = min(column)
        if column.count(low) == 1:
            out.add(column.index(low))
            continue
        order = columns[j:] + columns[:j]
        out.add(min(zip(*order, index))[-1])
        if len(order) > 2:  # with two rays both directions are one order
            out.add(min(zip(order[0], *order[:0:-1], index))[-1])
    return out


def newton_polyhedron(ring: ToricRing, generators) -> NewtonPolyhedron:
    """Newton polyhedron of the ideal generated by the given exponents.

    A generator of the wrong length raises DimensionMismatchError, one
    outside sigma_dual SemigroupMembershipError.

    The facets are those of the cone C over the homogenized generators
    (g, 1) and rays (r, 0) of sigma_dual, found from proven vertices first.
    Let n_0..n_{k-1} be the rays of sigma and, for each j and each
    direction s = +1 or -1, let v be the generator whose ray coordinates
    <g, n_j>, <g, n_{j+s}>, <g, n_{j+2s}>, ... (indices mod k) are
    lex-least.  v is a vertex of P: for small e > 0 the weight
    u = sum_i e^i n_{j+is} lies in the interior of sigma, so u pairs
    positively with every nonzero r in sigma_dual and the face of P
    minimising <., u> is the hull of the generators minimising it; for e
    small enough their order under u is the lex order of those ray
    coordinates, and v is its unique least element (the rays of sigma span,
    so distinct generators have distinct ray coordinates).

    One double description of the cone C0 over these (v, 1) and the (r, 0)
    gives C0's facets.  C0 is full-dimensional, since the r span the
    hyperplane s = 0 and (v, 1) leaves it, and pointed, since it lies in
    sigma_dual x [0, inf).  Each facet (a, c) of C0 has a in sigma, so only
    one with c = -b < 0 can cut a (g, 1), g in sigma_dual.  One
    ``pairing_columns`` call pairs every other generator with the a of those
    facets, and (g, 1) lies in C0 when <g, a> >= b for each of them.  So
    C = C0 unless some generator cuts, and then a second double description
    on the v, the cutting generators and the rays gives C.  The result
    rests on this containment test alone, not on the vertex argument, which
    only makes the first cone large.
    """
    gens = list({tuple(g) for g in generators})
    if not gens:
        raise InputError("Newton polyhedron of the zero ideal is undefined")
    picked = _rotation_minima(semigroup_columns(ring, gens))
    d = ring.d
    rays = [r + (0,) for r in ring.sigma_dual.rays]
    candidates = sorted(gens[i] + (1,) for i in picked)
    facets = dual_extreme_rays(candidates + rays)
    if len(picked) < len(gens):
        rest = [g for i, g in enumerate(gens) if i not in picked]
        bounds = [(f[:d], -f[d]) for f in facets if f[d] < 0]
        columns = pairing_columns(rest, [a for a, _ in bounds])
        if any(min(col) < b for col, (_, b) in zip(columns, bounds)):
            cutting = {
                g for col, (_, b) in zip(columns, bounds)
                for g, v in zip(rest, col) if v < b
            }
            facets = dual_extreme_rays(
                candidates + [g + (1,) for g in sorted(cutting)] + rays
            )
    inequalities = [
        (f[:d], Fraction(-f[d]))
        for f in facets
        if any(f[:d])  # else the homogenizing facet s >= 0, not a facet of P
    ]
    return NewtonPolyhedron(
        dim=d,
        recession=ring.sigma_dual,
        inequalities=tuple(sorted(inequalities)),
        scale=Fraction(1),
    )


def scale(P: NewtonPolyhedron, t) -> NewtonPolyhedron:
    """The polyhedron t*P: right-hand sides scaled by t >= 0 (read by
    ``exponent``).

    t = 0 degenerates to the recession cone itself.
    """
    t = exponent(t)
    if P.scale != 1:
        raise InputError("only scale-1 polyhedra can be rescaled")
    if t == 0:
        ineqs = tuple(sorted((h, Fraction(0)) for h in P.recession.halfspaces))
    else:
        ineqs = tuple((a, t * b) for a, b in P.inequalities)
    return NewtonPolyhedron(
        dim=P.dim, recession=P.recession, inequalities=ineqs, scale=t
    )
