"""Newton polyhedra of monomial ideals.

A Newton polyhedron is conv(generator exponents) + sigma_dual, stored as its
irredundant facets: those of the cone over the generators (checked to lie
in sigma_dual), homogenized in one more dimension.  ``newton_polyhedron``
finds them from proven vertices first (the generators with lex-least
rotated ray coordinates): one double description on those, one batched
containment test of the other generators against its facets, and a second
double description, on all the generators, only when one of them cuts that
cone.  Both start from sigma x R, the cone the rays of sigma_dual cut
(``lattice.dual_extreme_rays`` on the base sigma), so each inserts only
generators.  A polyhedron keeps its scale-1 facets as integer pairs (a, b),
and t*P keeps the same pairs with t: every membership test reads only these
facets, compiled by ``lattice_inequalities`` into integer bounds from t's
numerator and denominator, with one lcm per call and an integer floor or
ceiling division per facet.  The vertices are the generators that span
extreme rays of that cone, kept as integer points.  The Fractions of
``NewtonPolyhedron.inequalities`` (the right-hand sides t*b) and
``NewtonPolyhedron.vertices`` are made only when read.  The recession rays
are those of sigma_dual.
Every exponent t enters through ``exponent``, which refuses anything but a
finite rational t >= 0 with InputError; ``scale`` reads it, and the routes,
whose t is checked already, call ``_scaled`` below that check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    _extreme,
    check_ring,
    dual_extreme_rays,
    int_scalar,
    int_vectors,
    member_columns,
    pairing,
    pairing_columns,
    rational_vector,
)


@dataclass(frozen=True)
class NewtonPolyhedron:
    """Exact polyhedron t * (conv(generators) + recession cone).

    ``bounds`` are integer pairs (a, b) with t*P the points x with
    <x, a> >= t*b for each: P's facets, or at t = 0 the recession cone's
    facet normals with b = 0.  ``points`` are the vertices at scale 1,
    sorted integer generators.
    """

    dim: int
    recession: Cone
    bounds: tuple[tuple[IntVec, int], ...]
    scale: Fraction
    points: tuple[IntVec, ...]

    @cached_property
    def inequalities(self) -> tuple[tuple[IntVec, Fraction], ...]:
        """The pairs (a, t*b) of ``bounds``, each meaning <x, a> >= t*b:
        integers at scale 1, exact rationals once scaled."""
        return tuple((a, self.scale * b) for a, b in self.bounds)

    @cached_property
    def vertices(self) -> tuple[RatVec, ...]:
        """The vertices: the points times the scale, sorted (t = 0: the origin)."""
        return tuple(sorted({tuple(self.scale * x for x in p) for p in self.points}))

    @property
    def rays(self) -> tuple[IntVec, ...]:
        """The recession rays: the sorted primitive extreme rays of sigma_dual."""
        return self.recession.rays

    def contains(self, p, strict: bool = False) -> bool:
        """Closed (or strict/interior) membership of a rational point, whose
        entries are ints or Fractions (``lattice.rational_vector``)."""
        p = rational_vector(p)
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
    "3/2" or "1.5"; a bool is not read as 0 or 1, nor a string in exponent
    notation, as "1e999999999" would build a billion-digit int)."""
    if isinstance(t, bool):
        raise InputError(f"the exponent must be a number, got {t!r}")
    if isinstance(t, str) and "e" in t.lower():
        raise InputError(f"the exponent {t!r} is in exponent notation; write num/den")
    try:
        t = Fraction(t)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"cannot read the exponent {t!r}: {exc}") from exc
    if t < 0:
        raise InputError(f"negative exponent t = {t}")
    return t


def lattice_inequalities(
    P: NewtonPolyhedron, shift=None, strict: bool = False, den: int = 1
) -> tuple[tuple[IntVec, int], ...]:
    """Integer facets (a, c) cutting out the lattice points m with
    m + shift/den in P (in its interior if ``strict``): each pair means
    <m, a> >= c.  P must be a NewtonPolyhedron, the shift's entries ints or
    Fractions (``lattice.rational_vector``) and den an int >= 1 (InputError
    otherwise).  P's normals lie in sigma and every c is an int, so the
    pairs go to the up-set kernel's cores (``enumeration._union``) as they
    are.

    For integer <m, a>, <m + s, a> > t*b iff <m, a> >= floor(t*b - <s, a>)
    + 1, and <m + s, a> >= t*b iff <m, a> >= ceil(t*b - <s, a>).  With
    t = u/v and L the lcm of v and the denominators of s (one lcm call),
    L*t*b = (u*(L/v))*b and L*s are integer, so c is the floor or ceiling of
    the integer quotient ((u*(L/v))*b - <L*s, a>) / L, for P's integer
    pairs (a, b) of ``NewtonPolyhedron.bounds``.  Facet normals lie in
    sigma, so every m in sigma_dual meets a bound c <= 0; those are left
    out.
    """
    if not isinstance(P, NewtonPolyhedron):
        raise InputError(f"expected a NewtonPolyhedron, got {P!r}")
    shift = (0,) * P.dim if shift is None else rational_vector(shift)
    if len(shift) != P.dim:
        raise DimensionMismatchError(f"length {len(shift)} vs {P.dim}")
    if int_scalar("den", den) < 1:
        raise InputError(f"the shift's denominator must be positive, got {den}")
    u, v = P.scale.numerator, P.scale.denominator
    dens = [den * x.denominator for x in shift]
    L = lcm(v, *dens)
    lifted = [x.numerator * (L // e) for x, e in zip(shift, dens)]
    lu = u * (L // v)
    out = []
    for a, b in P.bounds:
        num = lu * b - sum(map(mul, lifted, a))
        c = num // L + 1 if strict else -(-num // L)
        if c > 0:
            out.append((a, c))
    return tuple(out)


def _vertex_rays(recession: Cone, ineqs) -> list[IntVec]:
    """The extreme rays (x, s) with s > 0 of the homogenized region
    {x in recession : <x, a> >= c for every pair (a, c)}, whose vertices
    are the points x/s: the degree bound's double description.

    The normals a lie in the dual of the recession cone and the c are
    rational and >= 0, as in ``lattice_inequalities``.  Homogenized as
    <x, a> - c*s >= 0 (each row cleared of c's denominator), <x, n> >= 0 for
    the facet normals n of the recession cone and s >= 0, the region is a
    pointed full-dimensional cone, and one double description gives its
    extreme rays.  The facet normals cut recession x R, so it starts from
    that cone (``lattice.dual_extreme_rays`` on ``recession``) and inserts
    s >= 0 first, which turns the line into the ray (0, ..., 0, 1).
    """
    d = recession.dim
    halfspaces = [(0,) * d + (1,)] + [
        tuple(c.denominator * x for x in a) + (-c.numerator,) for a, c in ineqs
    ]
    return [e for e in dual_extreme_rays(halfspaces, recession) if e[d] > 0]


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

    Generators that are not a collection of sequences of ints raise
    InputError, one of the wrong length DimensionMismatchError, one outside
    sigma_dual SemigroupMembershipError.

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
    facets, and (g, 1) lies in C0 when <g, a> >= b for each of them.  If
    none cuts, every (g, 1) lies in C0, so C, which holds C0, equals it;
    otherwise a second double description on every (g, 1) and the rays
    gives C by its definition.  The facets rest on this containment test
    alone.  Both double descriptions start from sigma x R, the cone the
    (r, 0) cut (``lattice.dual_extreme_rays`` on the base sigma), and insert
    only the (g, 1).  The vertices of P, the extreme rays of C with s = 1,
    are C0's (v, 1), proven vertices above, when none cuts, and otherwise
    the (g, 1) that no other (g', 1) is tight with on all of its facets
    (``lattice._extreme``): the least face of C holding a (g, 1) that is
    not extreme has dimension 2 or more and an extreme ray off s = 0,
    which is another (g', 1) tight on all of those facets.
    """
    gens = list(set(int_vectors(generators)))
    if not gens:
        raise InputError("Newton polyhedron of the zero ideal is undefined")
    picked = _rotation_minima(member_columns(check_ring(ring), gens))
    d = ring.d
    candidates = sorted(gens[i] + (1,) for i in picked)
    facets = dual_extreme_rays(candidates, ring.sigma)
    if len(picked) < len(gens):
        rest = [g for i, g in enumerate(gens) if i not in picked]
        bounds = [(f[:d], -f[d]) for f in facets if f[d] < 0]
        columns = pairing_columns(rest, [a for a, _ in bounds])
        if any(min(col) < b for col, (_, b) in zip(columns, bounds)):
            homog = candidates + [g + (1,) for g in rest]
            facets = dual_extreme_rays(homog, ring.sigma)
            candidates = _extreme(homog, facets)
    return NewtonPolyhedron(
        dim=d,
        recession=ring.sigma_dual,
        # (0, ..., 0, 1), the homogenizing facet s >= 0, is not a facet of P
        bounds=tuple(sorted((f[:d], -f[d]) for f in facets if any(f[:d]))),
        scale=Fraction(1),
        points=tuple(e[:d] for e in candidates),
    )


def scale(P: NewtonPolyhedron, t) -> NewtonPolyhedron:
    """The polyhedron t*P, P a NewtonPolyhedron (InputError otherwise), for
    t >= 0 (read by ``exponent``): P's integer bounds with scale t.

    t = 0 degenerates to the recession cone itself, cut out by its facet
    normals with b = 0.
    """
    if not isinstance(P, NewtonPolyhedron):
        raise InputError(f"expected a NewtonPolyhedron, got {P!r}")
    t = exponent(t)
    if P.scale != 1:
        raise InputError("only scale-1 polyhedra can be rescaled")
    return _scaled(P, t)


def _scaled(P: NewtonPolyhedron, t: Fraction) -> NewtonPolyhedron:
    """``scale`` with no check, for a scale-1 P and a checked t."""
    if t == 0:
        return replace(P, bounds=tuple(sorted((h, 0) for h in P.recession.halfspaces)), scale=t)
    return replace(P, scale=t)
