"""Newton polyhedra of monomial ideals.

A Newton polyhedron is conv(generator exponents) + sigma_dual, stored as its
irredundant facets: those of the cone over the generators (in sigma_dual),
homogenized in one more dimension.  ``newton_polyhedron`` is the one
builder.  It reads a canonical ideal (``CanonicalGenerators``, which
``ideals.MonomialIdeal`` is) as it is: its minimal generators and the
columns of its rows; raw exponents are checked, deduplicated and paired
with the rays of sigma first, and both go on to one body.  It finds the
facets from proven vertices first (the generators with lex-least rotated
ray coordinates, ``_rotation_minima``): one double description on those,
one batched containment test of the other generators against its facets,
and a second double description, on all the generators, only when one of
them cuts that cone.  Both start from sigma x R, the cone the rays of
sigma_dual cut (``lattice.dual_extreme_rays`` on the base sigma), and
insert only generators, the first in closed form.  A polyhedron keeps its
scale-1 facets as integer pairs (a, b), and t*P keeps the same pairs with
t: every membership test reads only these facets, on integers.
``_compile``, the one producer of the integer pairs the up-set kernel
reads, compiles them for m + shift in tP with one lcm per call and an
integer division per facet; each route calls it with the integer shift
it holds (tau r*w over the Gorenstein index r, the socle oracle each
corner over q, the integral closure the origin), and
``lattice_inequalities`` is its checked entry, for a rational shift.
The vertices are the generators that span extreme rays of that cone, kept
as integer points.  The Fractions of ``NewtonPolyhedron.inequalities``
(the right-hand sides t*b) and ``NewtonPolyhedron.vertices`` are made only
when read.  The recession rays are those of sigma_dual.
Every exponent t enters through ``exponent``, which refuses anything but a
finite rational t >= 0 with InputError and returns a Fraction >= 0 as it
is; ``scale`` reads it, and the routes, whose t is checked already, call
``_scaled`` below that check.
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
    _extreme,
    check_ring,
    dual_extreme_rays,
    int_vectors,
    member_columns,
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
        entries are ints or Fractions (``lattice.rational_vector``): with
        the point x/e over one denominator and t = u/v, <x/e, a> >= t*b iff
        v*<x, a> >= u*e*b, one integer comparison per pair of ``bounds``."""
        p = rational_vector(p)
        if len(p) != self.dim:
            raise DimensionMismatchError(
                f"point length {len(p)}, polyhedron dimension {self.dim}"
            )
        e = lcm(*(x.denominator for x in p))
        x = [y.numerator * (e // y.denominator) for y in p]
        v, ue = self.scale.denominator, self.scale.numerator * e
        for a, b in self.bounds:
            lhs, rhs = v * sum(map(mul, x, a)), ue * b
            if lhs < rhs or strict and lhs == rhs:
                return False
        return True


def exponent(t) -> Fraction:
    """The exponent t as an exact rational; InputError unless t is a
    finite rational >= 0 (an int, a Fraction, a float or a string such as
    "3/2" or "1.5"; a bool is not read as 0 or 1, nor a string in exponent
    notation, as "1e999999999" would build a billion-digit int).  A
    Fraction >= 0 is returned as it is."""
    if type(t) is Fraction and t >= 0:
        return t
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
    P: NewtonPolyhedron, shift=None, strict: bool = False
) -> tuple[tuple[IntVec, int], ...]:
    """Integer facets (a, c) cutting out the lattice points m with
    m + shift in P (in its interior if ``strict``): each pair means
    <m, a> >= c.  P must be a NewtonPolyhedron and the shift's entries
    ints or Fractions (``lattice.rational_vector``), InputError otherwise.
    The shift is brought to integers over one denominator (one lcm call)
    and compiled by ``_compile``, the core that the package calls with
    values it holds already."""
    if not isinstance(P, NewtonPolyhedron):
        raise InputError(f"expected a NewtonPolyhedron, got {P!r}")
    shift = (0,) * P.dim if shift is None else rational_vector(shift)
    if len(shift) != P.dim:
        raise DimensionMismatchError(f"length {len(shift)} vs {P.dim}")
    e = lcm(*(x.denominator for x in shift))
    return _compile(P, [x.numerator * (e // x.denominator) for x in shift], e, strict)


def _compile(
    P: NewtonPolyhedron, shift, den: int, strict: bool
) -> tuple[tuple[IntVec, int], ...]:
    """``lattice_inequalities`` with no check, for a shift of ints of length
    P.dim over the int den >= 1: tau's (the ring's r*w over its Gorenstein
    index r), the socle corners' (an integer corner over q) and the
    integral closure's (the origin over 1).  It is the package's one
    producer of pairs: P's normals lie in sigma and every c is an int, so
    the pairs go to the up-set kernel's cores (``enumeration._union``) as
    they are.

    For integer <m, a> and s = shift/den, <m + s, a> > t*b iff <m, a> >=
    floor(t*b - <s, a>) + 1, and <m + s, a> >= t*b iff <m, a> >=
    ceil(t*b - <s, a>).  With t = u/v and L the lcm of v and den,
    L*t*b = (u*(L/v))*b and L*s = (L/den)*shift are integer, so c is the
    floor or ceiling of the integer quotient
    ((u*(L/v))*b - (L/den)*<shift, a>) / L, for P's integer pairs (a, b)
    of ``NewtonPolyhedron.bounds``.  Facet normals lie in sigma, so every
    m in sigma_dual meets a bound c <= 0; those are left out.
    """
    u, v = P.scale.numerator, P.scale.denominator
    L = lcm(v, den)
    lu, ls = u * (L // v), L // den
    out = []
    for a, b in P.bounds:
        num = lu * b - ls * sum(map(mul, shift, a))
        c = num // L + 1 if strict else -(-num // L)
        if c > 0:
            out.append((a, c))
    return tuple(out)


def _vertex_rays(recession: Cone, ineqs) -> list[IntVec]:
    """The extreme rays (x, s) with s > 0 of the homogenized region
    {x in recession : <x, a> >= c for every pair (a, c)}, whose vertices
    are the points x/s: the degree bound's double description.

    The normals a are int tuples in the dual of the recession cone and the
    c are ints, as ``_compile`` makes them.  Homogenized as
    <x, a> - c*s >= 0, <x, n> >= 0 for the facet normals n of the
    recession cone and s >= 0, the region is a pointed full-dimensional
    cone, and one double description gives its extreme rays.  The facet
    normals cut recession x R, so it starts from that cone
    (``lattice.dual_extreme_rays`` on ``recession``) and inserts s >= 0
    first, which turns the line into the ray (0, ..., 0, 1).
    """
    d = recession.dim
    halfspaces = [(0,) * d + (1,)] + [a + (-c,) for a, c in ineqs]
    return [e for e in dual_extreme_rays(halfspaces, recession) if e[d] > 0]


def _rotation_minima(columns) -> set[int]:
    """The indices of the vectors whose ray coordinate columns, read from
    column j onward cyclically in either direction, are lex-least, over
    every j.  A unique least entry of column j decides both directions;
    otherwise the vectors holding it, found once for both directions, are
    narrowed to the least entries of the next column in each direction
    until one is left, and distinct vectors never tie on every column,
    since the rays of sigma span."""
    out = set()
    k = len(columns)
    for j, column in enumerate(columns):
        low = min(column)
        if column.count(low) == 1:
            out.add(column.index(low))
            continue
        ties = [i for i, x in enumerate(column) if x == low]
        # with two rays both directions are one order
        for step in (1, -1) if k > 2 else (1,):
            left, at = ties, j
            while len(left) > 1:
                at = (at + step) % k
                col = columns[at]
                least = min(col[i] for i in left)
                left = [i for i in left if col[i] == least]
            out.add(left[0])
    return out


class CanonicalGenerators:
    """A ring's canonical generators: ``ring``, ``gens`` (the minimal
    generators, once each, in sigma_dual) and ``rows`` (their ray
    coordinates, aligned), checked when made.  ``ideals.MonomialIdeal`` is
    the one subclass; ``newton_polyhedron`` reads its fields as they are."""

    __slots__ = ()


def newton_polyhedron(ring: ToricRing, generators) -> NewtonPolyhedron:
    """Newton polyhedron of an ideal of the ring: of a
    ``CanonicalGenerators`` (a ``MonomialIdeal``), or of the ideal
    generated by raw exponents.

    An ideal is read as it is: its minimal generators and the columns of
    its rows, and P of the minimal generators is P of all of them, as the
    others lie in the minimal ones plus sigma_dual.  One of another ring
    raises InputError.  Raw generators that are not a collection of
    sequences of ints raise InputError, one of the wrong length
    DimensionMismatchError, one outside sigma_dual SemigroupMembershipError;
    they are deduplicated and paired with the rays of sigma by that check.
    No generators raise InputError.  Both feed the one body below.

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
    if isinstance(generators, CanonicalGenerators):
        if generators.ring != ring:
            raise InputError("the ideal does not belong to the given ring")
        gens, columns = generators.gens, list(zip(*generators.rows))
    else:
        gens = list(set(int_vectors(generators)))
        columns = member_columns(check_ring(ring), gens)
    if not gens:
        raise InputError("Newton polyhedron of the zero ideal is undefined")
    picked = _rotation_minima(columns)
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
    bounds = tuple(sorted((h, 0) for h in P.recession.halfspaces)) if t == 0 else P.bounds
    return NewtonPolyhedron(P.dim, P.recession, bounds, t, P.points)
