"""Exact lattice and cone arithmetic.

Exponent vectors are plain tuples of Python ints (arbitrary precision);
rational points are tuples of ``fractions.Fraction``.  Cones are stored with
both a ray and a halfspace description, converted by the double description
method with exact integer arithmetic; a toric ring costs one double
description, since the facets of sigma are the rays of sigma_dual.  The
double description tracks each ray's tight set as an integer bitmask over
the inserted halfspaces and tests adjacency and extremality on those masks
alone, so it needs no rank computation; a caller whose halfspaces begin with
a known cone's facets lifted by one coordinate starts it from that cone's
state (``_prism``) and inserts only its own, a first (v, 1) in closed form
(``_lifted``).  Its integer kernels are single
passes: each pairing is ``sum(map(mul, ...))``, ``primitivize`` one gcd
call that leaves a primitive vector as it is, and every new ray or
lineality vector one fused a*u - b*v (``_combine``).  All other linear
algebra is one fraction-free Gauss-Jordan elimination on integers alone,
``_echelon``, whose rows are D times the reduced echelon form: it gives
``matrix_rank`` and, once per ring, ``left_inverse`` of sigma's rays
(integer rows A and D > 0 with A*V = D*1, V the rays as rows), from which
``gorenstein_vector`` reads w, ``ToricRing.is_smooth`` reads D and
``_points`` turns ray coordinates into lattice points, with no
back-substitution and no Fraction arithmetic.  The pairings of many vectors
with a few normals (ray coordinates, facet tests) are ``pairing_columns``,
computed a coordinate column at a time; ``member_columns`` pairs int
vectors with the rays of sigma and checks each on the way (raw ones after
``int_vectors``: ``semigroup_columns``).  Such rows of ray coordinates
are compared by integer bitmasks in ``_below_masks`` (the
minimal ones: ``minimal_vectors_orthant``) and become points in ``_points``;
on a smooth sigma (``ToricRing.is_smooth``) every row >= 0 is one point's.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping, Set
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, mul, sub

from .errors import (
    ConeNotFullDimensionalError,
    ConeNotPointedError,
    DimensionMismatchError,
    InputError,
    NotQGorensteinError,
    SemigroupMembershipError,
    ZeroVectorError,
)

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


def pairing(m, n):
    """Duality pairing (exact dot product) of two equal-length vectors."""
    if len(m) != len(n):
        raise DimensionMismatchError(f"length {len(m)} vs {len(n)}")
    return sum(map(mul, m, n))


def pairing_columns(vectors, normals) -> list[list[int]]:
    """The pairings <v, n> of every vector v of the sequence ``vectors``
    with each normal n: one list per normal, in the order of ``vectors``.

    The list of n is the sum, over the coordinates i with n_i != 0, of n_i
    times the column of the i-th coordinates of the vectors; a unit n_i adds
    that column as it is, so on the orthant each list is a coordinate column.
    Raises DimensionMismatchError unless every vector and normal has the
    same length.
    """
    lengths = {*map(len, vectors), *map(len, normals)}
    if len(lengths) > 1:
        raise DimensionMismatchError(f"vectors and normals of lengths {sorted(lengths)}")
    columns = list(zip(*vectors))
    out = []
    for n in normals:
        total = None
        for x, column in zip(n, columns):
            if x:
                term = column if x == 1 else map(mul, column, repeat(x))
                total = term if total is None else map(add, total, term)
        out.append([0] * len(vectors) if total is None else list(total))
    return out


def vec_add(a, b):
    return tuple(map(add, a, b))


def vec_sub(a, b):
    return tuple(map(sub, a, b))


def vec_scale(c, v):
    return tuple(map(mul, repeat(c), v))


def vec_neg(v):
    return tuple(-x for x in v)


def int_vector(v) -> IntVec:
    """v as a tuple, after checking that it is a sequence of ints: InputError
    for a v that is not iterable, a mapping or a set (read by its keys, or
    in no fixed order), or an entry that is not an int (a float, a
    Fraction, a string, None)."""
    return _typed_vector(v, {int}, "an int")


def int_vectors(vs) -> list[IntVec]:
    """``int_vector`` of each element of the collection vs, in one scan of
    the entries when they are tuples: InputError for a vs that is not
    iterable, as for any of its elements."""
    vs = sequence("vectors", vs)
    if {tuple}.issuperset(map(type, vs)) and {int}.issuperset(map(type, chain.from_iterable(vs))):
        return vs
    return [int_vector(v) for v in vs]


def sequence(name: str, xs) -> list:
    """xs as a list, after checking that it is iterable and not a str,
    whose characters would pass as its items: InputError otherwise."""
    if isinstance(xs, str):
        raise InputError(f"{name} must be a sequence, got the string {xs!r}")
    try:
        items = iter(xs)
    except TypeError:
        raise InputError(f"{name} must be a sequence, got {xs!r}") from None
    return list(items)


def rational_vector(v) -> RatVec:
    """v as a tuple, after checking that it is a sequence of exact
    rationals, each an int or a Fraction: InputError otherwise, as in
    ``int_vector``."""
    return _typed_vector(v, {int, Fraction}, "an int or a Fraction")


def _typed_vector(v, types: set, what: str) -> tuple:
    # a mapping would be read by its keys, a set in an arbitrary order; a
    # tuple, as every route's vectors are, skips the abstract-class checks
    if type(v) is not tuple and isinstance(v, (Mapping, Set)):
        raise InputError(f"{v!r} is not a sequence: a mapping or a set has no entry order")
    try:
        v = tuple(v)
    except TypeError:
        raise InputError(f"{v!r} is not a sequence") from None
    if not types.issuperset(map(type, v)):
        raise InputError(f"{v} has an entry that is not {what}")
    return v


def unit_vectors(d: int) -> list[IntVec]:
    """The unit vectors e_1 .. e_d."""
    return [tuple(int(i == j) for j in range(d)) for i in range(d)]


def int_scalar(name: str, x) -> int:
    """x, after checking that it is an int (not a bool): InputError otherwise."""
    if type(x) is not int:
        raise InputError(f"{name} must be an int, got {x!r}")
    return x


def primitivize(v: IntVec) -> IntVec:
    """Divide an integer vector by the (positive) gcd of its coordinates;
    a vector that is already primitive is returned as it is."""
    g = gcd(*v)
    if g == 1:
        return v
    if g == 0:
        raise ZeroVectorError("cannot primitivize the zero vector")
    return tuple([x // g for x in v])


def _combine(a, u, b, v) -> IntVec:
    """The integer vector a*u - b*v, in one pass over the coordinates."""
    return tuple([a * x - b * y for x, y in zip(u, v)])


def _echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form of integer/rational row vectors.

    Returns the nonzero rows, D times the reduced echelon form with D the
    last pivot, and their pivot columns.  Each row is first cleared of
    denominators (an int's is 1).  Each pivot step clears the pivot column
    from every other row, those above included, and divides by the previous
    pivot; as in Bareiss elimination ("Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 22, 1968) every
    entry after a step is a minor of the input, so the division is exact.
    """
    m = []
    for r in rows:
        den = lcm(*(x.denominator for x in r))
        m.append([x.numerator * (den // x.denominator) for x in r])
    pivots: list[int] = []
    prev = 1
    for col in range(len(m[0]) if m else 0):
        k = len(pivots)
        piv = next((i for i in range(k, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[k], m[piv] = m[piv], m[k]
        top = m[k]
        p = top[col]
        for i, row in enumerate(m):
            if i != k:
                f = row[col]
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        prev = p
        pivots.append(col)
    return m[: len(pivots)], pivots


@cache
def left_inverse(vectors: tuple[IntVec, ...]) -> tuple[tuple[IntVec, ...], int]:
    """For k integer vectors that span, V those vectors as rows: the d
    integer rows A and the least D > 0 with A*V = D*1.  The reduced form of
    [V | 1] has the rows D' * [e_i | a_i] for i < d, with a_i*V = D' * e_i
    as row operations keep [V | 1] = [X*V | X]; A, D are the a_i and D'
    over their gcd.  No basis is picked, and on d vectors A = D * V^-1.
    Vectors that do not span raise ConeNotFullDimensionalError.  Cached:
    each ring's rays are eliminated once, for w, smoothness and points."""
    d = len(vectors[0])
    rows, pivots = _echelon([v + u for v, u in zip(vectors, unit_vectors(len(vectors)))])
    if pivots[:d] != list(range(d)):
        raise ConeNotFullDimensionalError(f"vectors {vectors} do not span")
    den = rows[0][0]
    g = gcd(den, *chain.from_iterable(row[d:] for row in rows[:d])) * (1 if den > 0 else -1)
    return tuple(tuple(x // g for x in row[d:]) for row in rows[:d]), den // g


def matrix_rank(rows) -> int:
    """Rank of a list of integer/rational row vectors (exact elimination)."""
    return len(_echelon(rows)[1])


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
    lin_vals = [sum(map(mul, l, h)) for l in lineality]
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
            primitivize(_combine(d0, l, v, l0))
            for j, (l, v) in enumerate(zip(lineality, lin_vals))
            if j != k
        ]
        new_rays: dict[IntVec, int] = {}
        for r, mask in rays.items():
            proj = _combine(d0, r, sum(map(mul, r, h)), l0)
            if any(proj):
                new_rays.setdefault(primitivize(proj), mask | bit)
        new_rays.setdefault(primitivize(l0), bit - 1)
        return new_lin, new_rays

    pos, neg = [], []
    new_rays = {}
    for r, mask in rays.items():
        v = sum(map(mul, r, h))
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
            new_rays.setdefault(primitivize(_combine(rh, s, sh, r)), common | bit)
    return lineality, new_rays


def dual_extreme_rays(halfspaces, base: Cone | None = None) -> list[IntVec]:
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
    extreme rays of the current cone modulo its lineality space (``_insert``'s
    invariant); once that space is gone they are the extreme rays
    themselves, so they are returned as they are, sorted.

    With a ``base`` cone K the halfspaces live in one more dimension, and the
    double description starts from the state it reaches after inserting
    (h, 0) for every facet normal h of K (``_prism``); the result, and any
    error, is that of the cold run on those halfspaces followed by the
    given ones, with the bits in that order.  That state meets the
    invariant.  K's facet normals are the extreme rays of its dual, so the
    (h, 0) cut out (K dual)-dual x R, which is K x R as K is closed and
    convex; K is pointed, so modulo the line R*(0, ..., 0, 1) the extreme
    rays of K x R are the (n, 0) over the extreme rays n of K, primitive as
    n is, and the line pairs to zero with every (h, 0).  Each mask is read
    off the pairings, so it is the ray's tight set.  A first given
    halfspace (v, 1), as every Newton polyhedron's and the degree bound's
    is, is inserted in closed form (``_lifted``).
    """
    halfspaces = int_vectors(halfspaces)
    if base is None:
        if not halfspaces:
            raise ConeNotPointedError("no halfspaces: the whole space is not pointed")
        dim = len(halfspaces[0])
        inserted, lineality, rays = (), unit_vectors(dim), {}
    else:
        dim = check_cone(base).dim + 1
        inserted, lineality, start = _prism(base)
        lineality, rays = list(lineality), dict(start)
    for h in halfspaces:
        if len(h) != dim:
            raise DimensionMismatchError("halfspaces of mixed lengths")
        if not any(h):
            raise ZeroVectorError("zero halfspace normal")

    if base is not None and halfspaces and halfspaces[0][-1] == 1:
        lineality, rays = _lifted(start, halfspaces[0], 1 << len(inserted))
        inserted, halfspaces = (*inserted, halfspaces[0]), halfspaces[1:]
    for i, h in enumerate(halfspaces, len(inserted)):
        lineality, rays = _insert(lineality, rays, h, 1 << i)

    if lineality:
        raise ConeNotPointedError("halfspaces admit a line")
    if not rays:
        raise ConeNotFullDimensionalError("cone is the origin only")
    implicit = -1
    for mask in rays.values():
        implicit &= mask
    if implicit:
        h = [*inserted, *halfspaces][(implicit & -implicit).bit_length() - 1]
        raise ConeNotFullDimensionalError(f"halfspace {h} is an implicit equality")
    return sorted(rays)


@cache
def _prism(cone: Cone):
    """The double description state of ``dual_extreme_rays`` on a base cone
    K: the inserted halfspaces (h, 0) over K's facet normals h; the
    lineality space, spanned by (0, ..., 0, 1); and each ray, (n, 0) over
    K's extreme rays n, with the bitmask of the inserted halfspaces it is
    tight on.  Built once per cone."""
    inserted = [h + (0,) for h in cone.halfspaces]
    rays = [n + (0,) for n in cone.rays]
    masks = [sum(1 << i for i, v in enumerate(row) if not v)
             for row in zip(*pairing_columns(rays, inserted))]
    return tuple(inserted), ((0,) * cone.dim + (1,),), tuple(zip(rays, masks))


def _lifted(start, h, bit):
    """The state ``_insert`` reaches from a ``_prism`` state whose rays and
    masks are ``start`` on inserting h = (v, 1) with mask bit ``bit``: no
    lineality, each ray (n, 0) as (n, -<n, v>) with its mask | bit, and
    the ray (0, ..., 0, 1) with mask bit - 1.

    Proof: the prism's lineality space is spanned by l0 = (0, ..., 0, 1)
    alone, and <l0, h> = 1, so ``_insert`` takes its projection branch
    with d0 = 1 and keeps no lineality vector.  It maps each ray
    r = (n, 0) to 1*r - <r, h>*l0 = (n, -<n, v>), tight on r's halfspaces,
    as l0 pairs to zero with each of them, and on h.  Its first entries
    are n's, whose gcd is 1, so it is primitive and ``primitivize`` keeps
    it; distinct n give distinct rays, so no ``setdefault`` meets one
    twice.  Last, l0 becomes a ray tight on every halfspace before h."""
    v = h[:-1]
    rays = {n[:-1] + (-sum(map(mul, n, v)),): mask | bit for n, mask in start}
    rays[(0,) * len(v) + (1,)] = bit - 1
    return [], rays


def _extreme(vectors, halfspaces) -> list[IntVec]:
    """The extreme rays, sorted, of the pointed cone generated by distinct
    primitive ``vectors`` with facet normals ``halfspaces``: v is extreme
    iff no other vector is tight on all of v's facets (one bitmask each), as
    a v in a face of dimension 2 or more shares them with that face's rays."""
    masks = [sum(1 << j for j, x in enumerate(row) if not x)
             for row in zip(*pairing_columns(vectors, halfspaces))]
    return sorted(
        v for v, mv in zip(vectors, masks) if sum(1 for m in masks if m & mv == mv) == 1
    )


def _below_masks(rows) -> list[int]:
    """For each row j, the bitmask (bit k for row k) of the rows k with
    rows[k] <= rows[j] in every coordinate; bit j is always set.

    One pass per column, visiting the rows from the largest value down:
    ``above`` holds the rows whose value is larger than the one visited, and
    clearing those from below[j] in every column leaves the rows that lie
    nowhere above row j (integer bitmasks as in ``_insert``).
    """
    n = len(rows)
    below = [(1 << n) - 1] * n
    for column in zip(*rows):
        above = tied = 0
        value = None
        for k in sorted(range(n), key=column.__getitem__, reverse=True):
            if column[k] != value:
                above |= tied
                tied, value = 0, column[k]
            tied |= 1 << k
            below[k] &= ~above
    return below


def minimal_vectors_orthant(vectors) -> list[IntVec]:
    """Componentwise-minimal subset of a collection of integer vectors, in
    order of first appearance.  u <= v with u != v forces sum(u) < sum(v),
    so distinct vectors of one coordinate sum are all minimal."""
    vecs = list(dict.fromkeys(vectors))
    if len({*map(sum, vecs)}) < 2:
        return vecs
    below = _below_masks(vecs)
    return [v for j, v in enumerate(vecs) if below[j] == 1 << j]


def _points(ring: ToricRing, rows) -> list[IntVec]:
    """floor(A v / D) for each ray-coordinate vector v of ``rows``
    (``left_inverse`` of sigma's rays): the lattice point m with ray
    coordinates v whenever one exists, as then A v = A V m = D m."""
    inverse, den = left_inverse(ring.sigma.rays)
    return list(zip(*([x // den for x in col] for col in pairing_columns(rows, inverse))))


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone with both descriptions populated.

    ``rays`` are the primitive extreme rays, sorted; the cone is guaranteed
    strongly convex and full-dimensional.  Each halfspace h means <x,h> >= 0,
    and ``halfspaces`` are the primitive extreme rays of the dual cone,
    sorted, so ``dual_cone`` only swaps the two descriptions.
    """

    dim: int
    rays: tuple[IntVec, ...]
    halfspaces: tuple[IntVec, ...]


def cone_from_rays(generators) -> Cone:
    """Build a cone from any integer generators (checked by
    ``int_vectors``), computing its H-representation and keeping only the
    extreme rays (``_extreme`` on their tight facets)."""
    gens = list(dict.fromkeys(map(primitivize, int_vectors(generators))))
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
    return Cone(dim=dim, rays=tuple(_extreme(gens, halfspaces)), halfspaces=tuple(halfspaces))


def dual_cone(cone: Cone) -> Cone:
    """The dual cone: the two descriptions swap (see ``Cone``)."""
    check_cone(cone)
    return Cone(dim=cone.dim, rays=cone.halfspaces, halfspaces=cone.rays)


@dataclass(frozen=True)
class ToricRing:
    """Ambient data of a Q-Gorenstein toric ring.

    ``sigma`` is the defining cone in the dual lattice, ``sigma_dual`` the
    cone of exponent vectors, ``w`` the rational vector pairing to 1 against
    every generator of sigma, and ``gorenstein_index`` the least r with r*w
    integral.  ``toric_ring`` derives the other fields from sigma, so rings
    compare and hash by sigma alone.
    """

    d: int = field(compare=False)
    sigma: Cone
    sigma_dual: Cone = field(compare=False)
    w: RatVec = field(compare=False)
    gorenstein_index: int = field(compare=False)

    def is_orthant(self) -> bool:
        return set(self.sigma.rays) == set(unit_vectors(self.d))

    def index_w(self) -> IntVec:
        """r*w, r the Gorenstein index: the least multiple of w that is a
        lattice point, as ints."""
        r = self.gorenstein_index
        return tuple([x.numerator * (r // x.denominator) for x in self.w])

    def is_smooth(self) -> bool:
        """Does sigma have d rays with D = 1 in their ``left_inverse``?  Then
        B, the rays as rows, has the integer inverse A, so m -> B*m maps the
        lattice onto Z^d and every v >= 0 is the ray coordinates B*m of
        exactly one lattice point m = A*v, which lies in sigma_dual as
        <m, n_j> = v_j >= 0 on every ray n_j."""
        rays = self.sigma.rays
        return len(rays) == self.d and left_inverse(rays)[1] == 1

    def in_semigroup(self, m) -> bool:
        """Membership of an integer vector in sigma_dual (the exponent cone);
        InputError on an entry that is not an int."""
        m = int_vector(m)
        if len(m) != self.d:
            raise DimensionMismatchError(f"vector length {len(m)}, ring rank {self.d}")
        return all(pairing(m, h) >= 0 for h in self.sigma_dual.halfspaces)


def check_cone(cone) -> Cone:
    """cone, after checking that it is a Cone: InputError otherwise."""
    if not isinstance(cone, Cone):
        raise InputError(f"expected a Cone, got {cone!r}")
    return cone


def check_ring(ring) -> ToricRing:
    """ring, after checking that it is a ToricRing: InputError otherwise."""
    if not isinstance(ring, ToricRing):
        raise InputError(f"the ring must be a ToricRing, got {ring!r}")
    return ring


def semigroup_columns(ring: ToricRing, vectors) -> list[list[int]]:
    """``member_columns`` of raw vectors, after ``int_vectors``: InputError
    for an entry that is not an int."""
    return member_columns(ring, int_vectors(vectors))


def member_columns(ring: ToricRing, vectors) -> list[list[int]]:
    """``pairing_columns`` of a list of int vectors with the rays of sigma, a
    checked ring's, after checking each: a wrong length raises
    DimensionMismatchError and a vector outside sigma_dual
    SemigroupMembershipError, each naming the vector."""
    try:
        columns = pairing_columns(vectors, ring.sigma.rays)
    except DimensionMismatchError:
        bad = next(v for v in vectors if len(v) != ring.d)
        raise DimensionMismatchError(
            f"generator {bad} has length {len(bad)}, ring rank {ring.d}"
        ) from None
    if vectors and min(map(min, columns)) < 0:
        bad = next(v for v in vectors if not ring.in_semigroup(v))
        raise SemigroupMembershipError(f"generator {bad} outside the semigroup")
    return columns


def gorenstein_vector(sigma: Cone):
    """The vector w with <w, n_i> = 1 for every ray n_i, plus its index.
    With A, D the ``left_inverse`` of the rays V, V*w = 1 forces
    D*w = A*V*w = A*1, so w is A's row sums over D; NotQGorensteinError
    unless every ray pairs to 1 with it."""
    rays = check_cone(sigma).rays
    inverse, den = left_inverse(rays)
    sums = [sum(row) for row in inverse]
    if any(pairing(n, sums) != den for n in rays):
        raise NotQGorensteinError("pairing system <w, n_i> = 1 is inconsistent")
    w = tuple(Fraction(x, den) for x in sums)
    return w, lcm(*(x.denominator for x in w))


def toric_ring(generators) -> ToricRing:
    """Construct a ToricRing from any integer generators of sigma.

    Checks strong convexity and full-dimensionality, keeps the extreme rays,
    reads the dual cone off the same double description and solves for w.
    """
    sigma = cone_from_rays(generators)
    w, index = gorenstein_vector(sigma)
    return ToricRing(
        d=sigma.dim,
        sigma=sigma,
        sigma_dual=dual_cone(sigma),
        w=w,
        gorenstein_index=index,
    )


def rank(d) -> int:
    """d, after checking that it is an int no larger than ``sys.maxsize``,
    the longest a tuple can be: InputError otherwise."""
    if int_scalar("d", d) > sys.maxsize:
        raise InputError(f"rank d = {d} exceeds the longest tuple, {sys.maxsize}")
    return d


def orthant_ring(d: int) -> ToricRing:
    """The polynomial ring k[x_1..x_d] as a toric ring (built once per d);
    d is checked (``rank``) before the cache reads it, so InputError for any
    d that is not an int, hashable or not."""
    return _orthant_ring(rank(d))


@cache
def _orthant_ring(d: int) -> ToricRing:
    return toric_ring(unit_vectors(d))
