"""Exact lattice and cone arithmetic.

Exponent vectors are plain tuples of Python ints (arbitrary precision);
rational points are tuples of ``fractions.Fraction``.  Cones are stored with
both a ray and a halfspace description, converted by the double description
method with exact integer arithmetic; a toric ring costs one double
description, since the facets of sigma are the rays of sigma_dual.  The
double description tracks each ray's tight set as an integer bitmask over
the inserted halfspaces and tests adjacency and extremality on those masks
alone, so it needs no rank computation.  Its integer kernels are single
passes: each pairing is ``sum(map(mul, ...))``, ``primitivize`` one gcd
call that leaves a primitive vector as it is, and every new ray or
lineality vector one fused a*u - b*v (``_combine``).  All other linear
algebra is one fraction-free Gauss-Jordan elimination on integers alone,
``_echelon``, whose rows are D times the reduced echelon form: it gives
``matrix_rank``, the Q-Gorenstein vector w (``solve_unit_pairings``) and
``basis_inverse`` (D times the inverse of a basis of given vectors), with
no back-substitution and no Fraction arithmetic.  The pairings of many vectors
with a few normals (ray coordinates, facet tests) are ``pairing_columns``,
computed a coordinate column at a time; ``semigroup_columns`` pairs with
the rays of sigma and checks every vector on the way.  Such rows of ray
coordinates are compared by integer bitmasks in ``_below_masks`` (the
minimal ones: ``minimal_vectors_orthant``) and become points in ``_points``.
"""

from __future__ import annotations

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
    for a v that is not iterable or an entry that is not an int (a float, a
    Fraction, a string, None)."""
    return _typed_vector(v, {int}, "an int")


def int_vectors(vs) -> list[IntVec]:
    """``int_vector`` of each element of the collection vs: InputError for
    a vs that is not iterable, as for any of its elements."""
    return [int_vector(v) for v in sequence("vectors", vs)]


def sequence(name: str, xs) -> list:
    """xs as a list, after checking that it is iterable: InputError
    otherwise."""
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
def basis_inverse(vectors: tuple[IntVec, ...]) -> tuple[IntVec, tuple[IntVec, ...], int]:
    """For integer vectors that span: the indices of the first d linearly
    independent ones (the pivots of ``_echelon`` on the coordinate rows),
    and the integer rows A and the least D > 0 with A = D * B^-1, B those
    vectors as rows: the reduced form of [B | 1] is D' * [1 | B^-1], and
    A, D are its right half and D' over their gcd.  Vectors that do not
    span raise ConeNotFullDimensionalError.  Cached: ``_points`` asks for
    sigma's rays on every call."""
    d = len(vectors[0])
    basis = tuple(_echelon(list(zip(*vectors)))[1])
    if len(basis) < d:
        raise ConeNotFullDimensionalError(f"vectors {vectors} do not span")
    rows = _echelon([vectors[b] + u for b, u in zip(basis, unit_vectors(d))])[0]
    g = gcd(*chain.from_iterable(rows)) * (1 if rows[0][0] > 0 else -1)
    return basis, tuple(tuple(x // g for x in row[d:]) for row in rows), rows[0][0] // g


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
    extreme rays of the current cone modulo its lineality space (``_insert``'s
    invariant); once that space is gone they are the extreme rays
    themselves, so they are returned as they are, sorted.
    """
    halfspaces = int_vectors(halfspaces)
    if not halfspaces:
        raise ConeNotPointedError("no halfspaces: the whole space is not pointed")
    dim = len(halfspaces[0])
    for h in halfspaces:
        if len(h) != dim:
            raise DimensionMismatchError("halfspaces of mixed lengths")
        if not any(h):
            raise ZeroVectorError("zero halfspace normal")

    lineality = unit_vectors(dim)
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
    return sorted(rays)


def _extreme(vectors, masks) -> list[IntVec]:
    """The extreme rays, sorted, of the pointed cone generated by distinct
    primitive ``vectors``, each with the bitmask of the halfspaces it is
    tight on: v is extreme iff no other vector is tight on all of v's, as a
    v in a face of dimension 2 or more shares them with that face's rays."""
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
    order of first appearance."""
    vecs = list(dict.fromkeys(vectors))
    if len(vecs) < 2:
        return vecs
    below = _below_masks(vecs)
    return [v for j, v in enumerate(vecs) if below[j] == 1 << j]


def _points(ring: ToricRing, rows) -> list[IntVec]:
    """floor(A v_B / D) for each ray-coordinate vector v of ``rows``
    (``basis_inverse`` of sigma's rays): the lattice point with ray
    coordinates v whenever one exists, as the rays span."""
    basis, inverse, den = basis_inverse(ring.sigma.rays)
    numerators = pairing_columns([[v[b] for b in basis] for v in rows], inverse)
    return list(zip(*([x // den for x in col] for col in numerators)))


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
    masks = [sum(1 << j for j, v in enumerate(row) if not v)
             for row in zip(*pairing_columns(gens, halfspaces))]
    return Cone(dim=dim, rays=tuple(_extreme(gens, masks)), halfspaces=tuple(halfspaces))


def dual_cone(cone: Cone) -> Cone:
    """The dual cone: the two descriptions swap (see ``Cone``)."""
    return Cone(dim=cone.dim, rays=cone.halfspaces, halfspaces=cone.rays)


def solve_unit_pairings(generators) -> RatVec:
    """Solve <w, n_i> = 1 for all generators n_i by exact elimination.

    The reduced form of [G | 1], G the generators as rows, has the rows
    D * [e_i | w_i] when the system is consistent (no pivot in the last
    column, else NotQGorensteinError) and the generators span (d pivots,
    else ConeNotFullDimensionalError).
    """
    gens = tuple(tuple(g) for g in generators)
    d = len(gens[0])
    rows, pivots = _echelon([g + (1,) for g in gens])
    if pivots[-1] == d:
        raise NotQGorensteinError("pairing system <w, n_i> = 1 is inconsistent")
    if len(pivots) < d:
        raise ConeNotFullDimensionalError("generators do not span the lattice")
    return tuple(Fraction(row[d], row[i]) for i, row in enumerate(rows))


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

    def in_semigroup(self, m) -> bool:
        """Membership of an integer vector in sigma_dual (the exponent cone);
        InputError on an entry that is not an int."""
        m = int_vector(m)
        if len(m) != self.d:
            raise DimensionMismatchError(f"vector length {len(m)}, ring rank {self.d}")
        return all(pairing(m, h) >= 0 for h in self.sigma_dual.halfspaces)


def check_ring(ring) -> ToricRing:
    """ring, after checking that it is a ToricRing: InputError otherwise."""
    if not isinstance(ring, ToricRing):
        raise InputError(f"the ring must be a ToricRing, got {ring!r}")
    return ring


def semigroup_columns(ring: ToricRing, vectors) -> list[list[int]]:
    """``pairing_columns`` of ``vectors`` with the rays of sigma, after
    ``check_ring`` and a check of each vector: an entry that is not an int
    raises InputError, a wrong length DimensionMismatchError and a vector
    outside sigma_dual SemigroupMembershipError, each naming the vector."""
    check_ring(ring)
    if not {int}.issuperset(map(type, chain.from_iterable(vectors))):
        bad = next(v for v in vectors if not {int}.issuperset(map(type, v)))
        raise InputError(f"generator {bad} has an entry that is not an int")
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
    """The vector w with <w, n_i> = 1 for every generator, plus its index."""
    w = solve_unit_pairings(sigma.rays)
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


def orthant_ring(d: int) -> ToricRing:
    """The polynomial ring k[x_1..x_d] as a toric ring (built once per d);
    d is checked before the cache reads it, so InputError for any d that is
    not an int, hashable or not."""
    return _orthant_ring(int_scalar("d", d))


@cache
def _orthant_ring(d: int) -> ToricRing:
    return toric_ring(unit_vectors(d))
