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
algebra is one fraction-free (Bareiss) elimination, ``_echelon``, behind
``matrix_rank``, ``solve_unit_pairings`` and ``basis_inverse`` (the
inverse of a basis of given vectors).  The pairings of many vectors
with a few normals (ray coordinates, facet tests) are ``pairing_columns``,
computed a coordinate column at a time; ``semigroup_columns`` pairs with
the rays of sigma and checks every vector on the way.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """v as a tuple, after checking that every entry is an int: InputError
    otherwise (a float, a Fraction, a string, None)."""
    v = tuple(v)
    if not {int}.issuperset(map(type, v)):
        raise InputError(f"{v} has an entry that is not an int")
    return v


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
    """Fraction-free row echelon form of integer/rational row vectors.

    Returns the nonzero echelon rows and their pivot columns.  Each row is
    first cleared of denominators.  Bareiss elimination ("Sylvester's
    identity and multistep integer-preserving Gaussian elimination", Math.
    Comp. 22, 1968): after a pivot step every entry below the pivot rows is
    a minor of the input, so the division by the previous pivot is exact.
    """
    m = []
    for r in rows:
        r = [Fraction(x) for x in r]
        den = lcm(*(x.denominator for x in r))
        m.append([int(x * den) for x in r])
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
        for i in range(k + 1, len(m)):
            f = m[i][col]
            m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = p
        pivots.append(col)
    return m[: len(pivots)], pivots


@cache
def basis_inverse(vectors: tuple[IntVec, ...]) -> tuple[IntVec, tuple[IntVec, ...], int]:
    """For integer vectors that span: the indices of the first d linearly
    independent ones (the pivots of ``_echelon`` on the coordinate rows),
    and the integer rows A and the D > 0 with A = D * B^-1, B those vectors
    as rows.  The echelon form of [B | 1] is upper triangular on its left
    half, so back-substitution solves B x = e_c for each unit vector e_c.
    Cached: ``ideals._upset_union`` asks for sigma's rays on every call."""
    d = len(vectors[0])
    basis = tuple(_echelon(list(zip(*vectors)))[1])
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rows = _echelon([vectors[b] + u for b, u in zip(basis, units)])[0]
    columns = []
    for c in range(d, 2 * d):
        x = [Fraction(0)] * d
        for i in reversed(range(d)):
            row = rows[i]
            x[i] = Fraction(row[c] - sum(row[j] * x[j] for j in range(i + 1, d))) / row[i]
        columns.append(x)
    den = lcm(*(x.denominator for column in columns for x in column))
    return basis, tuple(tuple(int(col[i] * den) for col in columns) for i in range(d)), den


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
    extreme rays of the current cone modulo its lineality space.
    """
    halfspaces = [tuple(h) for h in halfspaces]
    if not halfspaces:
        raise ConeNotPointedError("no halfspaces: the whole space is not pointed")
    dim = len(halfspaces[0])
    for h in halfspaces:
        if len(h) != dim:
            raise DimensionMismatchError("halfspaces of mixed lengths")
        if not any(h):
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
    gens = tuple(tuple(g) for g in generators)
    d = len(gens[0])
    pivots = _echelon([g + (1,) for g in gens])[1]
    if pivots[-1] == d:
        raise NotQGorensteinError("pairing system <w, n_i> = 1 is inconsistent")
    if len(pivots) < d:
        raise ConeNotFullDimensionalError("generators do not span the lattice")
    # consistent and spanning: w is B^-1 (1, ..., 1) on a basis of the generators
    _, inverse, den = basis_inverse(gens)
    return tuple(Fraction(sum(row), den) for row in inverse)


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
        """Membership of an integer vector in sigma_dual (the exponent cone);
        InputError on an entry that is not an int."""
        m = int_vector(m)
        if len(m) != self.d:
            raise DimensionMismatchError(f"vector length {len(m)}, ring rank {self.d}")
        return all(pairing(m, h) >= 0 for h in self.sigma_dual.halfspaces)


def semigroup_columns(ring: ToricRing, vectors) -> list[list[int]]:
    """``pairing_columns`` of the sequence ``vectors`` with the rays of
    sigma, after checking the vectors: one with an entry that is not an int
    raises InputError, one of the wrong length DimensionMismatchError and
    one outside sigma_dual SemigroupMembershipError, each naming the vector."""
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
    """Construct a ToricRing from integer generators of sigma.

    Checks strong convexity and full-dimensionality, computes the dual cone
    by double description, and solves for the Q-Gorenstein vector.
    """
    sigma = cone_from_rays(generators)
    sigma_dual = Cone(dim=sigma.dim, rays=sigma.halfspaces, halfspaces=sigma.rays)
    w, index = gorenstein_vector(sigma)
    return ToricRing(
        d=sigma.dim,
        sigma=sigma,
        sigma_dual=sigma_dual,
        w=w,
        gorenstein_index=index,
    )


@cache
def orthant_ring(d: int) -> ToricRing:
    """The polynomial ring k[x_1..x_d] as a toric ring (built once per d)."""
    return toric_ring(
        [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
    )
