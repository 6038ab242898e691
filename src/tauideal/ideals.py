"""Monomial ideals in a toric ring and their arithmetic.

Divisibility is semigroup membership of the difference of exponent vectors,
not componentwise comparison of exponents; that keeps Veronese-type rings
correct.  It is componentwise comparison of the "ray coordinates" <g, n_j>
over the rays n_j of sigma, computed and checked for all generators at
once by ``lattice.semigroup_columns``, and every divisibility test here
(``minimalize``, ``minimal_vectors_orthant``,
``MonomialIdeal.is_subideal_of``) is one call of ``_below_masks``, which
compares all rows at once with integer bitmasks.  Powers square by adding
each unordered pair of generators once (``_square``), and ``powers`` yields
a nondecreasing sequence of powers lazily, each built from the one before.
Intersections, colons and trace roots (``trace_root``, the x^m with
q*m + (q-1)*w in I) are unions of up-sets in ray coordinates, met on their
bound vectors (up(a) cap up(b) = up(max(a, b)), ``_max_pairs``) and built
on every ring by one kernel call (``_upset_union``).  The zero ideal has an
empty generator tuple, the unit ideal the single zero vector.
``frobenius_root`` (the orthant's trace root, checked to cover I) and
``kill_variable`` are orthant-only and refuse other rings loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

from .errors import (
    InputError,
    InvariantError,
    RingMismatchError,
    SemigroupMembershipError,
    UnsupportedRingError,
)
from .lattice import IntVec, ToricRing, basis_inverse, orthant_ring, pairing_columns
from .lattice import semigroup_columns, vec_scale, vec_sub
# toric_ring is bound here only for perfbench/layers.py, which wraps ideals.toric_ring
from .lattice import toric_ring  # noqa: F401


def _require_orthant(ring: ToricRing, op: str) -> None:
    if not ring.is_orthant():
        raise UnsupportedRingError(f"{op} is only supported over orthant rings")


def _below_masks(rows) -> list[int]:
    """For each row j, the bitmask (bit k for row k) of the rows k with
    rows[k] <= rows[j] in every coordinate; bit j is always set.

    One pass per column, visiting the rows from the largest value down:
    ``above`` holds the rows whose value is larger than the one visited, and
    clearing those from below[j] in every column leaves the rows that lie
    nowhere above row j (integer bitmasks as in ``lattice._insert``).
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


def _ray_coords(ring: ToricRing, gens) -> list[IntVec]:
    """The ray coordinates (<g, n_j> over the rays n_j of sigma) of each g.

    Raises DimensionMismatchError on a vector of the wrong length and
    SemigroupMembershipError on one outside sigma_dual.
    """
    return list(zip(*semigroup_columns(ring, list(gens))))


def minimal_vectors_orthant(vectors) -> list[IntVec]:
    """Componentwise-minimal subset of a collection of integer vectors, in
    order of first appearance."""
    vecs = list(dict.fromkeys(vectors))
    below = _below_masks(vecs)
    return [v for j, v in enumerate(vecs) if below[j] == 1 << j]


@dataclass(frozen=True)
class MonomialIdeal:
    ring: ToricRing
    gens: tuple[IntVec, ...]

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return self.gens == (tuple(0 for _ in range(self.ring.d)),)

    def contains_monomial(self, m) -> bool:
        """True iff some generator divides x^m in the semigroup sense."""
        m = tuple(m)
        if not self.ring.in_semigroup(m):
            raise SemigroupMembershipError(f"{m} is outside the semigroup")
        return any(
            self.ring.in_semigroup(vec_sub(m, g)) for g in self.gens
        )

    def is_subideal_of(self, other: "MonomialIdeal") -> bool:
        """True iff every generator of self is divisible by one of other.

        One ``_below_masks`` call on the ray coordinates of other's
        generators followed by self's.  The generators of both ideals are
        checked: one of the wrong length raises DimensionMismatchError, one
        outside the semigroup SemigroupMembershipError.
        """
        _check_same_ring(self, other)
        n = len(other.gens)
        below = _below_masks(_ray_coords(self.ring, other.gens + self.gens))
        theirs = (1 << n) - 1
        return all(mask & theirs for mask in below[n:])

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return multiply(self, other)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return ideal_sum(self, other)

    def __pow__(self, n: int) -> "MonomialIdeal":
        return power(self, n)


def _check_same_ring(I: MonomialIdeal, J: MonomialIdeal) -> None:
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")


def _check_in_ring(ring: ToricRing, a: MonomialIdeal) -> None:
    """Refuse an ideal of another ring than the one an entry point was given."""
    if a.ring != ring:
        raise InputError("ideal does not belong to the given ring")


def minimalize(ring: ToricRing, raw_gens) -> MonomialIdeal:
    """Divisibility-minimal generating set; the unit ideal normalizes to {0}.

    x^h divides x^g iff <h, n_j> <= <g, n_j> for every ray n_j of sigma, so
    the minimal generators are those whose ray coordinates are
    componentwise minimal.  The rays span, so the coordinates determine g,
    and the zero vector's coordinates lie below every other's.
    """
    gens = list({tuple(g) for g in raw_gens})
    by_coords = dict(zip(_ray_coords(ring, gens), gens))
    minimal = sorted(by_coords[c] for c in minimal_vectors_orthant(by_coords))
    return MonomialIdeal(ring=ring, gens=tuple(minimal))


def unit_ideal(ring: ToricRing) -> MonomialIdeal:
    return MonomialIdeal(ring=ring, gens=(tuple(0 for _ in range(ring.d)),))


def zero_ideal(ring: ToricRing) -> MonomialIdeal:
    return MonomialIdeal(ring=ring, gens=())


def maximal_ideal(ring: ToricRing) -> MonomialIdeal:
    """The ideal generated by the unit vectors (the irrelevant ideal of the
    orthant; raises SemigroupMembershipError where a unit vector is not an
    exponent of the ring)."""
    d = ring.d
    return minimalize(
        ring, [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
    )


def multiply(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_same_ring(I, J)
    return minimalize(
        I.ring, {tuple(map(add, g, h)) for g in I.gens for h in J.gens}
    )


def _square(I: MonomialIdeal) -> MonomialIdeal:
    """I*I, adding each unordered pair of generators once; the square of one
    generator g is 2*g, with nothing to minimalize."""
    gens = I.gens
    if len(gens) == 1:
        return MonomialIdeal(ring=I.ring, gens=(vec_scale(2, gens[0]),))
    return minimalize(
        I.ring, {tuple(map(add, g, h)) for i, g in enumerate(gens) for h in gens[i:]}
    )


def ideal_sum(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_same_ring(I, J)
    return minimalize(I.ring, I.gens + J.gens)


def power(I: MonomialIdeal, n: int) -> MonomialIdeal:
    """I**n by repeated squaring; the n-th power of one generator g is the
    single generator n*g."""
    if n < 0:
        raise InputError(f"negative power {n}")
    if n == 0:
        return unit_ideal(I.ring)
    if len(I.gens) == 1:
        return MonomialIdeal(ring=I.ring, gens=(vec_scale(n, I.gens[0]),))
    result = None
    base = I
    k = n
    while k:
        if k & 1:
            result = base if result is None else multiply(result, base)
        k >>= 1
        if k:
            base = _square(base)
    return result


def powers(I: MonomialIdeal, exponents):
    """Lazily yield I**n for each n of the nondecreasing sequence
    ``exponents``.

    Each value after the first is built from the one before: a repeat is
    the same ideal, a doubled exponent a squaring, and any other step from
    m to n is I**m * I**(n - m) (from m = 0, just I**n).  Nothing past the
    last value taken is computed.
    """
    prev_n = prev = None
    for n in exponents:
        if prev_n is not None and n < prev_n:
            raise InputError(f"exponents must not decrease, got {prev_n} then {n}")
        if not prev_n:
            prev = power(I, n)
        elif n == 2 * prev_n:
            prev = _square(prev)
        elif n != prev_n:
            prev = multiply(prev, power(I, n - prev_n))
        prev_n = n
        yield prev


def _upset_union(ring: ToricRing, bounds) -> MonomialIdeal:
    """The ideal of the x^m whose ray coordinates dominate some c in
    ``bounds`` (integer vectors, one entry per ray of sigma).

    Ray coordinates are never negative, so c may be raised to v = max(c, 0),
    and a v above another adds nothing.  A lattice point m with ray
    coordinates exactly v divides every member of v's up-set, so it is the
    only generator.  The rays span, so m solves <m, n_b> = v_b on a basis
    of them, and exists iff floor(A v_B / D) (``lattice.basis_inverse``)
    has ray coordinates v; on a smooth cone it always does.  Any other
    up-set is enumerated up to its proven degree bound.
    """
    from .enumeration import degree_bound, inequality_batch, minimal_upset_generators

    tops = minimal_vectors_orthant(tuple(max(x, 0) for x in c) for c in bounds)
    basis, inverse, den = basis_inverse(ring.sigma.rays)
    numerators = pairing_columns([[v[b] for b in basis] for v in tops], inverse)
    points = list(zip(*([x // den for x in col] for col in numerators)))
    point_coords = zip(*pairing_columns(points, ring.sigma.rays))
    gens, enumerated = [], []
    for v, m, coords in zip(tops, points, point_coords):
        if coords == v:
            gens.append(m)
        else:
            pairs = list(zip(ring.sigma.rays, v))
            enumerated += minimal_upset_generators(
                ring, inequality_batch(pairs), degree_bound(ring, pairs)
            )
    if not enumerated:  # the points of distinct minimal tops divide none of each other
        return MonomialIdeal(ring=ring, gens=tuple(sorted(gens)))
    return minimalize(ring, gens + enumerated)


def _max_pairs(A, B) -> list[IntVec]:
    """The minimal componentwise maxima max(a, b) over a in A and b in B:
    the bounds of up(a) cap up(b) = up(max(a, b)), over every pair."""
    return minimal_vectors_orthant(tuple(map(max, a, b)) for a in A for b in B)


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """x^m lies in (x^g) and in (x^h) iff its ray coordinates dominate
    those of g and of h, so I cap J is the up-set union over the pairs
    (g, h) of their componentwise maxima."""
    _check_same_ring(I, J)
    coords = _ray_coords(I.ring, I.gens + J.gens)
    n = len(I.gens)
    return _upset_union(I.ring, _max_pairs(coords[:n], coords[n:]))


def colon(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """The largest K with K*J contained in I: the intersection over the
    generators h of J of (I : x^h), the up-set union of the ray coordinates
    of g - h over the generators g of I.  The intersection is taken on the
    bound vectors, from the zero vector (the unit ideal), one ``_max_pairs``
    step per h, and the ideal is built once at the end."""
    _check_same_ring(I, J)
    coords = _ray_coords(I.ring, I.gens + J.gens)
    n = len(I.gens)
    bounds = [(0,) * len(I.ring.sigma.rays)]
    for h in coords[n:]:
        bounds = _max_pairs(bounds, [tuple(map(sub, g, h)) for g in coords[:n]])
    return _upset_union(I.ring, bounds)


def bracket_power(I: MonomialIdeal, q: int) -> MonomialIdeal:
    """Generators scaled by q (the q-th Frobenius bracket power)."""
    if q < 1:
        raise InputError(f"bracket power needs q >= 1, got {q}")
    return MonomialIdeal(
        ring=I.ring, gens=tuple(sorted(tuple(q * x for x in g) for g in I.gens))
    )


def trace_root(I: MonomialIdeal, q: int) -> MonomialIdeal:
    """The ideal C_q of the x^m with q*m + (q-1)*w in I, for q >= 1 with
    (q-1)*w a lattice point: the image of I under the q-th trace map.

    x^g divides x^(q*m + (q-1)*w) iff q*<m, n_j> + q - 1 >= <g, n_j> on
    every ray n_j of sigma, as <w, n_j> = 1; for integers that reads
    <m, n_j> >= ceil((<g, n_j> + 1)/q) - 1 = floor(<g, n_j>/q).  So C_q is
    one ``_upset_union`` over the floors of the generators' ray coordinates.
    """
    if q < 1:
        raise InputError(f"a root needs q >= 1, got {q}")
    floors = set(zip(*([x // q for x in c] for c in semigroup_columns(I.ring, I.gens))))
    return _upset_union(I.ring, floors)


def frobenius_root(I: MonomialIdeal, q: int) -> MonomialIdeal:
    """Smallest monomial J with bracket_power(J, q) containing I: on the
    orthant, the only rings it takes, w = (1, ..., 1) and J is ``trace_root``."""
    _require_orthant(I.ring, "frobenius_root")
    root = trace_root(I, q)
    if not I.is_subideal_of(bracket_power(root, q)):
        raise InvariantError(f"the q = {q} root of {I.gens} does not cover it")
    return root


def kill_variable(I: MonomialIdeal, axis: int) -> MonomialIdeal:
    """Image of I in the orthant ring with variable ``axis`` (0-based) killed."""
    _require_orthant(I.ring, "kill_variable")
    d = I.ring.d
    if d < 2:
        raise InputError("cannot kill the only variable")
    if not 0 <= axis < d:
        raise InputError(f"axis {axis} out of range for rank {d}")
    survivors = [g[:axis] + g[axis + 1:] for g in I.gens if g[axis] == 0]
    return minimalize(orthant_ring(d - 1), survivors)


def integral_closure(I: MonomialIdeal) -> MonomialIdeal:
    """Monomials whose exponents lie in the Newton polyhedron of I."""
    from .enumeration import degree_bound, inequality_batch, minimal_upset_generators
    from .polyhedra import lattice_inequalities, newton_polyhedron

    if I.is_zero():
        raise InputError("integral closure of the zero ideal is undefined")
    if I.is_unit():
        return I
    ineqs = lattice_inequalities(newton_polyhedron(I.ring, I.gens))
    gens = minimal_upset_generators(
        I.ring, inequality_batch(ineqs), degree_bound(I.ring, ineqs)
    )
    return MonomialIdeal(ring=I.ring, gens=tuple(sorted(gens)))
