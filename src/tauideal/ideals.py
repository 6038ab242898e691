"""Monomial ideals in a toric ring and their arithmetic.

Divisibility is semigroup membership of the difference of exponent vectors,
not componentwise comparison of exponents; that keeps Veronese-type rings
correct.  It is componentwise comparison of the "ray coordinates" <g, n_j>
over the rays n_j of sigma, computed and checked for all generators at
once by ``lattice.semigroup_columns``, and every divisibility test here
(``minimalize``, ``MonomialIdeal.is_subideal_of``, ``contains_monomial``)
is one call of the bitmask kernel ``lattice._below_masks``.  Ray
coordinates add under products, and every product and square is one
packed kernel, ``_sums``: each row is one int of fixed-width fields
(``_field_width``, from the largest sum that can occur), a pair sum is one
int addition, a set of ints drops repeats, and only the distinct sums are
read back for the minimal filter.  ``multiply`` keeps the minimal sums of
its factors' rows, and ``powers`` lazily yields the rows of any sequence
of powers by one rule, squaring I**(n/2) for an even n and adding I's rows
to I**(n-1) for an odd one; ``power`` is its one value.  Rows become
generators in ``lattice._points``.  Intersections, colons and trace roots
(``trace_root``, the x^m with q*m + (q-1)*w in I) are unions of up-sets in
ray coordinates, met on their bound vectors as tuples (up(a) cap up(b) =
up(max(a, b)), ``_maxima``).  Their bounds, all >= 0, the trace root's floors
(``_floors``) among them, go through ``_upset_union`` to the one up-set kernel
``enumeration.upset_union`` as boxes, with no pair sets.  The zero ideal
has an empty generator tuple, the unit ideal the single zero vector.  ``frobenius_root``
(the orthant's trace root, checked to cover I) and ``kill_variable`` are
orthant-only and refuse other rings loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lshift, sub

from .errors import (
    InputError,
    InvariantError,
    RingMismatchError,
    UnsupportedRingError,
)
from . import polyhedra
from .enumeration import hilbert_basis, upset_union
from .lattice import IntVec, ToricRing, _below_masks, _points, check_ring, int_scalar, int_vector
from .lattice import int_vectors, minimal_vectors_orthant, orthant_ring, semigroup_columns
# toric_ring is bound here only for perfbench/layers.py, which wraps ideals.toric_ring
from .lattice import toric_ring  # noqa: F401


def _require_orthant(ring: ToricRing, op: str) -> None:
    if not ring.is_orthant():
        raise UnsupportedRingError(f"{op} is only supported over orthant rings")


def _ray_coords(ring: ToricRing, gens) -> list[IntVec]:
    """The ray coordinates (<g, n_j> over the rays n_j of sigma) of each g.

    Raises DimensionMismatchError on a vector of the wrong length and
    SemigroupMembershipError on one outside sigma_dual.
    """
    return list(zip(*semigroup_columns(ring, list(gens))))


def _covers(lower, upper) -> bool:
    """True iff every vector of ``upper`` is componentwise >= some vector
    of ``lower``: one ``_below_masks`` call on both."""
    n = len(lower)
    theirs = (1 << n) - 1
    return all(mask & theirs for mask in _below_masks(lower + upper)[n:])


@dataclass(frozen=True)
class MonomialIdeal:
    """An ideal of ``ring`` given by its generators' exponents.  The fields
    must be a ToricRing and a tuple of tuples (InputError otherwise); their
    entries are checked as ints where they are read."""

    ring: ToricRing
    gens: tuple[IntVec, ...]

    def __post_init__(self):
        check_ring(self.ring)
        if type(self.gens) is not tuple or not {tuple}.issuperset(map(type, self.gens)):
            raise InputError(f"an ideal's generators must be tuples in a tuple, got {self.gens!r}")

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return self.gens == (tuple(0 for _ in range(self.ring.d)),)

    def contains_monomial(self, m) -> bool:
        """True iff some generator divides x^m in the semigroup sense:
        ``_covers`` on the ray coordinates of m and the generators, all
        checked as in ``is_subideal_of``."""
        rows = _ray_coords(self.ring, (int_vector(m),) + self.gens)
        return _covers(rows[1:], rows[:1])

    def is_subideal_of(self, other: "MonomialIdeal") -> bool:
        """True iff every generator of self is divisible by one of other.

        ``_covers`` on the ray coordinates of both ideals' generators, which
        are checked: one of the wrong length raises DimensionMismatchError,
        one outside the semigroup SemigroupMembershipError.
        """
        return _covers(*_paired_rows(other, self))

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return multiply(self, other)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return ideal_sum(self, other)

    def __pow__(self, n: int) -> "MonomialIdeal":
        return power(self, n)


def _check_ideal(I: MonomialIdeal) -> None:
    if not isinstance(I, MonomialIdeal):
        raise InputError(f"expected an ideal, got a {type(I).__name__}")


def _check_same_ring(I: MonomialIdeal, J: MonomialIdeal) -> None:
    _check_ideal(I)
    _check_ideal(J)
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")


def _paired_rows(I: MonomialIdeal, J: MonomialIdeal) -> tuple[list[IntVec], list[IntVec]]:
    """The checked ray coordinates of I's generators and of J's, two ideals
    of one ring (RingMismatchError otherwise), from one ``_ray_coords`` call."""
    _check_same_ring(I, J)
    rows = _ray_coords(I.ring, I.gens + J.gens)
    n = len(I.gens)
    return rows[:n], rows[n:]


def minimalize(ring: ToricRing, raw_gens) -> MonomialIdeal:
    """Divisibility-minimal generating set; the unit ideal normalizes to {0}.

    x^h divides x^g iff <h, n_j> <= <g, n_j> for every ray n_j of sigma, so
    the minimal generators are those whose ray coordinates are
    componentwise minimal.  The rays span, so the coordinates determine g,
    and the zero vector's coordinates lie below every other's.
    """
    gens = list(set(int_vectors(raw_gens)))
    by_coords = dict(zip(_ray_coords(ring, gens), gens))
    minimal = sorted(by_coords[c] for c in minimal_vectors_orthant(by_coords))
    return MonomialIdeal(ring=ring, gens=tuple(minimal))


def unit_ideal(ring: ToricRing) -> MonomialIdeal:
    return MonomialIdeal(ring=ring, gens=(tuple(0 for _ in range(check_ring(ring).d)),))


def zero_ideal(ring: ToricRing) -> MonomialIdeal:
    return MonomialIdeal(ring=ring, gens=())


def maximal_ideal(ring: ToricRing) -> MonomialIdeal:
    """The irrelevant ideal, of the Hilbert basis of sigma_dual cap M (the
    unit vectors on the orthant); irreducibles divide none of each other.
    The ring is checked before the basis cache hashes it."""
    return MonomialIdeal(ring=ring, gens=tuple(sorted(hilbert_basis(check_ring(ring)))))


def _field_width(A, B) -> int:
    """The bits per field of ``_sums``' packing of the rows of A and B: the
    bit length of the largest entry a sum a + b can reach, the largest
    entry of A plus the largest entry of B."""
    return (max(map(max, A)) + max(map(max, B))).bit_length()


def _sums(A, B=None) -> list[IntVec]:
    """The minimal sums a + b of rows a of A and b of B (ray coordinates,
    all >= 0), so of the products x^a * x^b; with B None, of every
    unordered pair of rows of A, so of the squares.

    Each row is packed into one int, entry j in bits [W*j, W*(j + 1)) with
    W = ``_field_width``: no entry of a sum reaches 2**W, so adding two
    packed rows adds each field with no carry into the next, and the
    packed sum is the packing of the sum.  A set of ints drops repeated
    sums, and only the distinct ones are read back, a column at a time,
    in ascending order.  A row u <= v componentwise, u != v, packs to a
    smaller int, and one that packs smaller has a last entry <= v's (the
    last field is the most significant).  So v is not minimal iff some
    earlier row is <= v on the other coordinates: bit k < j in the
    ``lattice._below_masks`` of those columns.  The minimal sums come in
    ascending packed order.
    """
    if not A or B is not None and not B:
        return []
    width = _field_width(A, A if B is None else B)
    shifts = [width * j for j in range(len(A[0]))]
    packed = [sum(map(lshift, row, shifts)) for row in A]
    if B is None:
        sums = {x + y for i, x in enumerate(packed) for y in packed[i:]}
    else:
        others = [sum(map(lshift, row, shifts)) for row in B]
        sums = {x + y for x in packed for y in others}
    mask = (1 << width) - 1
    if len(sums) < 2:  # a single sum is minimal
        return [tuple([s >> shift & mask for shift in shifts]) for s in sums]
    sums = sorted(sums)
    rows = list(zip(*[[s >> shift & mask for s in sums] for shift in shifts]))
    below = _below_masks([v[:-1] for v in rows])
    return [v for j, v in enumerate(rows) if not below[j] & ((1 << j) - 1)]


def _maxima(A, B) -> list[IntVec]:
    """The minimal max(a, b) over every pair of a in A and b in B: the
    bounds of up(a) cap up(b) = up(max(a, b)).  They stay tuples, as a
    colon's differences may be negative until ``colon`` clamps them."""
    return minimal_vectors_orthant(tuple(map(max, a, b)) for a in A for b in B)


def multiply(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Ray coordinates add, so the generators of I*J are the points
    (``_points``) of the minimal sums of the generators' checked ray
    coordinates (``_sums``); those points divide none of each other."""
    gens = _points(I.ring, _sums(*_paired_rows(I, J)))
    return MonomialIdeal(ring=I.ring, gens=tuple(sorted(gens)))


def ideal_sum(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_same_ring(I, J)
    return minimalize(I.ring, I.gens + J.gens)


def power(I: MonomialIdeal, n: int) -> MonomialIdeal:
    """I**n: the points of the one value of the chain ``powers(I, [n])``."""
    rows = next(powers(I, [n]))
    return MonomialIdeal(ring=I.ring, gens=tuple(sorted(_points(I.ring, rows))))


def powers(I: MonomialIdeal, exponents):
    """Lazily yield the ray coordinates of the minimal generators of I**n
    for each n of ``exponents`` (ints >= 0, in any order), pairing I's
    generators with the rays once (and checking them).

    One rule builds every power from the unit ideal's zero row, I**0: an
    even n squares I**(n/2), an odd n adds I's rows to I**(n - 1), each
    by the one packed kernel ``_sums``.  Every power built is kept, so none
    is built twice, and nothing past the last value taken is built.
    """
    _check_ideal(I)
    rows = _ray_coords(I.ring, I.gens)
    built = {0: [(0,) * len(I.ring.sigma.rays)]}
    for n in exponents:
        if int_scalar("exponent", n) < 0:
            raise InputError(f"exponents must be >= 0, got {n}")
        todo, k = [], n
        while k not in built:
            todo.append(k)
            k = k - 1 if k % 2 else k // 2
        for k in reversed(todo):
            built[k] = _sums(built[k - 1], rows) if k % 2 else _sums(built[k // 2])
        yield built[n]


def _upset_union(ring: ToricRing, bounds) -> MonomialIdeal:
    """The ideal of the x^m whose ray coordinates dominate some c in
    ``bounds`` (integer vectors >= 0, one entry per ray of sigma): one
    ``enumeration.upset_union`` call with the bounds as its boxes."""
    return MonomialIdeal(ring=ring, gens=upset_union(ring, (), bounds)[0])


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """x^m lies in (x^g) and in (x^h) iff its ray coordinates dominate
    those of g and of h, so I cap J is the up-set union over the pairs
    (g, h) of their componentwise maxima."""
    return _upset_union(I.ring, _maxima(*_paired_rows(I, J)))


def colon(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """The largest K with K*J contained in I: the intersection over the
    generators h of J of (I : x^h), the up-set union of the ray coordinates
    of g - h over the generators g of I.  The intersection is taken on the
    bound vectors, from the zero vector (the unit ideal), one ``_maxima``
    step per h, and the ideal is built once at the end; the zero vector
    clamps every negative difference at 0, as rc(m) >= 0 on sigma_dual."""
    rows_I, rows_J = _paired_rows(I, J)
    bounds = [(0,) * len(I.ring.sigma.rays)]
    for h in rows_J:
        bounds = _maxima(bounds, [tuple(map(sub, g, h)) for g in rows_I])
    return _upset_union(I.ring, bounds)


def bracket_power(I: MonomialIdeal, q: int) -> MonomialIdeal:
    """Generators scaled by q (the q-th Frobenius bracket power)."""
    _check_ideal(I)
    if int_scalar("q", q) < 1:
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
    the union of the boxes at the floors of the generators' ray coordinates
    (``_floors``, through ``_upset_union``).  Any other q is an InputError.
    """
    _check_ideal(I)
    if int_scalar("q", q) < 1:
        raise InputError(f"a root needs q >= 1, got {q}")
    if (q - 1) % I.ring.gorenstein_index:
        raise InputError(f"(q-1)*w is not a lattice point at q = {q}")
    return _upset_union(I.ring, _floors(_ray_coords(I.ring, I.gens), q))


def _floors(rows, q: int) -> list[IntVec]:
    """The distinct floor(v/q), componentwise, over the rows v, a column
    at a time."""
    return [*{*zip(*[[x // q for x in column] for column in zip(*rows)])}]


def frobenius_root(I: MonomialIdeal, q: int) -> MonomialIdeal:
    """Smallest monomial J with bracket_power(J, q) containing I: on the
    orthant, the only rings it takes, w = (1, ..., 1) and J is ``trace_root``."""
    _check_ideal(I)
    _require_orthant(I.ring, "frobenius_root")
    root = trace_root(I, q)
    if not I.is_subideal_of(bracket_power(root, q)):
        raise InvariantError(f"the q = {q} root of {I.gens} does not cover it")
    return root


def kill_variable(I: MonomialIdeal, axis: int) -> MonomialIdeal:
    """Image of I in the orthant ring with variable ``axis`` (0-based) killed."""
    _check_ideal(I)
    _require_orthant(I.ring, "kill_variable")
    d = I.ring.d
    if d < 2:
        raise InputError("cannot kill the only variable")
    if not 0 <= int_scalar("axis", axis) < d:
        raise InputError(f"axis {axis} out of range for rank {d}")
    survivors = [g[:axis] + g[axis + 1:] for g in I.gens if g[axis] == 0]
    return minimalize(orthant_ring(d - 1), survivors)


def integral_closure(I: MonomialIdeal) -> MonomialIdeal:
    """Monomials whose exponents lie in the Newton polyhedron of I."""
    _check_ideal(I)
    if I.is_zero():
        raise InputError("integral closure of the zero ideal is undefined")
    # the unit ideal's polyhedron is sigma_dual, whose bounds are all 0 and
    # dropped; read through the module, where perfbench/layers.py wraps it
    ineqs = polyhedra.lattice_inequalities(polyhedra.newton_polyhedron(I.ring, I.gens))
    return MonomialIdeal(ring=I.ring, gens=upset_union(I.ring, [ineqs])[0])
