"""Monomial ideals in a toric ring and their arithmetic.

Divisibility is semigroup membership of the difference of exponent vectors,
not componentwise comparison of exponents; that keeps Veronese-type rings
correct.  It is componentwise comparison of the "ray coordinates" <g, n_j>
over the rays n_j of sigma.  An ideal carries its generators' ray
coordinates, ``MonomialIdeal.rows``, from when it is made (paired by its
check, or handed over); raw vectors are paired and checked
by ``_ray_coords`` (``lattice.member_columns``).  Every divisibility test
here (``MonomialIdeal``, ``is_subideal_of``, ``contains_monomial``) is one
call of the bitmask kernel ``lattice._below_masks``.  Ray coordinates add
under products, and two packed kernels make every sum of rows: each row is
one int of fixed-width fields, wide enough for the largest sum that can
occur, a sum is one int addition, a set of ints drops repeats, and only
the distinct sums are read back.  ``_sums`` adds the rows of one set to
those of another; ``_floors``, the root oracle's, sums the multisets of n
rows of one set and floors them by q.  Every minimal filter here is
``lattice.minimal_vectors_orthant``.  ``multiply`` keeps the minimal sums
of its factors' rows, and ``powers`` lazily yields the rows of any
sequence of powers by one rule, squaring I**(n/2) (``_sums`` of its rows
with themselves) for an even n and adding I's rows to I**(n-1) for an odd
one; ``power`` is its one value.  Rows become generators in
``_from_rows``, one ``lattice._points`` call.  Intersections, colons and trace roots
(``trace_root``, the x^m with q*m + (q-1)*w in I) are unions of up-sets in
ray coordinates, met on their bound vectors as tuples (up(a) cap up(b) =
up(max(a, b)), ``_maxima``).  Their bounds, all >= 0, go through
``_upset_union`` to the one up-set kernel ``enumeration._union`` as boxes,
with no pair sets, and come back as the rows of the union's generators.
The trace root's bounds are the floors of its generators' rows, not
minimal-filtered.  An ideal is checked and
made canonical (minimal generators, once each, sorted: ``==`` is ideal
equality) once, when it is made (``MonomialIdeal``), and the canonical
ideals derived here from checked ones are made without that check
(``_derived``); ``_ordered`` sorts both.  The zero ideal has an empty
generator tuple, the unit ideal the single zero vector.  ``frobenius_root``
(the orthant's trace root, checked to cover I) and ``kill_variable`` are
orthant-only and refuse other rings loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import lshift, sub

from .errors import (
    InputError,
    InvariantError,
    RingMismatchError,
    UnsupportedRingError,
)
from . import polyhedra
from .enumeration import _lines, _union
from .lattice import IntVec, ToricRing, _below_masks, _points, check_ring, int_scalar
from .lattice import int_vector, int_vectors, member_columns, minimal_vectors_orthant
from .lattice import orthant_ring, semigroup_columns
# toric_ring is bound here only for perfbench/layers.py, which wraps ideals.toric_ring
from .lattice import toric_ring  # noqa: F401


def _require_orthant(ring: ToricRing, op: str) -> None:
    if not ring.is_orthant():
        raise UnsupportedRingError(f"{op} is only supported over orthant rings")


def _ray_coords(ring: ToricRing, gens) -> list[IntVec]:
    """The ray coordinates (<g, n_j> over the rays n_j of sigma) of each raw
    int vector g, a checked ring's (``lattice.member_columns``); a checked
    ideal's are its ``rows``.

    Raises DimensionMismatchError on a vector of the wrong length and
    SemigroupMembershipError on one outside sigma_dual.
    """
    return list(zip(*member_columns(ring, list(gens))))


def _covers(lower, upper) -> bool:
    """True iff every vector of ``upper`` is componentwise >= some vector
    of ``lower``: one ``_below_masks`` call on both."""
    n = len(lower)
    theirs = (1 << n) - 1
    return all(mask & theirs for mask in _below_masks([*lower, *upper])[n:])


@dataclass(frozen=True)
class MonomialIdeal(polyhedra.CanonicalGenerators):
    """An ideal of ``ring`` given by its generators' exponents, checked when
    it is made: the fields must be a ToricRing and a tuple of tuples of ints
    (InputError otherwise), each generator of length d
    (DimensionMismatchError) and in sigma_dual (SemigroupMembershipError).
    It keeps the minimal generators, once each and sorted, so ``==`` and
    ``hash`` are ideal equality, and their ``rows``, paired by the check;
    ``_derived`` makes canonical ones unchecked."""

    ring: ToricRing
    gens: tuple[IntVec, ...]
    rows: tuple[IntVec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # x^h divides x^g iff rows(h) <= rows(g), and the rays span, so the
        # rows determine g and the zero vector's lie below every other's
        check_ring(self.ring)
        if type(self.gens) is not tuple or not {tuple}.issuperset(map(type, self.gens)):
            raise InputError(f"an ideal's generators must be tuples in a tuple, got {self.gens!r}")
        by_rows = dict(zip(zip(*semigroup_columns(self.ring, self.gens)), self.gens))
        rows = minimal_vectors_orthant(by_rows)
        _ordered(self, [by_rows[v] for v in rows], rows)

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        """1 lies in the ideal iff 0 is a generator, as the rays span, and
        then the only minimal one."""
        return self.gens == ((0,) * self.ring.d,)

    def contains_monomial(self, m) -> bool:
        """True iff some generator divides x^m in the semigroup sense:
        ``_covers`` on the generators' ``rows`` and the ray coordinates of
        m, which is checked (``_ray_coords``)."""
        return _covers(self.rows, _ray_coords(self.ring, [int_vector(m)]))

    def is_subideal_of(self, other: "MonomialIdeal") -> bool:
        """True iff every generator of self is divisible by one of other:
        ``_covers`` on both ideals' ``rows``."""
        _check_same_ring(other, self)
        return _covers(other.rows, self.rows)

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


def minimalize(ring: ToricRing, raw_gens) -> MonomialIdeal:
    """The ideal (``MonomialIdeal``) of an iterable of raw int vectors
    (``int_vectors``); the unit ideal normalizes to {0}."""
    return MonomialIdeal(ring, tuple(int_vectors(raw_gens)))


def _ordered(ideal: MonomialIdeal, gens, rows) -> MonomialIdeal:
    """ideal with ``gens`` and their ``rows``, aligned, as its generators and
    rows, sorted by generator: the one place either field is set."""
    gens, rows = tuple(zip(*sorted(zip(gens, rows)))) or ((), ())
    object.__setattr__(ideal, "gens", gens)
    object.__setattr__(ideal, "rows", rows)
    return ideal


def _derived(ring: ToricRing, gens, rows) -> MonomialIdeal:
    """The ideal of generators derived here from checked values, canonical by
    construction (int tuples of length d in sigma_dual, minimal, once each),
    with their rows, in any order: no ``MonomialIdeal`` check."""
    ideal = object.__new__(MonomialIdeal)
    object.__setattr__(ideal, "ring", ring)
    return _ordered(ideal, gens, rows)


def unit_ideal(ring: ToricRing) -> MonomialIdeal:
    return _derived(ring, [(0,) * check_ring(ring).d], [(0,) * len(ring.sigma.rays)])


def zero_ideal(ring: ToricRing) -> MonomialIdeal:
    return _derived(check_ring(ring), (), ())


def maximal_ideal(ring: ToricRing) -> MonomialIdeal:
    """The irrelevant ideal, of the Hilbert basis of sigma_dual cap M (the
    unit vectors on the orthant) and its ray coordinates, both from the
    checked ring's ``enumeration._Lines``: irreducibles divide none of
    each other."""
    lines = _lines(check_ring(ring))
    return _derived(ring, lines.basis, lines.basis_rows)


def _field_width(A, B) -> int:
    """The bits per field of ``_sums``' packing of the rows of A and B: the
    bit length of the largest entry a sum a + b can reach, the largest
    entry of A plus the largest entry of B."""
    return (max(map(max, A)) + max(map(max, B))).bit_length()


def _sums(A, B) -> list[IntVec]:
    """The minimal sums a + b of rows a of A and b of B (ray coordinates,
    all >= 0), so of the products x^a * x^b.

    Each row is packed into one int, entry j in bits [W*j, W*(j + 1)) with
    W = ``_field_width``: no entry of a sum reaches 2**W, so adding two
    packed rows adds each field with no carry into the next, and the
    packed sum is the packing of the sum.  A set of ints drops repeated
    sums, and only the distinct ones are read back, a column at a time,
    for ``lattice.minimal_vectors_orthant``.
    """
    if not A or not B:
        return []
    width = _field_width(A, B)
    shifts = [width * j for j in range(len(A[0]))]
    packed = [sum(map(lshift, row, shifts)) for row in A]
    others = [sum(map(lshift, row, shifts)) for row in B]
    sums = {x + y for x in packed for y in others}
    mask = (1 << width) - 1
    return minimal_vectors_orthant(zip(*[[s >> shift & mask for s in sums] for shift in shifts]))


def _maxima(A, B) -> list[IntVec]:
    """The minimal max(a, b) over every pair of a in A and b in B: the
    bounds of up(a) cap up(b) = up(max(a, b)).  They stay tuples, as a
    colon's differences may be negative until ``colon`` clamps them."""
    return minimal_vectors_orthant(tuple(map(max, a, b)) for a in A for b in B)


def _from_rows(ring: ToricRing, rows) -> MonomialIdeal:
    """The ideal whose generators have the ray coordinates ``rows``, each
    the ray coordinates of a lattice point and none above another: their
    points, from one ``_points`` call, with ``rows`` as its rows."""
    return _derived(ring, _points(ring, rows), rows)


def multiply(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Ray coordinates add, so the generators of I*J are the points of the
    minimal sums of the factors' ``rows`` (``_sums``)."""
    _check_same_ring(I, J)
    return _from_rows(I.ring, _sums(I.rows, J.rows))


def ideal_sum(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I + J: the points of the minimal rows of I and of J."""
    _check_same_ring(I, J)
    return _from_rows(I.ring, minimal_vectors_orthant(I.rows + J.rows))


def power(I: MonomialIdeal, n: int) -> MonomialIdeal:
    """I**n: the points of the one value of the chain ``powers(I, [n])``."""
    rows = next(powers(I, [n]))  # checks I before its ring is read
    return _from_rows(I.ring, rows)


def powers(I: MonomialIdeal, exponents):
    """Lazily yield the ray coordinates of the minimal generators of I**n
    for each n of ``exponents`` (ints >= 0, in any order), from ``I.rows``.

    One rule builds every power from the unit ideal's zero row, I**0: an
    even n squares I**(n/2), the minimal sums of two of its rows
    (``_sums`` of its rows with themselves), and an odd n adds I's rows to
    I**(n - 1) (``_sums``).  Every power built is kept, so none is built
    twice, and nothing past the last value taken is built.
    """
    _check_ideal(I)
    built = {0: [(0,) * len(I.ring.sigma.rays)]}
    for n in exponents:
        if int_scalar("exponent", n) < 0:
            raise InputError(f"exponents must be >= 0, got {n}")
        todo, k = [], n
        while k not in built:
            todo.append(k)
            k = k - 1 if k % 2 else k // 2
        for k in reversed(todo):
            if k % 2:
                built[k] = _sums(built[k - 1], I.rows)
            else:
                built[k] = _sums(built[k // 2], built[k // 2])
        yield built[n]


def _upset_union(ring: ToricRing, bounds) -> list[IntVec]:
    """The sorted ray coordinates of the minimal generators of the ideal of
    the x^m whose ray coordinates dominate some c in ``bounds`` (integer
    vectors >= 0, one entry per ray of sigma, derived here from checked
    ideals, so trusted by the core): one ``enumeration._union`` call with
    the bounds as its boxes, which hands back rows, so on a smooth sigma no
    point is made (``_from_rows`` makes them)."""
    return _union(ring, (), bounds, rows=True)[0]


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """x^m lies in (x^g) and in (x^h) iff its ray coordinates dominate
    those of g and of h, so I cap J is the up-set union over the pairs
    (g, h) of their componentwise maxima."""
    _check_same_ring(I, J)
    return _from_rows(I.ring, _upset_union(I.ring, _maxima(I.rows, J.rows)))


def colon(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """The largest K with K*J contained in I: the intersection over the
    generators h of J of (I : x^h), the up-set union of the ray coordinates
    of g - h over the generators g of I.  The intersection is taken on the
    bound vectors, from the zero vector (the unit ideal), one ``_maxima``
    step per row c of J's clamped minimal rows, and the ideal is built once
    at the end; the zero vector clamps every negative difference at 0, as
    rc(m) >= 0 on sigma_dual.

    J's rows are read only through their minimal clamps min(rc(h), top),
    top the componentwise maximum of I's rows.  Clamping is exact: every
    row rc(g) of I is <= top, so in each entry rc(g) - rc(h) < 0 and
    rc(g) - top <= 0 where rc(h) > top, and max(rc(g) - rc(h), 0) =
    max(rc(g) - min(rc(h), top), 0); (I : x^h) depends on h only through
    its clamp c.  Only the minimal clamps matter: c <= c' lowers every
    bound rc(g) - c' below rc(g) - c, so the up-set union for c lies in
    the one for c', and the intersection over all clamps is the one over
    the minimal clamps.
    """
    _check_same_ring(I, J)
    bounds = [(0,) * len(I.ring.sigma.rays)]
    top = tuple(map(max, zip(*I.rows, bounds[0])))  # the zero row stands in for no rows
    for c in minimal_vectors_orthant(tuple(map(min, h, top)) for h in J.rows):
        bounds = _maxima(bounds, [tuple(map(sub, g, c)) for g in I.rows])
    return _from_rows(I.ring, _upset_union(I.ring, bounds))


def bracket_power(I: MonomialIdeal, q: int) -> MonomialIdeal:
    """Generators and rows scaled by q >= 1, which keeps their minimality:
    the q-th bracket power."""
    _check_ideal(I)
    if int_scalar("q", q) < 1:
        raise InputError(f"bracket power needs q >= 1, got {q}")
    gens, rows = ([tuple([q * x for x in v]) for v in vs] for vs in (I.gens, I.rows))
    return _derived(I.ring, gens, rows)


def trace_root(I: MonomialIdeal, q: int) -> MonomialIdeal:
    """The ideal C_q of the x^m with q*m + (q-1)*w in I, for q >= 1 with
    (q-1)*w a lattice point: the image of I under the q-th trace map.

    x^g divides x^(q*m + (q-1)*w) iff q*<m, n_j> + q - 1 >= <g, n_j> on
    every ray n_j of sigma, as <w, n_j> = 1; for integers that reads
    <m, n_j> >= ceil((<g, n_j> + 1)/q) - 1 = floor(<g, n_j>/q).  So C_q is
    the union of the boxes at the floors of the generators' ray coordinates
    (through ``_upset_union``).  Any other q is an InputError.
    """
    _check_ideal(I)
    if int_scalar("q", q) < 1:
        raise InputError(f"a root needs q >= 1, got {q}")
    if (q - 1) % I.ring.gorenstein_index:
        raise InputError(f"(q-1)*w is not a lattice point at q = {q}")
    floors = [tuple([x // q for x in row]) for row in I.rows]
    return _from_rows(I.ring, _upset_union(I.ring, floors))


def _floors(rows, q: int, n: int) -> list[IntVec]:
    """The distinct floor((v_1 + ... + v_n)/q), componentwise, over the
    multisets {v_1, ..., v_n} of n of the rows (ray coordinates, all >= 0):
    at n = 1 the floors of the rows, at n = 0 the zero row; no rows give
    no floors.  The sums are not minimal-filtered: the up-set kernel drops
    the boxes above others.

    The rows are packed as in ``_sums``, each field wide enough for n times
    the largest entry, so packed sums add with no carry.  The sums of k of
    the rows taken so far, k = 0..n, are kept as sets of ints, which drop
    repeats; taking the next row p, the sums of k rows gain p plus each
    sum of k - 1 rows, those that already hold p included, in ascending k.
    The last row p only completes the sums of n rows, as (n - k)*p plus
    each sum of k of the others, so one row alone is one product, at any n.
    The floors are read back a column at a time.
    """
    if not rows:
        return []
    width = (n * max(map(max, rows))).bit_length()
    shifts = [width * j for j in range(len(rows[0]))]
    *first, last = [sum(map(lshift, row, shifts)) for row in rows]
    sums = [{0}] + [set() for _ in range(n if first else 0)]
    for p in first:
        for k in range(1, n + 1):
            sums[k] |= {s + p for s in sums[k - 1]}
    top = {s + (n - k) * last for k, layer in enumerate(sums) for s in layer}
    mask = (1 << width) - 1
    return [*{*zip(*[[(s >> shift & mask) // q for s in top] for shift in shifts])}]


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
    P = polyhedra.newton_polyhedron(I.ring, I)
    ineqs = polyhedra._compile(P, (0,) * P.dim, 1, strict=False)
    return _derived(I.ring, *_union(I.ring, [ineqs])[0])
