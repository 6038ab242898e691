"""Lattice-point enumeration of up-closed sets in the exponent semigroup.

The enumeration is graded by the strictly positive functional l(x) = sum_i
<x, n_i> over the cone generators.  The points of sigma_dual cap M come from
one semigroup walk over the Hilbert basis, level by level in l, with the
levels cached per ring.  Every up-set it serves is cut out of sigma_dual cap
M by integer facet pairs (a, c), <m, a> >= c, and ``degree_range`` proves
from those pairs a degree below which nothing is a member and one above
which no minimal generator lies; only the levels between them, the degree
shell, are walked and tested.  The test packs a whole batch of points into
one int and decides each pair on all of them by a few whole-int
operations (``inequality_batch``; ``union_flags`` for a union of sets).
``upset_union`` is the package's one up-set kernel: a box of ray
coordinates that one lattice point realizes has that point as its
generator, and the rest of a union of up-sets is enumerated once, over
the shell from the least lowest degree to the largest bound.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from functools import cache
from itertools import chain, product
from operator import add, mul

from .errors import DimensionMismatchError
from .lattice import IntVec, ToricRing, _points, minimal_vectors_orthant, pairing
from .lattice import pairing_columns, vec_sub
from .polyhedra import _vertex_rays


def ell_vector(ring: ToricRing) -> IntVec:
    """The grading functional as a vector: sum of the sigma generators."""
    return tuple(map(sum, zip(*ring.sigma.rays)))


def _ray_degree_sum(ring: ToricRing) -> int:
    """D: the sum of the d largest l-degrees over the extreme rays of sigma_dual."""
    ell = ell_vector(ring)
    degrees = sorted((pairing(r, ell) for r in ring.sigma_dual.rays), reverse=True)
    return sum(degrees[: ring.d])


@cache
def hilbert_basis(ring: ToricRing) -> tuple[IntVec, ...]:
    """The irreducible elements of sigma_dual cap M, sorted by (l, lex).

    By Caratheodory each element m lies in the cone of d linearly independent
    extreme rays r_i, as sum lambda_i r_i.  If some lambda_i >= 1, m - r_i is
    in the semigroup, so an irreducible m is r_i itself or has every
    lambda_i < 1.  Either way it lies in the zonotope sum_r [0, 1]*r over all
    extreme rays r, whose coordinate box [sum min(0, r_k), sum max(0, r_k)]
    in each coordinate k is all that is scanned.  The irreducible box points
    are the nonzero box points of sigma_dual whose ray coordinates rc are
    minimal among theirs (one ``lattice.minimal_vectors_orthant`` call): a
    reducible m = h + s has an irreducible h in the box with rc(h) <= rc(m),
    and any other such box point a splits m as a + (m - a).  Computed once
    per ring.
    """
    rays = ring.sigma_dual.rays
    box = [
        range(sum(min(0, r[k]) for r in rays), sum(max(0, r[k]) for r in rays) + 1)
        for k in range(ring.d)
    ]
    points = [p for p in product(*box) if any(p)]
    coords = zip(*pairing_columns(points, ring.sigma.rays))
    by_coords = {rc: p for p, rc in zip(points, coords) if min(rc) >= 0}
    return tuple(by_degree(ring, [by_coords[rc] for rc in minimal_vectors_orthant(by_coords)]))


def by_degree(ring: ToricRing, points) -> list[IntVec]:
    """The points sorted by (l, lex), l the grading functional."""
    ell = ell_vector(ring)
    return sorted(points, key=lambda p: (pairing(p, ell), p))


@cache
def _levels(ring: ToricRing) -> list[dict[IntVec, int]]:
    """The degree levels of sigma_dual cap M walked so far.  Level k maps
    each point of l-degree k, in lex order, to the least i such that the
    point is a sum of the Hilbert basis elements h_0 .. h_i (0 for the
    origin).  ``lattice_points_upto`` appends to the list."""
    return [{(0,) * ring.d: 0}]


def lattice_points_upto(ring: ToricRing, bound: int, lowest: int = 0) -> list[IntVec]:
    """Points of sigma_dual cap M with lowest <= l-degree <= bound, sorted by
    (l, lex).

    One walk over the Hilbert basis h_0, h_1, ..., sorted by l, so every
    l(h_j) >= 1.  Level k is made of the p + h_j with p in level
    k - l(h_j) and j at least the index i recorded for p.  Every nonzero m
    of degree k is a sum of basis elements; among such sums take one whose
    largest index j* is least.  Then m - h_j* is a sum of h_0 .. h_j*, so
    its index is at most j* and the walk makes m from it; and every p + h_j
    the walk makes is a sum of h_0 .. h_j.  So level k is exactly the points
    of degree k, and since j runs upwards the index recorded for m is j*
    (induction on k).  On a free semigroup each point is made once; on
    others the dict drops repeats.  The levels below ``lowest`` are walked
    (the levels above build on them) but not returned.  The caller gets a
    fresh list.
    """
    levels = _levels(ring)
    ell = ell_vector(ring)
    steps = [(j, h, pairing(h, ell)) for j, h in enumerate(hilbert_basis(ring))]
    for k in range(len(levels), bound + 1):
        level: dict[IntVec, int] = {}
        for j, h, e in steps:
            if e <= k:
                for p, i in levels[k - e].items():
                    if i <= j:
                        level.setdefault(tuple(map(add, p, h)), j)
        levels.append(dict(sorted(level.items())))
    return [p for level in levels[max(lowest, 0) : bound + 1] for p in level]


def degree_range(ring: ToricRing, ineqs) -> tuple[int, int]:
    """(lowest, bound): every member m of the up-set
    S = {m in sigma_dual cap M : <m, a> >= c for every pair (a, c)} has
    l(m) >= lowest, and every minimal generator of S has l(m) <= bound.

    The normals a lie in sigma, so S is closed under adding semigroup
    elements.  Two arguments, tried in this order; each proves both ends.

    Slice branch, when <r, a> > 0 for every extreme ray r of sigma_dual and
    every pair.  The points of sigma_dual with l = 1 are the convex hull of
    the points r/l(r).  Upper end: a point y of sigma_dual with l(y) = k is
    a convex combination of the points k*r/l(r), and <k*r/l(r), a> >= c once
    k >= c*l(r)/<r, a>.  So with k* the largest ceil(c*l(r)/<r, a>), every
    lattice point of sigma_dual with l >= k* lies in S.  A point y with l(y)
    >= k* + H, H the largest l in the Hilbert basis, is h + y' for some
    Hilbert basis element h, with l(y') >= k*; so y' is in S and y is not
    minimal.  The bound is k* + H - 1.  Lower end: for a nonzero m, m/l(m)
    lies in that hull, so c <= <m, a> <= l(m) * max_r <r, a>/l(r), and l(m)
    >= min_r c*l(r)/<r, a>, an integer at least the least ceil(c*l(r)/<r, a>)
    over r.  The lowest degree is the largest of these over the pairs, and
    0 when none is positive (then the origin may be a member).

    Caratheodory branch, otherwise.  S is the lattice points of the
    polyhedron Q = conv(V) + sigma_dual, V the vertices of
    {x in sigma_dual : <x, a> >= c}.  Upper end: each point of Q is v + sum
    lambda_i r_i with v in conv(V) and at most d extreme rays r_i.  If some
    lambda_i >= 1, m - r_i is a lattice point of Q, so m is not minimal.
    Hence a minimal m has l(m) < max l(V) + D, D the sum of the d largest
    l(r), and l(m) <= ceil(max l(V)) + D - 1 as l(m) is an integer.  Lower
    end: l >= 0 on sigma_dual, so l(m) >= min l(V) on Q, and l(m) >=
    ceil(min l(V)).  The vertices are x/s for the integer rays (x, s) of the
    homogenized region (``polyhedra._vertex_rays``, one double description
    for both ends), so ceil(l(V)) is the integer quotient ceil(<x, l>/s).
    """
    ell = ell_vector(ring)
    rays = [(r, pairing(r, ell)) for r in ring.sigma_dual.rays]
    levels = []  # ceil(c*l(r)/<r, a>) per pair and ray
    for a, c in ineqs:
        slopes = [(deg, sum(map(mul, r, a))) for r, deg in rays]
        if min(ra for _, ra in slopes) <= 0:
            break
        levels.append([-(-c * deg // ra) for deg, ra in slopes])
    else:
        k_star = max(map(max, levels), default=0)
        lowest = max([0, *map(min, levels)])
        return lowest, k_star + pairing(hilbert_basis(ring)[-1], ell) - 1
    # map stops at ell's end, so <x, l> skips the last coordinate s of (x, s)
    quotients = [
        -(-sum(map(mul, e, ell)) // e[-1]) for e in _vertex_rays(ring.sigma_dual, ineqs)
    ]
    return min(quotients), max(quotients) + _ray_degree_sum(ring) - 1


def inequality_batch(ineqs):
    """Membership batch for the lattice points m with <m, a> >= c for every
    integer pair (a, c), as built by ``polyhedra.lattice_inequalities``; a
    rational c, as in ``NewtonPolyhedron.inequalities``, acts as ceil(c).

    The batch takes a list of points and tests them all at once, on packed
    integers (``union_flags``, which also tests several batches on one
    packing); a point of the wrong length raises DimensionMismatchError.

    Layout: the points, flattened in order, are the fields of one int U,
    field k = point k // d, coordinate k % d, each W bits wide and holding
    x - lo >= 0, lo the least coordinate of the points (a two's-complement
    packing, XOR-flipped to offset binary, less lo in every field).  Then
    U >> W*i holds coordinate i of point j in field j*d, so for a pair
    (a, c) the int T = sum_i a_i (U >> W*i) + (2^(W-1) - c') * ones, with
    c' = c - lo * sum(a) and ones the int with a 1 in every field, holds
    2^(W-1) + <m - lo, a> - c' = 2^(W-1) + <m, a> - c in field j*d, and
    some such sum over other fields elsewhere.

    Width rule: W exceeds by a guard bit the bit lengths of |x| for every
    coordinate x (so x fits a W-bit two's complement) and of the largest
    sum |a_i| * span + |c'|, span the largest coordinate less lo, rounded up
    to whole bytes (to 1, 2, 4 or 8 bytes, which an array packs; above 8,
    ``int.to_bytes`` does).  Every field of T then lies in [1, 2^W), so no
    field carries or borrows into the next, and its top (guard) bit is set
    iff its sum is >= 0: in field j*d, iff <m, a> >= c.  A batch's flags
    are the AND of its pairs' T and of the guard bits, and a point's flag is
    the top byte of its field j*d.  All of it is exact int arithmetic.
    """
    return _Batch(ineqs)


class _Batch:
    """The pairs of one ``inequality_batch`` for ``union_flags``: (a, sum(a),
    sum |a_i|, ceil(c)) per pair, and the lengths of the normals."""

    def __init__(self, ineqs):
        self.pairs = [(a, sum(a), sum(map(abs, a)), -(-c // 1)) for a, c in ineqs]
        self.lengths = {len(a) for a, _ in ineqs}

    def __call__(self, points):
        return union_flags([self], points)


# signed array typecodes by item size in bytes; _ROUNDED takes a field width
# of up to 8 bytes to the least of those sizes that holds it
_TYPECODES = {array(code).itemsize: code for code in "bhiq"}
_ROUNDED = {k: min(w for w in _TYPECODES if w >= k) for k in range(1, max(_TYPECODES) + 1)}


def _pack(values: list[int], width: int) -> int:
    """The int whose little-endian fields of ``width`` bytes hold the two's
    complements of ``values``, lowest field first."""
    if width in _TYPECODES:
        data = array(_TYPECODES[width], values)
        if sys.byteorder == "big":
            data.byteswap()
        return int.from_bytes(data.tobytes(), "little")
    return int.from_bytes(
        b"".join(x.to_bytes(width, "little", signed=True) for x in values), "little"
    )


def union_flags(batches, points) -> list[bool]:
    """For each point, whether some batch of ``inequality_batch`` admits it:
    the OR of the batches' flags, all on one packing of the points, whose
    width meets the width rule for every batch's pairs (layout and rule:
    ``inequality_batch``)."""
    lengths = {*map(len, points)}
    for b in batches:
        lengths |= b.lengths
    if len(lengths) > 1:
        raise DimensionMismatchError(f"points and normals of lengths {sorted(lengths)}")
    if not points:
        return []
    d = len(points[0])
    flat = [*chain.from_iterable(points)]
    lo, hi = min(flat), max(flat)
    span = hi - lo
    shifted = [[(a, c - lo * total, size) for a, total, size, c in b.pairs] for b in batches]
    top = max([hi, -lo, *[size * span + abs(c) for pairs in shifted for _, c, size in pairs]])
    width = (top.bit_length() + 8) // 8
    width = _ROUNDED.get(width, width)
    step = 8 * width
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * len(flat), "little")
    half = ones << (step - 1)
    biased = (_pack(flat, width) ^ half) - half - lo * ones
    columns = [biased >> (step * i) for i in range(d)]
    found = 0
    for pairs in shifted:
        inside = half
        for a, c, _ in pairs:
            total = half - c * ones
            for x, column in zip(a, columns):
                if x:
                    total += x * column
            inside &= total
        found |= inside
    return [*map(bool, found.to_bytes(len(flat) * width, "little")[width - 1 :: d * width])]


def minimal_upset_generators(
    ring: ToricRing, member_batch, degree_bound: int, lowest: int = 0
) -> list[IntVec]:
    """Minimal generators of an up-closed subset of sigma_dual cap M, given a
    bound on their l-degree (``degree_range`` proves one) and a degree below
    which there are no members, in (l, lex) order.

    ``member_batch`` maps a list of lattice points to membership booleans;
    it is given the points of degree lowest .. degree_bound.  The set must
    be closed under adding semigroup elements.  A member m is not minimal
    iff m = y + s with y a member and s != 0 in the semigroup; then s = h +
    s' for a Hilbert basis element h, and m - h = y + s' is a member of
    lower degree, so at least ``lowest``.  So one pass over the points
    suffices, and a member of degree ``lowest`` itself is minimal untested.
    """
    pts = lattice_points_upto(ring, degree_bound, lowest)
    members = {m for m, is_member in zip(pts, member_batch(pts)) if is_member}
    basis = hilbert_basis(ring)
    first = len(_levels(ring)[lowest]) if 0 <= lowest <= degree_bound else 0
    return [m for m in pts[:first] if m in members] + [
        m for m in pts[first:]
        if m in members and not any(vec_sub(m, h) in members for h in basis)
    ]


_shared: ContextVar[dict | None] = ContextVar("_shared", default=None)


@contextmanager
def sharing():
    """A scope in which ``shared`` computes P(a), keyed on (ring, a.gens), and
    each ``upset_union``, keyed on (ring, pair sets, boxes), once.  Callers still
    compile their own pairs, and a hit is what the same pure function returns
    on equal inputs, so routes that meet in a block compare as without it.
    Nothing outlives a block, even one that raised.  A scope, not an
    argument, keeps the signatures that stand-ins for ``tau`` take."""
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def shared(key, compute):
    """compute(), once per key inside a ``sharing`` block, always outside."""
    memo = _shared.get()
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def upset_union(
    ring: ToricRing, ineq_sets, boxes=()
) -> tuple[tuple[IntVec, ...], int]:
    """(sorted minimal generators, points tested) of the union of the up-sets
    the integer pair sets cut out and of the ``boxes``.

    A box rc(m) >= v in ray coordinates is given by its bound vector v
    (ints >= 0, one per ray n_j of sigma), or by a pair set whose normals
    are all rays, v_j the largest max(c, 0) on n_j; a box above another
    adds nothing.  A lattice point whose ray coordinates are v divides every
    member, so it is the box's only generator; ``lattice._points`` finds it
    where it exists (always on a smooth cone).  The other boxes and sets are
    enumerated together over the degrees from the least of their lowest
    degrees to the largest of their bounds, as a minimal generator of a
    union is one of some member, and merged with the realized points on ray
    coordinates.  The count is of the points tested in that shell.
    """
    ineq_sets = tuple(map(tuple, ineq_sets))
    boxes = tuple(boxes)

    def compute():
        rays = ring.sigma.rays
        bounds, others = list(boxes), []
        for ineqs in ineq_sets:
            if all(a in rays for a, _ in ineqs):
                bounds.append(tuple(max([0, *(c for a, c in ineqs if a == n)]) for n in rays))
            else:
                others.append(ineqs)
        realized = {}
        if bounds:  # most calls have none, and the candidate solve costs even so
            tops = minimal_vectors_orthant(bounds)
            points = _points(ring, tops)
            coords = zip(*pairing_columns(points, rays))
            realized = {v: m for v, m, rc in zip(tops, points, coords) if rc == v}
            others += [tuple(zip(rays, v)) for v in tops if v not in realized]
        if not others:  # points of distinct minimal boxes divide none of each other
            return tuple(sorted(realized.values())), 0
        batches = [inequality_batch(ineqs) for ineqs in others]
        tested = []

        def member_batch(points):
            tested.append(len(points))
            return union_flags(batches, points)

        ranges = [degree_range(ring, ineqs) for ineqs in others]
        lowest = min(low for low, _ in ranges)
        bound = max(top for _, top in ranges)
        gens = minimal_upset_generators(ring, member_batch, bound, lowest)
        if realized:
            realized.update(zip(zip(*pairing_columns(gens, rays)), gens))
            gens = [realized[rc] for rc in minimal_vectors_orthant(realized)]
        return tuple(sorted(gens)), sum(tested)

    return shared(("upset", ring, ineq_sets, boxes), compute)
