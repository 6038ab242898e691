"""Lattice-point enumeration of up-closed sets in the exponent semigroup.

The enumeration is graded by the strictly positive functional l(x) = sum_i
<x, n_i> over the cone generators.  Every up-set it serves is cut out of
sigma_dual cap M by integer facet pairs (a, c), <m, a> >= c, and
``degree_bound`` proves from those pairs a degree B above which no minimal
generator lies.  The up-set kernel ``minimal_upset_generators`` scans
sigma_dual cap M a line at a time along one extreme ray r of sigma_dual
(``_Lines``): the members on a line form a half-line whose least point
comes from one floor division per pair, and only that point can be a
minimal generator, so the work follows the lines up to degree B, about
B^(d-1) of them, and not their B^d points.  The lines' bottoms come from a
semigroup walk over the Hilbert basis without r, cached per ring, the
package's one walk: ``lattice_points_upto`` reads every point off them as
a bottom plus a multiple of r.  ``upset_union`` is the package's one up-set
kernel call: a box of ray coordinates that one lattice point realizes has
that point as its generator, and the rest of a union of up-sets is scanned
once, up to the largest bound.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from functools import cache
from itertools import product, repeat
from operator import add, mul, sub

from .lattice import IntVec, ToricRing, _points, minimal_vectors_orthant, pairing
from .lattice import pairing_columns
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


def degree_bound(ring: ToricRing, ineqs) -> int:
    """A degree above which no minimal generator of the up-set
    S = {m in sigma_dual cap M : <m, a> >= c for every pair (a, c)} lies.

    The normals a lie in sigma, so S is closed under adding semigroup
    elements.  Two arguments, tried in this order.

    Slice branch, when <r, a> > 0 for every extreme ray r of sigma_dual and
    every pair.  The points of sigma_dual with l = 1 are the convex hull of
    the points r/l(r), so a point y of sigma_dual with l(y) = k is a convex
    combination of the points k*r/l(r), and <k*r/l(r), a> >= c once
    k >= c*l(r)/<r, a>.  So with k* the largest of 0 and the
    ceil(c*l(r)/<r, a>), every lattice point of sigma_dual with l >= k*
    lies in S.  A point y with l(y) >= k* + H, H the largest l in the
    Hilbert basis, is h + y' for some Hilbert basis element h, with
    l(y') >= k*; so y' is in S and y is not minimal.  The bound is
    k* + H - 1.

    Caratheodory branch, otherwise.  S is the lattice points of the
    polyhedron Q = conv(V) + sigma_dual, V the vertices of
    {x in sigma_dual : <x, a> >= c}.  Each point of Q is v + sum
    lambda_i r_i with v in conv(V) and at most d extreme rays r_i.  If some
    lambda_i >= 1, m - r_i is a lattice point of Q, so m is not minimal.
    Hence a minimal m has l(m) < max l(V) + D, D the sum of the d largest
    l(r), and l(m) <= ceil(max l(V)) + D - 1 as l(m) is an integer.  The
    vertices are x/s for the integer rays (x, s) of the homogenized region
    (``polyhedra._vertex_rays``, one double description), so ceil(l(V)) is
    the integer quotient ceil(<x, l>/s).
    """
    ell = ell_vector(ring)
    rays = [(r, pairing(r, ell)) for r in ring.sigma_dual.rays]
    k_star = 0
    for a, c in ineqs:
        slopes = [(deg, sum(map(mul, r, a))) for r, deg in rays]
        if min(ra for _, ra in slopes) <= 0:
            break
        k_star = max(k_star, *[-(-c * deg // ra) for deg, ra in slopes])
    else:
        return k_star + pairing(hilbert_basis(ring)[-1], ell) - 1
    # map stops at ell's end, so <x, l> skips the last coordinate s of (x, s)
    top = max(-(-sum(map(mul, e, ell)) // e[-1]) for e in _vertex_rays(ring.sigma_dual, ineqs))
    return top + _ray_degree_sum(ring) - 1


class _Lines:
    """The lines of sigma_dual cap M along one ray, for the up-set kernel.

    r is the (l, lex)-least extreme ray of sigma_dual; it is primitive, so a
    Hilbert basis element.  Every lattice point p of sigma_dual is b + k*r
    for exactly one k >= 0 and one *bottom* b, a point of sigma_dual cap M
    with b - r outside sigma_dual: p - j*r lies in sigma_dual iff
    j*<r, n> <= <p, n> on every ray n of sigma, so k = min floor(<p, n>/<r, n>)
    over the rays n in ``plus``, those with <r, n> > 0 (the floor rule).

    The bottoms are walked over the Hilbert basis h_0, h_1, ..., sorted by
    l, so every l(h_j) >= 1, with r left out.  Level k is made of the
    s + h_j with s in level k - l(h_j), j at least the index i recorded for
    s, and s + h_j a bottom (some <s + h_j, n> < <r, n>).  A decomposition
    of a nonzero bottom b into basis elements uses no r (else b - r would
    lie in sigma_dual), and for any element h of it s = b - h is a bottom
    (in sigma_dual, and if s - r were, so would be b - r = (s - r) + h).
    Among the decompositions of b take one whose largest index j* is least.
    Then s = b - h_j* is a bottom and a sum of h_0 .. h_j*, so its index is
    at most j* and the walk makes b from it; and every s + h_j the walk
    makes is a sum of h_0 .. h_j.  So level k is exactly the bottoms of
    degree k, and since j runs upwards the index recorded for b is j*
    (induction on k).  A dict drops repeats.  There are about B^(d-1)
    bottoms of degree up to B, against B^d points.

    State, grown lazily and kept for the life of the process: ``levels``
    (level k maps each bottom of degree k to its walk index), ``flat`` and
    ``degrees`` (the bottoms and their degrees in level order, so those of
    degree <= B are a prefix), ``pos`` (each bottom's place in ``flat``) and
    ``near`` (the neighbours of the bottoms that were once a kernel's
    candidate).
    """

    def __init__(self, ring: ToricRing):
        ell = ell_vector(ring)
        self.rays = ring.sigma.rays
        self.r = r = min(ring.sigma_dual.rays, key=lambda v: (pairing(v, ell), v))
        self.lr = pairing(r, ell)
        self.plus = [(i, pairing(r, n)) for i, n in enumerate(self.rays) if pairing(r, n) > 0]
        self.zero = [i for i, n in enumerate(self.rays) if pairing(r, n) == 0]
        basis = hilbert_basis(ring)
        coords = zip(*pairing_columns(basis, self.rays))
        # (walk index j, h, rc(h), l(h)) for h != r, rc the ray coordinates
        self.steps = [
            (j, h, rc, pairing(h, ell))
            for j, (h, rc) in enumerate(zip(basis, coords)) if h != r
        ]
        origin = (0,) * ring.d
        self.levels = [{origin: 0}]
        self.flat = [origin]
        self.degrees = [0]
        self.pos = {origin: 0}
        self.near: dict[IntVec, list] = {}

    def grow(self, bound: int) -> int:
        """Walk the bottoms up to degree ``bound``; return how many have degree <= bound."""
        levels, flat, pos = self.levels, self.flat, self.pos
        tests = [(self.rays[i], rn) for i, rn in self.plus]
        for k in range(len(levels), bound + 1):
            level: dict[IntVec, int] = {}
            for j, h, _, e in self.steps:
                if e <= k:
                    for s, i in levels[k - e].items():
                        if i <= j:
                            b = tuple(map(add, s, h))
                            for n, rn in tests:
                                if sum(map(mul, b, n)) < rn:
                                    level.setdefault(b, j)
                                    break
            levels.append(level)
            for b in level:
                pos[b] = len(flat)
                flat.append(b)
            self.degrees += [k] * len(level)
        return bisect_right(self.degrees, bound)

    def neighbours(self, b: IntVec) -> list:
        """(b', delta, l(h)) per Hilbert basis element h != r with
        b - h + k*r in sigma_dual for some k: then b - h + k*r is in
        sigma_dual iff k + delta >= 0, and it is b' + (k + delta)*r with b'
        a bottom.  With x = rc(b) - rc(h), the rays n outside ``plus`` need
        x_n >= 0 for every k, and on the rest the floor rule gives the
        offset k + min floor(x_n/<r, n>), so delta is that min and b' =
        b - h - delta*r."""
        near = self.near.get(b)
        if near is None:
            rc = [sum(map(mul, b, n)) for n in self.rays]
            near = self.near[b] = []
            for _, h, rch, e in self.steps:
                x = [*map(sub, rc, rch)]
                if min(x) < 0 and min([x[i] for i in self.zero], default=0) < 0:
                    continue
                delta = min([x[i] // rn for i, rn in self.plus])
                step = map(add, h, map(mul, self.r, repeat(delta))) if delta else h
                near.append((tuple(map(sub, b, step)), delta, e))
        return near


@cache
def _lines(ring: ToricRing) -> _Lines:
    """The ring's ``_Lines``, shared by every kernel call on it."""
    return _Lines(ring)


def lattice_points_upto(ring: ToricRing, bound: int) -> list[IntVec]:
    """Points of sigma_dual cap M with l-degree <= bound, sorted by (l, lex),
    in a fresh list: the b + k*r with k >= 0 over the bottoms b of
    ``_Lines`` of degree at most bound, each point once."""
    lines = _lines(ring)
    n = lines.grow(bound)
    r, lr = lines.r, lines.lr
    found = []
    for b, e in zip(lines.flat[:n], lines.degrees):
        for k in range((bound - e) // lr + 1):
            found.append((e + k * lr, tuple([x + k * y for x, y in zip(b, r)])))
    found.sort()
    return [m for _, m in found]


def least_offsets(ring: ToricRing, ineq_sets, bound: int):
    """The per-line callback of ``minimal_upset_generators`` for the union
    of the up-sets the integer pair sets cut out (a rational c acts as
    ceil(c)): it maps a list of bottoms b to the least k >= 0 with b + k*r
    a member, r the ray of ``_Lines``.

    The normals a lie in sigma, so <r, a> >= 0.  For one set, b + k*r is a
    member iff <b, a> + k*<r, a> >= c for every pair: for <r, a> > 0 that
    is k >= ceil((c - <b, a>)/<r, a>), and for <r, a> = 0 it holds for no
    k or for every k.  So the least k is the largest of those ceilings and
    0, and a line that a pair with <r, a> = 0 fails holds no member; it
    gets bound + 1, whose point lies above every degree the kernel reads,
    as l(r) >= 1.  A union's least k is the least over its sets.  The
    pairings come a pair normal at a time (``pairing_columns``), and each
    pair is one list of floor divisions.
    """
    r = _lines(ring).r
    far = bound + 1
    sets = [[(a, -(-c // 1), pairing(r, a)) for a, c in ineqs] for ineqs in ineq_sets]
    normals = list({a: None for ineqs in ineq_sets for a, _ in ineqs})

    def offsets(bottoms):
        columns = dict(zip(normals, pairing_columns(bottoms, normals)))
        zeros = [0] * len(bottoms)
        least = []
        for pairs in sets:
            lists = [
                # ceil((c - x)/ra) = (c + ra - 1 - x) // ra, by maps of int methods
                map(ra.__rfloordiv__, map((c + ra - 1).__sub__, columns[a])) if ra
                else [0 if x >= c else far for x in columns[a]]
                for a, c, ra in pairs
            ]
            least.append(list(map(max, zeros, *lists)) if lists else zeros)
        return least[0] if len(least) == 1 else list(map(min, *least))

    return offsets


def minimal_upset_generators(ring: ToricRing, line_offsets, bound: int) -> list[IntVec]:
    """Minimal generators of an up-closed subset S of sigma_dual cap M, given
    a bound on their l-degree (``degree_bound`` proves one), in (l, lex)
    order.

    S is scanned a line at a time along the ray r of ``_Lines``.
    ``line_offsets`` maps a list of bottoms b to the least k >= 0 with
    b + k*r in S, exact wherever b + k*r has degree at most the bound (any
    larger value otherwise; ``least_offsets`` builds it from pair sets).
    It is given the bottoms of degree 0 .. bound, as the bottom of a
    generator lies below it.  S is closed under adding semigroup elements,
    so the members on a line are the b + j*r with j >= k, and only the
    least, m = b + k*r, can be minimal.  A member of degree at most the
    bound lies on a line whose least member has an exact offset and no
    higher degree, so the least of those degrees, ``lowest``, is the least
    degree of a member up to the bound.  m is not minimal iff m = y + s
    with y in S and s != 0 in the semigroup; then s = h + s' for a Hilbert
    basis element h, and m - h = y + s' is in S, of degree at least
    ``lowest``.  h = r is ruled out by the choice of k, so m is minimal iff
    no m - h with h != r and l(m) - l(h) >= lowest is a member.  For each
    such h with m - h in sigma_dual, m - h = b' + j*r on the line of a
    bottom b' of degree below l(m) (``_Lines.neighbours``), and it is a
    member iff the least offset of b' is at most j.  A member of degree
    ``lowest`` is minimal untested.
    """
    lines = _lines(ring)
    n = lines.grow(bound)
    offsets = line_offsets(lines.flat[:n])
    flat, pos, lr, r = lines.flat, lines.pos, lines.lr, lines.r
    heads = [
        (top, i) for i, k, e in zip(range(n), offsets, lines.degrees)
        if (top := e + k * lr) <= bound
    ]
    lowest = min(heads)[0] if heads else 0
    found = []
    for e, i in heads:
        k = offsets[i]
        b = flat[i]
        for near, delta, eh in lines.neighbours(b) if e > lowest else ():
            if k + delta >= 0 and e - eh >= lowest and offsets[pos[near]] <= k + delta:
                break
        else:
            found.append((e, tuple([x + k * y for x, y in zip(b, r)])))
    found.sort()
    return [m for _, m in found]


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
    """(sorted minimal generators, lines scanned) of the union of the up-sets
    the integer pair sets cut out and of the ``boxes``.

    A box rc(m) >= v in ray coordinates is given by its bound vector v
    (ints >= 0, one per ray n_j of sigma), or by a pair set whose normals
    are all rays, v_j the largest max(c, 0) on n_j; a box above another
    adds nothing.  A lattice point whose ray coordinates are v divides every
    member, so it is the box's only generator; ``lattice._points`` finds it
    where it exists (always on a smooth cone).  The other boxes and sets are
    scanned together by one ``minimal_upset_generators`` call, up to the
    largest of their bounds, as a minimal generator of a union is one of
    some member, and merged with the realized points on ray coordinates.
    The count is of the lines that call scanned, the prefix of bottoms that
    ``_Lines.grow`` of that bound gives the kernel.
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
        bound = max(degree_bound(ring, ineqs) for ineqs in others)
        gens = minimal_upset_generators(ring, least_offsets(ring, others, bound), bound)
        if realized:
            realized.update(zip(zip(*pairing_columns(gens, rays)), gens))
            gens = [realized[rc] for rc in minimal_vectors_orthant(realized)]
        return tuple(sorted(gens)), _lines(ring).grow(bound)

    return shared(("upset", ring, ineq_sets, boxes), compute)
