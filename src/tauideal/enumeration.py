"""Lattice-point enumeration of up-closed sets in the exponent semigroup.

The enumeration is graded by the strictly positive functional l(x) = sum_i
<x, n_i> over the cone generators, derived once per ring with what every
bound reads (the Hilbert basis, sigma_dual's ray degrees) in its record
``_Lines``, the module's one cache.  Every up-set it serves is cut out of
sigma_dual cap M by integer facet pairs (a, c), <m, a> >= c, all made by
one core, ``polyhedra._compile``, and ``degree_bound`` proves from those
pairs a degree B above which no minimal generator lies.  Its core
``_degree_bound`` is the one rule for which bound applies: the slice bound
where it covers the pairs, else a bound the caller proved from its own
data (the socle oracle), else the vertex double description's.
The up-set kernel ``minimal_upset_generators`` scans sigma_dual cap M a
line at a time along one extreme ray r of sigma_dual (``_Lines``): the
members on a line form a half-line whose least point comes from one floor
division per pair, and only that point can be a minimal generator, so the
work follows the lines up to degree B, about B^(d-1) of them, and not
their B^d points.  The lines' bottoms come from a semigroup walk over
the Hilbert basis without r, kept in the record, the package's one walk:
``lattice_points_upto`` reads every point off them as a bottom plus a
multiple of r.  ``_union`` is the package's one up-set kernel call: a box
of ray coordinates that one lattice point realizes has that point as its
generator (on a smooth sigma every box, with no solve), and the rest of a
union of up-sets is scanned once, up to the largest bound; it hands back
the generators with their ray coordinates, or these alone.  The entries
``upset_union`` and ``degree_bound`` check their ring, integer pairs and
boxes (``_check_union``) and call the cores ``_union`` and
``_degree_bound``, which trust theirs: the package calls the cores with
the pairs and boxes it derived from checked values.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from contextvars import ContextVar
from functools import cache
from itertools import chain, product, repeat
from operator import add, mul, sub

from .errors import DimensionMismatchError, InputError
from .lattice import IntVec, ToricRing, _points, check_ring, int_scalar, int_vector
from .lattice import int_vectors, minimal_vectors_orthant, pairing, pairing_columns, sequence
from .polyhedra import _vertex_rays


def ell_vector(ring: ToricRing) -> IntVec:
    """The grading functional as a vector: sum of the sigma generators."""
    return tuple(map(sum, zip(*ring.sigma.rays)))


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
    the integer quotient ceil(<x, l>/s).  l, H and D come from ``_Lines``.
    The ring and the pairs are checked as in ``upset_union``.
    """
    (ineqs,), _ = _check_union(ring, [ineqs])
    return _degree_bound(ring, ineqs)


def _degree_bound(ring: ToricRing, ineqs, bound: int | None = None) -> int:
    """``degree_bound`` of pairs the package derived for the ring: the
    slice bound where it covers the pairs, else ``bound``, one the caller
    proved for the up-set, else the Caratheodory bound."""
    sliced = _slice_bound(ring, ineqs)
    if sliced is not None:
        return sliced
    if bound is not None:
        return bound
    vertices, lines = _vertex_rays(ring.sigma_dual, ineqs), _lines(ring)
    # map stops at l's end, so <x, l> skips the last coordinate s of (x, s)
    top = max(-(-sum(map(mul, e, lines.ell)) // e[-1]) for e in vertices)
    return top + lines.D - 1


def _check_union(ring: ToricRing, ineq_sets, boxes=()) -> tuple[tuple, tuple]:
    """The pair sets as tuples of pairs (a, c) and the boxes as tuples, after
    ``check_ring``: InputError for a pair that is not a pair, a normal a
    that is not an int sequence or lies outside sigma (<r, a> < 0 for a ray
    r of sigma_dual, so not up-closed), a c that is not an int (the
    package's one producer of pairs, ``polyhedra._compile``, makes ints),
    or a box entry not an int >= 0; DimensionMismatchError for a normal not
    of length d or a box not of one entry per ray of sigma."""
    check_ring(ring)
    boxes, k = tuple(int_vectors(boxes)), len(ring.sigma.rays)
    if not {k}.issuperset(map(len, boxes)):
        raise DimensionMismatchError(f"a box needs one entry per ray of sigma, {k}")
    if boxes and min(chain.from_iterable(boxes)) < 0:
        raise InputError("a box's entries must be >= 0")
    sets = []
    for ineqs in sequence("the pair sets", ineq_sets):
        pairs = [sequence("a pair", pair) for pair in sequence("a pair set", ineqs)]
        if any(len(pair) != 2 for pair in pairs):
            raise InputError("each pair must be a normal and a right-hand side")
        normals = int_vectors(a for a, _ in pairs)
        columns = pairing_columns(normals, ring.sigma_dual.rays)
        if pairs and min(map(min, columns)) < 0:
            bad = next(a for a, *ra in zip(normals, *columns) if min(ra) < 0)
            raise InputError(f"the pair normal {bad} lies outside sigma")
        sets.append(tuple(zip(normals, int_vector(c for _, c in pairs))))
    return tuple(sets), boxes


def _slice_bound(ring: ToricRing, ineqs) -> int | None:
    """The slice branch's bound k* + H - 1 of ``degree_bound``, or None
    where some pair has <r, a> <= 0 for an extreme ray r of sigma_dual."""
    lines = _lines(ring)
    k_star = 0
    for a, c in ineqs:
        slopes = [(deg, sum(map(mul, r, a))) for deg, r in lines.ray_degrees]
        if min(ra for _, ra in slopes) <= 0:
            return None
        k_star = max(k_star, *[-(-c * deg // ra) for deg, ra in slopes])
    return k_star + lines.H - 1


class _Lines:
    """The ring's grading and the lines of sigma_dual cap M along one ray,
    derived once per ring for the degree bounds and the up-set kernel.

    The Hilbert basis, the irreducible elements of sigma_dual cap M: by
    Caratheodory each element m lies in the cone of d linearly independent
    extreme rays r_i, as sum lambda_i r_i.  If some lambda_i >= 1, m - r_i is
    in the semigroup, so an irreducible m is r_i itself or has every
    lambda_i < 1.  Either way it lies in the zonotope sum_r [0, 1]*r over all
    extreme rays r, whose coordinate box [sum min(0, r_k), sum max(0, r_k)]
    in each coordinate k is all that is scanned.  The irreducible box points
    are the nonzero box points of sigma_dual whose ray coordinates rc are
    minimal among theirs (one ``lattice.minimal_vectors_orthant`` call): a
    reducible m = h + s has an irreducible h in the box with rc(h) <= rc(m),
    and any other such box point a splits m as a + (m - a).

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

    Fixed state: ``ell`` (l, by ``ell_vector``), ``ray_degrees`` (the
    (l(v), v) over the extreme rays v of sigma_dual, sorted: (``lr``, ``r``)
    is the first, ``D`` the sum of the last d l(v)), ``basis`` (the Hilbert
    basis by (l, lex)), ``H`` (its largest l), ``basis_rows`` (the basis'
    ray coordinates, aligned), ``plus``, ``zero`` and
    ``steps``.  Grown lazily and kept for the life of
    the process: ``levels`` (level k maps each bottom of degree k to its
    walk index), ``flat`` and ``degrees`` (the bottoms and their degrees in
    level order, so those of degree <= B are a prefix), ``pos`` (each
    bottom's place in ``flat``) and ``near`` (the neighbours of the bottoms
    that were once a kernel's candidate).
    """

    def __init__(self, ring: ToricRing):
        self.ell = ell = ell_vector(ring)
        self.rays = ring.sigma.rays
        self.ray_degrees = sorted((pairing(v, ell), v) for v in ring.sigma_dual.rays)
        self.lr, self.r = self.ray_degrees[0]
        self.D = sum(deg for deg, _ in self.ray_degrees[-ring.d:])
        rn = [pairing(self.r, n) for n in self.rays]
        self.plus = [(i, x) for i, x in enumerate(rn) if x > 0]
        self.zero = [i for i, x in enumerate(rn) if x == 0]
        box = [range(sum(x for x in c if x < 0), sum(x for x in c if x > 0) + 1)
               for c in zip(*ring.sigma_dual.rays)]
        points = [p for p in product(*box) if any(p)]
        coords = zip(*pairing_columns(points, self.rays))
        by_coords = {rc: p for p, rc in zip(points, coords) if min(rc) >= 0}
        minimal = {by_coords[rc]: rc for rc in minimal_vectors_orthant(by_coords)}
        # (l(h), h, rc(h)) over the Hilbert basis, rc the ray coordinates
        basis = sorted((pairing(h, ell), h, rc) for h, rc in minimal.items())
        self.basis = tuple(h for _, h, _ in basis)
        self.basis_rows = tuple(rc for _, _, rc in basis)
        self.H = basis[-1][0]
        # (walk index j, h, rc(h), l(h)) for h != r
        self.steps = [(j, h, rc, e) for j, (e, h, rc) in enumerate(basis) if h != self.r]
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
    """The ring's ``_Lines``, shared by every bound and kernel call on it."""
    return _Lines(ring)


def lattice_points_upto(ring: ToricRing, bound: int) -> list[IntVec]:
    """Points of sigma_dual cap M with l-degree <= bound, sorted by (l, lex),
    in a fresh list: the b + k*r with k >= 0 over the bottoms b of
    ``_Lines`` of degree at most bound, each point once.  InputError for a
    ring that is not a ToricRing or a bound that is not an int."""
    int_scalar("bound", bound)
    lines = _lines(check_ring(ring))
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
    of the up-sets the integer pair sets cut out: it maps a list of
    bottoms b to the least k >= 0 with b + k*r a member, r the ray of
    ``_Lines``.

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
    sets = [[(a, c, pairing(r, a)) for a, c in ineqs] for ineqs in ineq_sets]
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
    each ``_union``'s scan, keyed on (ring, pair sets, boxes), once.
    Callers still compile their own pairs and prove their own bounds, and a
    hit is what the same pure function returns on equal inputs, so routes
    that meet in a block compare as without it.
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


class _Union:
    """A union's split into the boxes one lattice point realizes and the
    sets left to scan, with its generators once scanned (``_union``).

    ``found`` maps the ray coordinates of each realized box and, once
    scanned, of each generator of the union to that generator, or to None
    where none is made yet: on a smooth sigma (``ToricRing.is_smooth``)
    every box is realized, and its point is made only when a caller asks
    for generators, not for rows; ``output`` keeps what ``generators`` returns."""

    def __init__(self, ring: ToricRing, ineq_sets, boxes):
        rays = ring.sigma.rays
        bounds, others = list(boxes), []
        for ineqs in ineq_sets:
            if all(a in rays for a, _ in ineqs):
                bounds.append(tuple(max([0, *(c for a, c in ineqs if a == n)]) for n in rays))
            else:
                others.append(ineqs)
        self.found = {}
        if bounds:
            tops = minimal_vectors_orthant(bounds)
            if ring.is_smooth():
                self.found = dict.fromkeys(tops)
            else:  # most calls have no boxes, and the candidate solve costs even so
                points = _points(ring, tops)
                coords = zip(*pairing_columns(points, rays))
                self.found = {v: m for v, m, rc in zip(tops, points, coords) if rc == v}
                others += [tuple(zip(rays, v)) for v in tops if v not in self.found]
        self.ring, self.others = ring, others
        # points of distinct minimal boxes divide none of each other
        self.scanned = not others
        self.output = None
        self.tops: dict[int | None, int] = {}

    def top(self, bound: int | None) -> int:
        """The degree the scan runs to for a caller's ``bound``: the
        largest ``_degree_bound`` over the sets to scan, worked out once per
        union and bound."""
        if bound not in self.tops:
            self.tops[bound] = max(_degree_bound(self.ring, ineqs, bound) for ineqs in self.others)
        return self.tops[bound]

    def scan(self, top: int) -> None:
        """Scan the sets up to degree ``top``, once, and merge their
        generators, paired once, with the realized boxes on ray coordinates."""
        if self.scanned:
            return
        ring, found = self.ring, self.found
        gens = minimal_upset_generators(ring, least_offsets(ring, self.others, top), top)
        scanned = zip(zip(*pairing_columns(gens, ring.sigma.rays)), gens)
        if found:
            found.update(scanned)
            self.found = {rc: found[rc] for rc in minimal_vectors_orthant(found)}
        else:
            self.found = dict(scanned)
        self.scanned = True

    def generators(self) -> tuple[list[IntVec], list[IntVec]]:
        """The union's minimal generators and their ray coordinates, aligned;
        the points of realized boxes not made yet come from one ``_points`` call."""
        if self.output is None:
            missing = [v for v, m in self.found.items() if m is None]
            if missing:
                self.found.update(zip(missing, _points(self.ring, missing)))
            self.output = list(self.found.values()), list(self.found)
        return self.output


def upset_union(
    ring: ToricRing, ineq_sets, boxes=(), bound: int | None = None
) -> tuple[tuple[IntVec, ...], int]:
    """(sorted minimal generators, lines scanned) of the union of the up-sets
    the integer pair sets cut out and of the ``boxes``: ``_union`` after
    the ring, the pairs and the boxes are checked (``_check_union``) and a
    bound is checked to be an int."""
    ineq_sets, boxes = _check_union(ring, ineq_sets, boxes)
    if bound is not None:
        int_scalar("bound", bound)
    (gens, _), count = _union(ring, ineq_sets, boxes, bound)
    return tuple(sorted(gens)), count


def _union(
    ring: ToricRing, ineq_sets, boxes=(), bound: int | None = None, rows: bool = False
) -> tuple[tuple[list[IntVec], list[IntVec]] | list[IntVec], int]:
    """``upset_union`` of pairs and boxes the package derived for the ring,
    with the generators' ray coordinates aligned in no set order
    (``_Union.generators``); with ``rows``, the sorted ray coordinates alone.

    A box rc(m) >= v in ray coordinates is given by its bound vector v
    (ints >= 0, one per ray n_j of sigma), or by a pair set whose normals
    are all rays, v_j the largest max(c, 0) on n_j; a box above another
    adds nothing.  A lattice point whose ray coordinates are v divides every
    member, so it is the box's only generator; ``lattice._points`` finds it
    where it exists, and on a smooth sigma it always exists, so there v
    itself is the box's row, and its point is made only for generators.
    The other boxes and sets are scanned together by one
    ``minimal_upset_generators`` call, up to the largest of their degree
    bounds, as a minimal generator of a union is one of some member, and
    merged with the realized points on ray coordinates.  A set's bound is
    its ``_degree_bound`` with ``bound``, a degree bound the caller proved
    for every member of the union.  The count is of the lines up to the
    largest of those bounds, the prefix of bottoms that ``_Lines.grow`` of
    it gives the kernel; 0 when the realized points are the whole answer.

    Inside a ``sharing`` block the split and the scan are made once per
    (ring, pair sets, boxes), and each call takes its own bound, so the
    count a call returns depends only on that call: it is of the lines up
    to its own bound, whether the scan ran for it or for an equal request.
    """
    ineq_sets, boxes = tuple(ineq_sets), tuple(boxes)
    union = shared(("upset", ring, ineq_sets, boxes), lambda: _Union(ring, ineq_sets, boxes))
    count = 0
    if union.others:
        top = union.top(bound)
        union.scan(top)
        count = _lines(ring).grow(top)
    return sorted(union.found) if rows else union.generators(), count
