"""Cones, dual cones, and Gorenstein vectors."""

import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from tauideal import lattice, polyhedra
from tauideal.errors import (
    ConeNotFullDimensionalError,
    ConeNotPointedError,
    DimensionMismatchError,
    InputError,
    NotQGorensteinError,
    TauIdealError,
    ZeroVectorError,
)
from tauideal.ideals import maximal_ideal, power
from tauideal.lattice import (
    cone_from_rays,
    dual_cone,
    dual_extreme_rays,
    gorenstein_vector,
    matrix_rank,
    orthant_ring,
    pairing,
    primitivize,
    toric_ring,
    unit_vectors,
    vec_add,
    vec_neg,
    vec_scale,
    vec_sub,
)
from tauideal.polyhedra import newton_polyhedron
from tauideal.tau import veronese_maximal_ideal, veronese_ring
from rings import TEST_RINGS


def brute_dual_rays(rays, d, box=6):
    """Small-denominator search for the extreme rays of the dual cone."""
    members = [
        v
        for v in product(range(-box, box + 1), repeat=d)
        if any(v) and all(pairing(v, r) >= 0 for r in rays)
    ]
    prims = sorted({primitivize(v) for v in members})
    extreme = []
    for v in prims:
        tight = [r for r in rays if pairing(v, r) == 0]
        if matrix_rank(tight) == d - 1:
            extreme.append(v)
    return sorted(extreme)


def test_dual_of_slanted_cone():
    cone = cone_from_rays([(1, 0), (1, 2)])
    assert sorted(dual_cone(cone).rays) == [(0, 1), (2, -1)]


def test_dual_of_orthant_is_orthant():
    cone = cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert sorted(dual_cone(cone).rays) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_dual_matches_brute_force_on_random_cones():
    rng = Random(20240815)
    found = 0
    while found < 12:
        d = rng.choice([2, 3])
        raw = [
            tuple(rng.randint(-3, 3) for _ in range(d))
            for _ in range(rng.randint(d, d + 2))
        ]
        if any(not any(r) for r in raw):
            continue
        try:
            cone = cone_from_rays(raw)
        except (ConeNotPointedError, ConeNotFullDimensionalError):
            continue
        dual = dual_cone(cone)
        if any(max(abs(x) for x in r) > 6 for r in dual.rays):
            continue  # outside the brute-force search box
        assert sorted(dual.rays) == brute_dual_rays(cone.rays, d)
        found += 1


def test_double_dual_is_identity():
    rng = Random(7)
    for _ in range(20):
        d = rng.choice([2, 3])
        raw = [
            tuple(rng.randint(-3, 3) for _ in range(d))
            for _ in range(rng.randint(d, d + 2))
        ]
        if any(not any(r) for r in raw):
            continue
        try:
            cone = cone_from_rays(raw)
        except (ConeNotPointedError, ConeNotFullDimensionalError):
            continue
        # generators are kept as given, so compare as cones: every original
        # ray lies in the double dual and every double-dual ray is extreme
        # among the originals
        dd = dual_cone(dual_cone(cone))
        for r in cone.rays:
            assert all(pairing(r, h) >= 0 for h in dd.halfspaces)
        for r in dd.rays:
            assert all(pairing(r, h) >= 0 for h in cone.halfspaces)
        assert set(dd.rays) <= set(cone.rays)


def test_not_pointed_cone_rejected():
    with pytest.raises(ConeNotPointedError):
        cone_from_rays([(1, 0), (-1, 0), (0, 1), (0, -1)])


def test_not_full_dimensional_cone_rejected():
    with pytest.raises(ConeNotFullDimensionalError):
        cone_from_rays([(1, 0), (2, 0)])


def test_zero_generator_rejected():
    with pytest.raises(ZeroVectorError):
        cone_from_rays([(0, 0), (1, 0)])


def test_redundant_generators_give_the_ring_of_the_extreme_rays():
    # an inner generator, generators inside 2-faces, repeats and multiples
    cases = [
        ([(1, 0), (1, 1), (0, 1)], [(1, 0), (0, 1)]),
        ([(1, 0), (1, 1), (1, 2), (2, 2)], [(1, 0), (1, 2)]),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2), (1, 1, 0), (0, 2, 2)],
         [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        ([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1), (1, 1, 2), (0, 0, 3)],
         [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
    ]
    for listed, extreme in cases:
        assert toric_ring(listed) == toric_ring(extreme)
        assert hash(toric_ring(listed)) == hash(toric_ring(extreme))
        assert cone_from_rays(listed).rays == tuple(sorted(extreme))
    assert toric_ring([(1, 0), (1, 1), (0, 1)]).is_orthant()


def test_gorenstein_vector_orthant():
    cone = cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    w, r = gorenstein_vector(cone)
    assert w == (Fraction(1), Fraction(1), Fraction(1))
    assert r == 1


def test_gorenstein_vector_veronese_coords():
    cone = cone_from_rays([(1, 0), (1, 2)])
    w, r = gorenstein_vector(cone)
    assert w == (Fraction(1), Fraction(0))
    assert r == 1


def test_gorenstein_vector_index_three():
    # sigma generated by (3,-1) and (0,1): w = (2/3, 1), index 3
    cone = cone_from_rays([(3, -1), (0, 1)])
    w, r = gorenstein_vector(cone)
    assert all(pairing(w, n) == 1 for n in cone.rays)
    assert r == 3


def test_non_q_gorenstein_rejected():
    # four extreme rays: the first three force w = (0, 0, 1), which pairs to 2
    # with the last
    with pytest.raises(NotQGorensteinError):
        toric_ring([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 2)])


def test_toric_ring_carries_consistent_data():
    rng = Random(99)
    built = 0
    while built < 10:
        d = rng.choice([2, 3])
        raw = [
            tuple(rng.randint(-3, 3) for _ in range(d))
            for _ in range(d)
        ]
        if any(not any(r) for r in raw):
            continue
        try:
            ring = toric_ring(raw)
        except (
            ConeNotPointedError,
            ConeNotFullDimensionalError,
            NotQGorensteinError,
        ):
            continue
        for n in ring.sigma.rays:
            assert pairing(ring.w, n) == 1
        assert all(x.denominator == 1 for x in
                   (ring.gorenstein_index * y for y in ring.w))
        for r in ring.sigma_dual.rays:
            assert ring.in_semigroup(r)
        built += 1


def test_orthant_ring_shape():
    ring = orthant_ring(3)
    assert ring.is_orthant()
    assert ring.gorenstein_index == 1
    assert ring.in_semigroup((0, 2, 5))
    assert not ring.in_semigroup((0, -1, 5))


def test_orthant_ring_refuses_non_int_ranks_after_the_int_is_cached():
    # True and 2.0 equal ints, but the cache keys them apart from 1 and 2, so
    # the check inside the cached body sees them on every call
    assert orthant_ring(1).d == 1 and orthant_ring(2).d == 2
    for d in (True, 2.0, 1.0, Fraction(2)):
        with pytest.raises(InputError, match="must be an int"):
            orthant_ring(d)
    assert orthant_ring(2) is orthant_ring(2)


# -- reference: the double description before tight-set bitmasks -------------
# It recomputes each ray's tight set from scratch and decides adjacency by the
# exact rank of the common tight set; kept here only to check the bitmask
# version against it.

def _tight_at(inserted, r):
    return [h for h in inserted if pairing(r, h) == 0]


def dd_prefix(base):
    """The halfspaces a double description started on ``base`` has inserted
    before the caller's: (h, 0) over the facet normals h of base."""
    if base is None:
        return []
    return [h + (0,) for h in base.halfspaces]


def reference_dual_extreme_rays(halfspaces, base=None):
    halfspaces = dd_prefix(base) + [tuple(h) for h in halfspaces]
    if not halfspaces:
        raise ConeNotPointedError("no halfspaces: the whole space is not pointed")
    dim = len(halfspaces[0])
    for h in halfspaces:
        if len(h) != dim:
            raise DimensionMismatchError("halfspaces of mixed lengths")
        if all(x == 0 for x in h):
            raise ZeroVectorError("zero halfspace normal")

    lineality = [
        tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)
    ]
    rays = []
    inserted = []

    for h in halfspaces:
        crossing = [(l, pairing(l, h)) for l in lineality if pairing(l, h) != 0]
        if crossing:
            l0, d0 = crossing[0]
            if d0 < 0:
                l0, d0 = vec_neg(l0), -d0
            new_lin = []
            for l in lineality:
                if l == crossing[0][0]:
                    continue
                v = pairing(l, h)
                proj = vec_sub(vec_scale(d0, l), vec_scale(v, l0))
                new_lin.append(primitivize(proj))
            new_rays = []
            for r in rays:
                v = pairing(r, h)
                proj = vec_sub(vec_scale(d0, r), vec_scale(v, l0))
                if any(x != 0 for x in proj):
                    new_rays.append(primitivize(proj))
            new_rays.append(primitivize(l0))
            lineality = new_lin
            rays = list(dict.fromkeys(new_rays))
        else:
            pos = [r for r in rays if pairing(r, h) > 0]
            neg = [r for r in rays if pairing(r, h) < 0]
            zero = [r for r in rays if pairing(r, h) == 0]
            if neg:
                target = dim - len(lineality) - 2
                new_rays = pos + zero
                for r in pos:
                    rh = pairing(r, h)
                    tight_r = set(_tight_at(inserted, r))
                    for s in neg:
                        common = [g for g in tight_r if pairing(s, g) == 0]
                        if target < 0 or matrix_rank(common) != target:
                            continue
                        sh = pairing(s, h)
                        combo = vec_add(vec_scale(-sh, r), vec_scale(rh, s))
                        new_rays.append(primitivize(combo))
                rays = list(dict.fromkeys(new_rays))
        inserted.append(h)

    if lineality:
        raise ConeNotPointedError("halfspaces admit a line")
    if not rays:
        raise ConeNotFullDimensionalError("cone is the origin only")
    total = rays[0]
    for r in rays[1:]:
        total = vec_add(total, r)
    for h in inserted:
        if pairing(total, h) == 0:
            raise ConeNotFullDimensionalError(
                f"halfspace {h} is an implicit equality"
            )
    extreme = [
        r for r in rays if matrix_rank(_tight_at(inserted, r)) == dim - 1
    ]
    return sorted(set(extreme))


def _outcome(dd, halfspaces):
    try:
        return dd(halfspaces)
    except TauIdealError as exc:
        return type(exc)


def _random_halfspaces(rng):
    """Small integer halfspace sets in dimension 1..5, often degenerate."""
    d = rng.randint(1, 5)
    k = rng.randint(1, 2 * d + 3)
    lo = rng.choice([-2, -1, 0])  # lo = 0 tends to give pointed cones
    hs = []
    while len(hs) < k:
        h = tuple(rng.randint(lo, 2) for _ in range(d))
        if any(h):
            hs.append(h)
    kind = rng.randrange(8)
    if kind == 0:  # an implicit equality
        hs.append(vec_neg(rng.choice(hs)))
    elif kind == 1:  # a repeated halfspace
        hs.insert(rng.randrange(len(hs) + 1), rng.choice(hs))
    elif kind == 2:  # a zero normal
        hs.insert(rng.randrange(len(hs) + 1), (0,) * d)
    elif kind == 3:  # lineality left over: every normal misses one axis
        axis = rng.randrange(d)
        hs = [h[:axis] + (0,) + h[axis + 1:] for h in hs]
    rng.shuffle(hs)
    return hs


def test_dd_matches_rank_reference_on_random_halfspaces():
    rng = Random(4004)
    seen = Counter()
    for _ in range(2400):
        hs = _random_halfspaces(rng)
        got = _outcome(dual_extreme_rays, hs)
        assert got == _outcome(reference_dual_extreme_rays, hs), hs
        seen[got if isinstance(got, type) else len(hs[0])] += 1
    # every outcome is exercised: rays in each dimension and each exception
    for key in (1, 2, 3, 4, 5, ConeNotPointedError, ConeNotFullDimensionalError,
                ZeroVectorError):
        assert seen[key] >= 100, seen


def test_dd_step_keeps_exactly_the_extreme_rays():
    # the invariant of lattice._insert, checked after every insertion: each
    # ray lies in the cone, its mask is its tight set, and it is extreme
    # modulo the lineality space (tight set of rank n - 1, where n is the
    # dimension left after dividing out the lineality space); distinct
    # extreme rays have distinct tight sets
    rng = Random(4005)
    checked = 0
    while checked < 600:
        hs = _random_halfspaces(rng)
        if not all(any(h) for h in hs):
            continue
        dim = len(hs[0])
        lin = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
        rays = {}
        for i, h in enumerate(hs):
            lin, rays = lattice._insert(lin, rays, h, 1 << i)
            inserted = hs[: i + 1]
            assert all(pairing(l, g) == 0 for l in lin for g in inserted)
            n = dim - len(lin)
            for r, mask in rays.items():
                vals = [pairing(r, g) for g in inserted]
                assert min(vals) >= 0
                assert mask == sum(1 << j for j, v in enumerate(vals) if v == 0)
                tight = [g for g, v in zip(inserted, vals) if v == 0]
                assert matrix_rank(tight) == n - 1, (hs, i, r)
            assert len(set(rays.values())) == len(rays)
        checked += 1


SQUARE_SIGMA = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
SQUARE_CONE = toric_ring(SQUARE_SIGMA)
INDEX_5 = toric_ring([(0, 1), (5, -2)])


def _comparison_ideals():
    rng = Random(606)
    cases = []
    for d in range(1, 7):
        ring = orthant_ring(d)
        cases.append((ring, power(maximal_ideal(ring), 3 if d < 6 else 2).gens))
        for _ in range(6):
            cases.append((ring, [
                tuple(rng.randint(0, 3) for _ in range(d))
                for _ in range(rng.randint(1, 4))
            ]))
    for d, r in ((2, 2), (3, 2), (4, 2)):
        ring = veronese_ring(d, r)
        m = veronese_maximal_ideal(ring, d, r)
        cases.append((ring, m.gens))
        cases.append((ring, power(m, 2).gens))
        for _ in range(4):
            picked = rng.sample(m.gens, rng.randint(1, len(m.gens)))
            cases.append((ring, [vec_add(g, rng.choice(m.gens)) for g in picked]))
    for ring in (SQUARE_CONE, INDEX_5):
        rays = ring.sigma_dual.rays
        for _ in range(8):
            gens = []
            for _ in range(rng.randint(1, 4)):
                g = rng.choice(rays)
                for _ in range(rng.randint(0, 2)):
                    g = vec_add(g, rng.choice(rays))
                gens.append(g)
            cases.append((ring, gens))
    return cases


def test_newton_polyhedra_match_rank_reference(monkeypatch):
    cases = _comparison_ideals()
    new = [newton_polyhedron(ring, gens) for ring, gens in cases]
    # the second double description runs inside ``lattice.cone_from_rays``
    for owner in (lattice, polyhedra):
        monkeypatch.setattr(owner, "dual_extreme_rays", reference_dual_extreme_rays)
    for (ring, gens), P in zip(cases, new):
        ref = newton_polyhedron(ring, gens)
        assert (P.vertices, P.rays, P.inequalities) == (
            ref.vertices, ref.rays, ref.inequalities
        ), gens


def test_dd_never_computes_a_rank(monkeypatch):
    def refuse(rows):
        raise AssertionError("double description computed a rank")

    monkeypatch.setattr(lattice, "matrix_rank", refuse)
    for ring in (orthant_ring(4), veronese_ring(3, 2), toric_ring(SQUARE_SIGMA)):
        rays = ring.sigma_dual.rays
        P = newton_polyhedron(ring, [vec_add(a, b) for a in rays for b in rays])
        assert P.inequalities and P.vertices


@st.composite
def _cone_with_known_rays(draw):
    """Integer generators of a full-dimensional pointed cone, with its extreme
    rays known by construction: points (1, x, |x|^2) over distinct x in
    Z^(d-2) lie on a strictly convex paraboloid, so each spans an extreme ray;
    positive sums of two or three of them span none.  A unimodular map then
    hides the shape."""
    d = draw(st.integers(3, 5))
    xs = draw(st.lists(
        st.tuples(*[st.integers(-2, 2)] * (d - 2)),
        min_size=d, max_size=d + 3, unique=True,
    ))
    extreme = [(1,) + x + (sum(c * c for c in x),) for x in xs]
    assume(matrix_rank(extreme) == d)
    inner = [
        tuple(map(sum, zip(*draw(st.lists(st.sampled_from(extreme),
                                          min_size=2, max_size=3, unique=True)))))
        for _ in range(draw(st.integers(0, 3)))
    ]
    # U = permutation of an upper unitriangular integer matrix
    shear = [[1 if i == j else (draw(st.integers(-2, 2)) if j > i else 0)
              for j in range(d)] for i in range(d)]
    U = draw(st.permutations(shear))

    def image(v):
        return tuple(pairing(row, v) for row in U)

    gens = draw(st.permutations([image(v) for v in extreme + inner]))
    return gens, sorted(primitivize(image(v)) for v in extreme)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_cone_with_known_rays())
def test_double_dual_returns_the_extreme_generators(case):
    gens, extreme = case
    cone = cone_from_rays(gens)
    d = cone.dim
    # every facet normal holds on every generator and is tight on d - 1
    # independent ones; likewise every ray of the double dual on the facets
    for h in cone.halfspaces:
        assert all(pairing(g, h) >= 0 for g in gens)
        assert matrix_rank([g for g in gens if pairing(g, h) == 0]) == d - 1
    dd = dual_cone(dual_cone(cone))
    assert sorted(dd.rays) == extreme
    for r in dd.rays:
        assert all(pairing(r, h) >= 0 for h in cone.halfspaces)
        tight = [h for h in cone.halfspaces if pairing(r, h) == 0]
        assert matrix_rank(tight) == d - 1


@st.composite
def _pointed_cone(draw):
    """A pointed full-dimensional cone: simplicial (d independent integer
    rays, d = 2..4) or, from ``_cone_with_known_rays``, with up to d + 3
    extreme rays (d = 3..5)."""
    if draw(st.booleans()):
        return cone_from_rays(draw(_cone_with_known_rays())[0])
    d = draw(st.integers(2, 4))
    rays = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=d, max_size=d))
    assume(matrix_rank(rays) == d)
    return cone_from_rays(rays)


def _message(dd, halfspaces, *start):
    """The rays, or the error's type and message."""
    try:
        return dd(halfspaces, *start)
    except TauIdealError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_pointed_cone(), st.booleans(), st.data())
def test_a_dd_started_from_a_cone_is_the_cold_dd(base, half, data):
    # the double description started from base x R, with s >= 0 inserted
    # first if ``half`` (as the degree bound's does), equals the cold one on
    # the base's halfspaces followed by the same ones: the rays, and each
    # error with its message (an implicit equality names the same halfspace,
    # as the bits come in the same order); each normal is random or, like a
    # Newton generator's (g, -b), a sum g of the base's facet normals with
    # any last entry, which often leaves a pointed cone
    normal = st.tuples(*[st.integers(-3, 3)] * (base.dim + 1)) | st.builds(
        lambda hs, b: tuple(map(sum, zip(*hs))) + (b,),
        st.lists(st.sampled_from(base.halfspaces), min_size=1, max_size=3),
        st.integers(-3, 3),
    )
    halfspaces = data.draw(st.lists(normal, max_size=6))
    if halfspaces and data.draw(st.booleans()):  # an implicit equality
        halfspaces.append(vec_neg(data.draw(st.sampled_from(halfspaces))))
    halfspaces = [(0,) * base.dim + (1,)] * half + halfspaces
    got = _message(dual_extreme_rays, halfspaces, base)
    assert got == _message(dual_extreme_rays, dd_prefix(base) + halfspaces)


SQUARE_BASE = cone_from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
SIMPLICIAL_BASE = cone_from_rays([(0, 1), (5, -2)])


@pytest.mark.parametrize("base", [SQUARE_BASE, SIMPLICIAL_BASE], ids=["square", "simplicial"])
@pytest.mark.parametrize("half, halfspaces, error", [
    (False, [], ConeNotPointedError),  # base x R keeps its line
    (True, [], None),  # base x [0, inf) is pointed: its rays come back
    (False, ["up"], None),  # s >= 0 is the half shape
    (True, ["down"], ConeNotFullDimensionalError),  # s >= 0 and s <= 0: s = 0 is implicit
    (False, ["ray", "up", "down"], ConeNotFullDimensionalError),  # likewise, after a cut
])
def test_a_started_dd_keeps_the_cold_errors(base, half, halfspaces, error):
    d = base.dim
    named = {
        "up": (0,) * d + (1,),
        "down": (0,) * d + (-1,),
        "ray": base.halfspaces[0] + (1,),
    }
    # with ``half``, s >= 0 goes in first, as in the degree bound's DD
    halfspaces = [named["up"]] * half + [named[h] for h in halfspaces]
    got = _message(dual_extreme_rays, halfspaces, base)
    assert got == _message(dual_extreme_rays, dd_prefix(base) + halfspaces)
    if error is None:  # base x [0, inf)
        assert got == sorted([r + (0,) for r in base.rays] + [(0,) * d + (1,)])
    else:
        assert got[0] is error, got


def test_one_dd_per_fact(monkeypatch):
    # a Newton polyhedron is one DD (its facets and vertices, here with no
    # cut, and so its scaled copies too), and a toric ring one DD (sigma's
    # facets are the rays of sigma_dual)
    calls = []

    def counted(halfspaces, base=None):
        calls.append(1)
        return dual_extreme_rays(halfspaces, base)

    monkeypatch.setattr(lattice, "dual_extreme_rays", counted)
    monkeypatch.setattr(polyhedra, "dual_extreme_rays", counted)
    for ring in (veronese_ring(3, 2), SQUARE_CONE, INDEX_5):
        rays = ring.sigma_dual.rays
        calls.clear()
        P = newton_polyhedron(ring, [vec_add(a, b) for a in rays for b in rays])
        assert len(calls) == 1
        assert P.vertices and polyhedra.scale(P, Fraction(1, 2)).vertices
        assert len(calls) == 1
        calls.clear()
        assert toric_ring(ring.sigma.rays) == ring
        assert len(calls) == 1


# -- reference: the two Fraction eliminations before the Bareiss routine -----

def reference_matrix_rank(rows) -> int:
    """Rank of a list of integer/rational row vectors (exact elimination)."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    col = 0
    while rank < len(m) and col < ncols:
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for i in range(rank + 1, len(m)):
            if m[i][col] != 0:
                f = m[i][col] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def reference_solve_unit_pairings(generators):
    gens = [tuple(g) for g in generators]
    d = len(gens[0])
    aug = [[Fraction(x) for x in g] + [Fraction(1)] for g in gens]
    pivots = []
    rank = 0
    for col in range(d):
        piv = next((i for i in range(rank, len(aug)) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        pv = aug[rank][col]
        aug[rank] = [a / pv for a in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(aug)):
        if aug[i][d] != 0:
            raise NotQGorensteinError("pairing system <w, n_i> = 1 is inconsistent")
    if rank < d:
        raise ConeNotFullDimensionalError("generators do not span the lattice")
    w = [Fraction(0)] * d
    for i, col in enumerate(pivots):
        w[col] = aug[i][d]
    return tuple(w)


def _random_matrix(rng):
    """Integer rows in dimension 1..5: random, or affine combinations of a
    few base rows (so <w, n> = 1 stays solvable, with or without full rank)."""
    d = rng.randint(1, 5)
    if rng.random() < 0.5:
        return [
            tuple(rng.randint(-3, 3) for _ in range(d))
            for _ in range(rng.randint(1, d + 2))
        ]
    base = [
        tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, d))
    ]
    rows = list(base)
    for _ in range(rng.randint(0, 3)):
        a, b, c = (rng.choice(base) for _ in range(3))
        rows.append(vec_sub(vec_add(a, b), c))
    rng.shuffle(rows)
    return rows


def _unit_pairings(rows):
    """``gorenstein_vector``'s w, with the rows as a Cone's rays."""
    cone = lattice.Cone(dim=len(rows[0]), rays=tuple(rows), halfspaces=())
    return gorenstein_vector(cone)[0]


def test_bareiss_matches_the_fraction_eliminations():
    rng = Random(7007)
    seen = Counter()
    for _ in range(2400):
        rows = _random_matrix(rng)
        assert matrix_rank(rows) == reference_matrix_rank(rows), rows
        got = _outcome(_unit_pairings, rows)
        if reference_matrix_rank(rows) == len(rows[0]):
            assert got == _outcome(reference_solve_unit_pairings, rows), rows
        else:
            # the reference reports some of these as inconsistent first; no
            # cone of ``cone_from_rays`` has such rays, as its rays span
            assert got is ConeNotFullDimensionalError, rows
        seen[got if isinstance(got, type) else "solved"] += 1
        # rational rows: the rank is that of the rows cleared of denominators
        den = rng.randint(1, 4)
        frac = [tuple(Fraction(x, den + i) for i, x in enumerate(r)) for r in rows]
        assert matrix_rank(frac) == reference_matrix_rank(frac), frac
    for key in ("solved", NotQGorensteinError, ConeNotFullDimensionalError):
        assert seen[key] >= 100, seen


# -- reference: Fraction Gauss-Jordan and the Fraction basis inverse ---------

def reference_rref(rows):
    """Reduced row echelon form over Fraction: its nonzero rows and pivots."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        k = len(pivots)
        piv = next((i for i in range(k, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[k], m[piv] = m[piv], m[k]
        m[k] = [a / m[k][col] for a in m[k]]
        for i in range(len(m)):
            if i != k and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
        pivots.append(col)
    return m[: len(pivots)], pivots


def reference_basis_inverse(vectors):
    """The first d linearly independent vectors, chosen greedily by rank, and
    (A, D) with D the least positive integer making A = D * B^-1 integral."""
    d = len(vectors[0])
    basis = []
    for i, v in enumerate(vectors):
        if reference_matrix_rank([vectors[b] for b in basis] + [v]) > len(basis):
            basis.append(i)
    if len(basis) < d:
        raise ConeNotFullDimensionalError("vectors do not span")
    units = [[int(i == j) for j in range(d)] for i in range(d)]
    rows, _ = reference_rref([list(vectors[b]) + u for b, u in zip(basis, units)])
    inverse = [row[d:] for row in rows]
    den = lcm(*(x.denominator for row in inverse for x in row))
    return tuple(basis), tuple(tuple(int(x * den) for x in row) for row in inverse), den


def test_echelon_rows_are_the_last_pivot_times_the_reduced_form():
    # an inexact // anywhere in the fraction-free Gauss-Jordan would show here
    rng = Random(16016)
    deficient = rational = 0
    for _ in range(1500):
        rows = _random_matrix(rng)
        if rng.random() < 0.3:
            rational += 1
            rows = [tuple(Fraction(x, rng.randint(1, 4)) for x in r) for r in rows]
        got, pivots = lattice._echelon(rows)
        want, want_pivots = reference_rref(rows)
        assert pivots == want_pivots, rows
        deficient += len(pivots) < min(len(rows), len(rows[0]))
        top = got[-1][pivots[-1]] if pivots else 1
        assert got == [[top * x for x in row] for row in want], rows
    assert deficient >= 100 and rational >= 100, (deficient, rational)


def _random_vectors(rng):
    """1..d+3 small integer vectors in dimension 1..5, spanning or not."""
    d = rng.randint(1, 5)
    return tuple(
        tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(rng.randint(1, d + 3))
    )


def test_left_inverse_matches_the_fraction_inverse():
    rng = Random(16017)
    seen = Counter()
    for _ in range(1500):
        vectors = _random_vectors(rng)
        got = _outcome(lattice.left_inverse, vectors)
        want = _outcome(reference_basis_inverse, vectors)
        seen[got if isinstance(got, type) else "spans"] += 1
        if isinstance(want, type):
            assert got is want, vectors
            continue
        inverse, den = got
        # A * V = D * 1 over all k vectors, with D > 0 and gcd(D, A) = 1
        d = len(vectors[0])
        assert [[pairing(row, col) for col in zip(*vectors)] for row in inverse] == [
            [den * (i == j) for j in range(d)] for i in range(d)
        ], vectors
        assert den > 0 and gcd(den, *(x for row in inverse for x in row)) == 1, vectors
        if len(vectors) == d:
            seen["square"] += 1
            assert (inverse, den) == want[1:], vectors
    assert seen["spans"] >= 800 and seen[ConeNotFullDimensionalError] >= 300, seen
    assert seen["square"] >= 100, seen


def test_left_inverse_refuses_vectors_that_do_not_span():
    for vectors in (((1, 0), (2, 0)), ((0, 0, 1), (1, 1, 0), (2, 2, 1)), ((0,),)):
        with pytest.raises(ConeNotFullDimensionalError):
            lattice.left_inverse(vectors)


def test_a_ring_takes_one_elimination(monkeypatch):
    # w, smoothness and the points all read one cached left inverse
    calls = Counter()

    def counted(rows, _real=lattice._echelon):
        calls["echelon"] += 1
        return _real(rows)

    monkeypatch.setattr(lattice, "_echelon", counted)
    for gens in ([(0, 1), (5, -2)], [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
                 unit_vectors(3)):
        lattice.left_inverse.cache_clear()
        calls.clear()
        ring = toric_ring(gens)
        ring.is_smooth()
        points = list(ring.sigma_dual.rays)
        rows = [[pairing(m, n) for n in ring.sigma.rays] for m in points]
        assert lattice._points(ring, rows) == points
        assert calls == {"echelon": 1}, gens


# -- reference: the integer kernels before fused helpers ----------------------
# pairing, primitivize, vec_scale and _insert as they were before pairings
# became sum(map(mul, ...)), primitivize a single gcd call and every a*u - b*v
# one fused pass; kept here only to check the kernels against.

def reference_pairing(m, n):
    """Duality pairing (exact dot product) of two equal-length vectors."""
    if len(m) != len(n):
        raise DimensionMismatchError(f"length {len(m)} vs {len(n)}")
    return sum(a * b for a, b in zip(m, n))


def reference_vec_scale(c, v):
    return tuple(c * x for x in v)


def reference_primitivize(v):
    """Divide an integer vector by the (positive) gcd of its coordinates."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        raise ZeroVectorError("cannot primitivize the zero vector")
    return tuple(x // g for x in v)


def reference_insert(lineality, rays, h, bit):
    lin_vals = [reference_pairing(l, h) for l in lineality]
    k = next((j for j, v in enumerate(lin_vals) if v != 0), None)
    if k is not None:
        l0, d0 = lineality[k], lin_vals[k]
        if d0 < 0:
            l0, d0 = vec_neg(l0), -d0
        new_lin = [
            reference_primitivize(
                vec_sub(reference_vec_scale(d0, l), reference_vec_scale(v, l0))
            )
            for j, (l, v) in enumerate(zip(lineality, lin_vals))
            if j != k
        ]
        new_rays = {}
        for r, mask in rays.items():
            v = reference_pairing(r, h)
            proj = vec_sub(reference_vec_scale(d0, r), reference_vec_scale(v, l0))
            if any(proj):
                new_rays.setdefault(reference_primitivize(proj), mask | bit)
        new_rays.setdefault(reference_primitivize(l0), bit - 1)
        return new_lin, new_rays

    pos, neg = [], []
    new_rays = {}
    for r, mask in rays.items():
        v = reference_pairing(r, h)
        if v > 0:
            pos.append((r, mask, v))
            new_rays[r] = mask
        elif v < 0:
            neg.append((r, mask, v))
        else:
            new_rays[r] = mask | bit
    target = len(h) - len(lineality) - 2
    masks = list(rays.values())
    for r, mr, rh in pos:
        for s, ms, sh in neg:
            common = mr & ms
            if common.bit_count() < target:
                continue
            if sum(1 for m in masks if m & common == common) > 2:
                continue
            combo = vec_add(reference_vec_scale(-sh, r), reference_vec_scale(rh, s))
            new_rays.setdefault(reference_primitivize(combo), common | bit)
    return lineality, new_rays


def _random_vector(rng, d):
    big = rng.choice((1, 1, 2**64 + 3, 3**50))  # past 64 bits as well
    return tuple(big * rng.randint(-4, 4) for _ in range(d))


def test_pairing_primitivize_and_scale_match_the_reference():
    rng = Random(5151)
    seen = Counter()
    for _ in range(3000):
        d = rng.randint(0, 6)
        u, v = _random_vector(rng, d), _random_vector(rng, d)
        assert pairing(u, v) == reference_pairing(u, v)
        c = rng.choice((0, -1, 7, -(2**70)))
        assert vec_scale(c, u) == reference_vec_scale(c, u)
        got = _outcome(primitivize, u)
        assert got == _outcome(reference_primitivize, u), u
        seen[got if isinstance(got, type) else "gcd 1" if got == u else "divided"] += 1
        if got == u:
            assert got is u  # a primitive vector comes back as it is
        w = _random_vector(rng, d + rng.choice((1, -1)) if d else 1)
        for f in (pairing, reference_pairing):
            with pytest.raises(DimensionMismatchError):
                f(u, w)
    assert min(seen.values()) >= 200 and len(seen) == 3, seen


def _scaled_halfspaces(rng):
    """``_random_halfspaces`` without zero normals, at times scaled past 64 bits."""
    hs = [h for h in _random_halfspaces(rng) if any(h)]
    if rng.random() < 0.3:
        hs = [vec_scale(rng.choice((1, 2**70 + 1, -(3**45))), h) for h in hs]
    return hs


def test_insert_matches_the_reference_at_every_step():
    # the lineality list and the ray dict, masks and order included, agree
    # after every insertion of a sequence
    rng = Random(5252)
    steps = Counter()
    for _ in range(1500):
        hs = _scaled_halfspaces(rng)
        if not hs:
            continue
        dim = len(hs[0])
        lin = [tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)]
        got, want = (lin, {}), (lin, {})
        for i, h in enumerate(hs):
            got = lattice._insert(*got, h, 1 << i)
            want = reference_insert(*want, h, 1 << i)
            assert got[0] == want[0], (hs, i)
            assert list(got[1].items()) == list(want[1].items()), (hs, i)
            steps["crossing" if len(got[0]) < len(lin) else "cut"] += 1
            lin = got[0]
    assert steps["crossing"] >= 1000 and steps["cut"] >= 1000, steps


@pytest.mark.parametrize("ring", TEST_RINGS, ids=range(len(TEST_RINGS)))
def test_the_closed_form_first_insert_is_the_insert_step(ring):
    # on sigma x R and sigma_dual x R, the two bases a double description
    # starts from, ``_lifted`` reaches the state ``_insert`` reaches on
    # (v, 1): the same lineality, rays, masks and ray order, for seeded v
    # (the zero vector, small entries of either sign and entries past 2**64)
    rng = Random(8181 + len(ring.sigma.rays))
    for cone in (ring.sigma, ring.sigma_dual):
        inserted, lineality, start = lattice._prism(cone)
        bit = 1 << len(inserted)
        vs = [(0,) * cone.dim]
        vs += [tuple(rng.randint(-9, 9) for _ in range(cone.dim)) for _ in range(30)]
        vs += [tuple(rng.randint(-2**70, 2**70) for _ in range(cone.dim)) for _ in range(5)]
        for v in vs:
            h = v + (1,)
            want = lattice._insert(list(lineality), dict(start), h, bit)
            got = lattice._lifted(start, h, bit)
            assert got[0] == want[0] == [], (cone, v)
            assert list(got[1].items()) == list(want[1].items()), (cone, v)


# each entry point that reads exponent vectors meets them in
# lattice.semigroup_columns, which refuses any entry that is not an int; a
# float was read as is (giving silent answers or a raw TypeError later), and a
# str or None raised TypeError
NON_INTS = [1.5, Fraction(2), "1", None]


@pytest.mark.parametrize("bad", NON_INTS, ids=["float", "Fraction", "str", "None"])
@pytest.mark.parametrize("ring", [orthant_ring(2), veronese_ring(2, 2)], ids=["orthant", "veronese"])
def test_non_int_entries_are_input_errors_at_every_entry_point(ring, bad):
    from tauideal.errors import InputError
    from tauideal.frobenius import tight_closure_member_at_q, tight_integral_closure_at_q
    from tauideal.ideals import MonomialIdeal, minimalize
    from tauideal.tau import tau

    gens = [(1, 0), (1, 2)]
    m = minimalize(ring, gens)
    with pytest.raises(InputError, match="not an int"):
        lattice.semigroup_columns(ring, [(1, 1), (bad, 1)])
    with pytest.raises(InputError, match="not an int"):
        minimalize(ring, [(bad, 1)] + gens)
    with pytest.raises(InputError, match="not an int"):
        newton_polyhedron(ring, gens + [(bad, 1)])
    with pytest.raises(InputError, match="not an int"):
        tau(ring, MonomialIdeal(ring, ((bad, 1), (1, 2))), 1)
    with pytest.raises(InputError, match="not an int"):
        tight_closure_member_at_q(m, m, 1, (bad, 1), qmax=4, cbox=1)
    with pytest.raises(InputError, match="not an int"):
        tight_integral_closure_at_q([m], (1, bad), qmax=4, cbox=1)


@pytest.mark.parametrize("bad", NON_INTS, ids=["float", "Fraction", "str", "None"])
@pytest.mark.parametrize("ring", [orthant_ring(2), veronese_ring(2, 2)], ids=["orthant", "veronese"])
def test_non_int_points_are_input_errors_at_membership_and_socle_entry_points(ring, bad):
    # contains_monomial((1.5, 0)) returned True and in_star_E at (-0.5, 0)
    # returned stabilized; a str or None entry raised TypeError
    from tauideal.errors import InputError
    from tauideal.frobenius import in_star_E, socle_piece_vanishes_at_q
    from tauideal.ideals import minimalize

    a = minimalize(ring, [(1, 0)])
    with pytest.raises(InputError, match="not an int"):
        ring.in_semigroup((bad, 0))
    with pytest.raises(InputError, match="not an int"):
        a.contains_monomial((bad, 0))
    with pytest.raises(InputError, match="not an int"):
        in_star_E(ring, a, 1, (0, bad), qmax=4)
    with pytest.raises(InputError, match="not an int"):
        socle_piece_vanishes_at_q(ring, a, 1, (bad, 0), 4)


@pytest.mark.parametrize("build", [
    lambda d: orthant_ring(d),
    lambda d: veronese_ring(d, 2),
    lambda d: veronese_maximal_ideal(orthant_ring(2), d, 2),
], ids=["orthant_ring", "veronese_ring", "veronese_maximal_ideal"])
def test_a_rank_no_tuple_can_hold_is_an_input_error(build):
    # veronese_ring(10**30, 2) raised OverflowError from (-1,) * (d - 1), and
    # orthant_ring(10**30) began a 10**30 x 10**30 identity; both are refused
    # before anything is built
    from tauideal.errors import InputError

    with pytest.raises(InputError, match="rank"):
        build(10**30)
    with pytest.raises(InputError, match="rank"):
        build(sys.maxsize + 1)
