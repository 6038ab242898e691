"""Newton polyhedra: construction, scaling, membership."""

from fractions import Fraction
from random import Random

import pytest

from tauideal.enumeration import inequality_batch, lattice_points_upto
from tauideal.errors import InputError
from tauideal.ideals import minimalize, multiply, power
from tauideal.lattice import orthant_ring, pairing, toric_ring, vec_add
from tauideal.polyhedra import lattice_inequalities, newton_polyhedron, scale
from tauideal.tau import veronese_ring


def _facets(P):
    return sorted((tuple(a), b) for a, b in P.inequalities)


def test_cusp_polyhedron():
    ring = orthant_ring(2)
    P = newton_polyhedron(ring, [(2, 0), (0, 3)])
    assert sorted(P.vertices) == [
        (Fraction(0), Fraction(3)),
        (Fraction(2), Fraction(0)),
    ]
    assert sorted(P.rays) == [(0, 1), (1, 0)]
    assert _facets(P) == [((0, 1), 0), ((1, 0), 0), ((3, 2), 6)]


def test_maximal_ideal_polyhedron():
    ring = orthant_ring(2)
    P = newton_polyhedron(ring, [(1, 0), (0, 1)])
    assert _facets(P) == [((0, 1), 0), ((1, 0), 0), ((1, 1), 1)]


def test_single_variable():
    ring = orthant_ring(1)
    P = newton_polyhedron(ring, [(1,)])
    assert P.vertices == ((Fraction(1),),)
    assert _facets(P) == [((1,), 1)]


def test_scale_five_sixths():
    ring = orthant_ring(2)
    P = scale(newton_polyhedron(ring, [(2, 0), (0, 3)]), Fraction(5, 6))
    assert _facets(P) == [
        ((0, 1), Fraction(0)),
        ((1, 0), Fraction(0)),
        ((3, 2), Fraction(5)),
    ]


def test_scale_zero_gives_recession_cone():
    ring = orthant_ring(2)
    P = scale(newton_polyhedron(ring, [(2, 0), (0, 3)]), 0)
    assert _facets(P) == [((0, 1), Fraction(0)), ((1, 0), Fraction(0))]
    assert P.vertices == ((Fraction(0), Fraction(0)),)


def test_negative_scale_rejected():
    ring = orthant_ring(2)
    P = newton_polyhedron(ring, [(1, 1)])
    with pytest.raises(InputError):
        scale(P, Fraction(-1, 2))


def test_membership_examples():
    ring = orthant_ring(2)
    P = newton_polyhedron(ring, [(2, 0), (0, 3)])
    assert not P.contains((1, 1), strict=True)
    assert P.contains((2, 1), strict=True)
    assert P.contains((2, 0), strict=False)
    assert not P.contains((2, 0), strict=True)


def test_vertices_satisfy_all_facets_nonstrictly():
    rng = Random(11)
    for _ in range(20):
        d = rng.choice([2, 3])
        ring = orthant_ring(d)
        gens = {tuple(rng.randint(0, 6) for _ in range(d))
                for _ in range(rng.randint(1, 5))}
        P = newton_polyhedron(ring, sorted(gens))
        for v in P.vertices:
            assert P.contains(v, strict=False)
            assert not P.contains(v, strict=True)
        for g in gens:
            assert P.contains(g, strict=False)


def test_brute_force_hull_oracle():
    """Every facet is reproducible by exhaustive search over vertex/ray pairs."""
    rng = Random(13)
    for _ in range(10):
        ring = orthant_ring(2)
        gens = sorted({tuple(rng.randint(0, 6) for _ in range(2))
                       for _ in range(rng.randint(1, 4))})
        P = newton_polyhedron(ring, gens)
        # an exponent point is in P iff it's >= a convex combination of gens;
        # check agreement with rational membership on a grid
        lambdas = [Fraction(n, 8) for n in range(9)]
        for x in range(8):
            for y in range(8):
                brute = any(
                    x >= l * g1[0] + (1 - l) * g2[0]
                    and y >= l * g1[1] + (1 - l) * g2[1]
                    for g1 in gens
                    for g2 in gens
                    for l in lambdas
                )
                if brute:
                    assert P.contains((x, y), strict=False)


def test_scaling_consistency():
    rng = Random(17)
    ring = orthant_ring(2)
    gens = [(3, 0), (1, 1), (0, 4)]
    P = newton_polyhedron(ring, gens)
    for _ in range(40):
        t = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        p = (Fraction(rng.randint(0, 12), 2), Fraction(rng.randint(0, 12), 2))
        tP = scale(P, t)
        for strict in (False, True):
            assert tP.contains(p, strict) == P.contains(
                tuple(x / t for x in p), strict
            )


def test_product_polyhedron_contains_minkowski_sum():
    rng = Random(19)
    for _ in range(15):
        d = rng.choice([2, 3])
        ring = orthant_ring(d)
        a = minimalize(ring, [tuple(rng.randint(0, 5) for _ in range(d))
                              for _ in range(rng.randint(1, 4))])
        b = minimalize(ring, [tuple(rng.randint(0, 5) for _ in range(d))
                              for _ in range(rng.randint(1, 4))])
        Pab = newton_polyhedron(ring, multiply(a, b).gens)
        Pa = newton_polyhedron(ring, a.gens)
        Pb = newton_polyhedron(ring, b.gens)
        for va in Pa.vertices:
            for vb in Pb.vertices:
                assert Pab.contains(tuple(x + y for x, y in zip(va, vb)),
                                    strict=False)


def test_power_polyhedron_is_scaled_polyhedron():
    rng = Random(23)
    for _ in range(10):
        d = rng.choice([2, 3])
        ring = orthant_ring(d)
        a = minimalize(ring, [tuple(rng.randint(0, 4) for _ in range(d))
                              for _ in range(rng.randint(1, 4))])
        P = newton_polyhedron(ring, a.gens)
        for n in (2, 3, 4):
            Pn = newton_polyhedron(ring, power(a, n).gens)
            nP = scale(P, n)
            lhs = {(f, Fraction(b)) for f, b in _facets(Pn)}
            rhs = {(f, Fraction(b)) for f, b in _facets(nP)}
            assert lhs == rhs


def test_veronese_coordinates_polyhedron():
    from tauideal.tau import veronese_maximal_ideal, veronese_ring

    ring = veronese_ring(2, 2)
    m = veronese_maximal_ideal(ring, 2, 2)
    P = newton_polyhedron(ring, m.gens)
    for g in m.gens:
        assert P.contains(g, strict=False)
    for r in ring.sigma_dual.rays:
        shifted = tuple(Fraction(v) + Fraction(x) for v, x in
                        zip(P.vertices[0], r))
        assert P.contains(shifted, strict=False)


def test_lattice_inequalities_match_contains():
    # orthant, Veronese(2,2) and the cone over a square; each ideal is a few
    # random semigroup points, each shift zero, w or a fraction of w
    rings = [
        orthant_ring(2),
        orthant_ring(3),
        veronese_ring(2, 2),
        toric_ring([(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]),
    ]
    rng = Random(67)
    for ring in rings:
        pool = lattice_points_upto(ring, 6)[1:]
        points = lattice_points_upto(ring, 9)
        for _ in range(6):
            a = minimalize(ring, rng.sample(pool, rng.randint(1, 4)))
            t = Fraction(rng.randint(1, 12), rng.randint(1, 7))
            tP = scale(newton_polyhedron(ring, a.gens), t)
            for shift in (None, ring.w, tuple(Fraction(7, 8) * x for x in ring.w)):
                s = shift if shift is not None else (0,) * ring.d
                for strict in (False, True):
                    got = inequality_batch(lattice_inequalities(tP, shift, strict))
                    want = [tP.contains(vec_add(m, s), strict=strict) for m in points]
                    assert got(points) == want
