"""The polyhedral test-ideal engine."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from tauideal.enumeration import _lines, least_offsets
from tauideal.errors import InputError, SemigroupMembershipError
from tauideal.ideals import MonomialIdeal, maximal_ideal, minimalize, multiply, power, unit_ideal
from tauideal.lattice import orthant_ring, vec_add
from tauideal.polyhedra import lattice_inequalities, newton_polyhedron, scale
from tauideal.tau import (
    tau,
    tau_is_unit,
    tau_veronese,
    veronese_maximal_ideal,
    veronese_ring,
)


R2 = orthant_ring(2)


def I(*gens, ring=R2):
    return minimalize(ring, list(gens))


def test_tau_of_cube_of_maximal_ideal():
    m = maximal_ideal(R2)
    assert tau(R2, power(m, 3), 1) == power(m, 2)


def test_tau_cusp_at_one():
    assert tau(R2, I((2, 0), (0, 3)), 1).gens == ((0, 1), (1, 0))


def test_tau_cusp_jumping_thresholds():
    a = I((2, 0), (0, 3))
    assert tau(R2, a, Fraction(1, 3)).is_unit()
    assert tau(R2, a, Fraction(5, 6)).gens == ((0, 1), (1, 0))
    assert tau(R2, a, 1).gens == ((0, 1), (1, 0))
    # just below the jump the ideal is still trivial
    assert tau(R2, a, Fraction(5, 6) - Fraction(1, 1000)).is_unit()


def test_tau_at_zero_is_unit():
    assert tau(R2, I((5, 5)), 0).is_unit()
    assert tau_is_unit(R2, I((5, 5)), 0)
    # t = 0 reads the ideal as every other t does
    outside = MonomialIdeal(ring=R2, gens=((-1, 0),))
    for route in (tau, tau_is_unit):
        with pytest.raises(SemigroupMembershipError):
            route(R2, outside, 0)


def test_tau_rejects_bad_input():
    with pytest.raises(InputError):
        tau(R2, I((1, 0)), Fraction(-1, 2))
    with pytest.raises(InputError):
        tau(R2, minimalize(orthant_ring(3), [(1, 0, 0)]), 1)


def test_tau_is_unit_agrees_with_tau():
    rng = Random(47)
    for _ in range(25):
        d = rng.choice([1, 2, 3])
        ring = orthant_ring(d)
        a = minimalize(ring, [tuple(rng.randint(0, 5) for _ in range(d))
                              for _ in range(rng.randint(1, 4))])
        t = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        assert tau_is_unit(ring, a, t) == tau(ring, a, t).is_unit()
        # the Fraction reference: is w interior to t*P(a)?
        tP = scale(newton_polyhedron(ring, a.gens), t)
        assert tau_is_unit(ring, a, t) == tP.contains(ring.w, strict=True)


def test_regular_powers_formula():
    for d in (1, 2, 3, 4):
        ring = orthant_ring(d)
        m = maximal_ideal(ring)
        for n in range(1, 7):
            assert tau(ring, power(m, n), 1) == power(m, max(n - d + 1, 0))


def test_t_monotonicity():
    a = I((3, 0), (1, 1), (0, 2))
    prev = None
    for t in (Fraction(1, 4), Fraction(1, 2), 1, Fraction(3, 2), 2):
        cur = tau(R2, a, t)
        if prev is not None:
            assert cur.is_subideal_of(prev)
        prev = cur


def test_a_monotonicity():
    rng = Random(53)
    for _ in range(15):
        d = rng.choice([2, 3])
        ring = orthant_ring(d)
        a = minimalize(ring, [tuple(rng.randint(0, 4) for _ in range(d))
                              for _ in range(rng.randint(1, 3))])
        extra = tuple(rng.randint(0, 4) for _ in range(d))
        bigger = minimalize(ring, list(a.gens) + [extra])
        assert tau(ring, a, 1).is_subideal_of(tau(ring, bigger, 1))


def test_power_compatibility():
    a = I((2, 0), (0, 3))
    for n in (2, 3):
        for t in (Fraction(1, 2), 1, Fraction(5, 6)):
            assert tau(R2, power(a, n), t) == tau(R2, a, n * t)


def test_skoda_periodicity():
    # tau(a^t) = a * tau(a^{t-1}) for t >= number of generators (principal case)
    a = I((3, 2))
    for t in (2, 3, Fraction(7, 2)):
        assert tau(R2, a, t) == multiply(a, tau(R2, a, t - 1))


def test_veronese_closed_form_values():
    assert tau_veronese(2, 2, 1) == 1
    assert tau_veronese(2, 3, 1) == 1
    assert tau_veronese(3, 2, 1) == 0
    assert tau_veronese(3, 2, 2) == 1
    assert tau_veronese(2, 3, 4) == 4  # ceil(4 - 1/3)


def test_veronese_model_matches_closed_form():
    for d, r in ((2, 2), (2, 3), (3, 2)):
        ring = veronese_ring(d, r)
        m = veronese_maximal_ideal(ring, d, r)
        for l in range(1, 5):
            e = tau_veronese(d, r, l)
            want = power(m, e) if e > 0 else unit_ideal(ring)
            assert tau(ring, power(m, l), 1) == want


def test_veronese_ring_gorenstein_index():
    assert veronese_ring(2, 2).gorenstein_index == 1
    assert veronese_ring(2, 3).gorenstein_index == 3
    assert veronese_ring(3, 2).gorenstein_index == 2


def test_tau_veronese_refuses_non_int_parameters():
    # a non-int l has no closed form: Fraction(1.5) would give an answer
    for args in ((2, 2, 1.5), (2, 2.0, 3), (2.0, 2, 3), (2, 2, True), (2, 2, Fraction(3))):
        with pytest.raises(InputError, match="must be an int"):
            tau_veronese(*args)
    with pytest.raises(InputError, match="positive"):
        tau_veronese(2, 2, 0)


def test_veronese_ring_refuses_non_int_parameters():
    for args in ((2, 2.5), (2.0, 2), (True, 2)):
        with pytest.raises(InputError, match="must be an int"):
            veronese_ring(*args)


def test_veronese_maximal_ideal_refuses_non_int_and_nonpositive_parameters():
    ring = veronese_ring(2, 2)
    for args in ((2, 2.0), (2.0, 2), (2, True)):
        with pytest.raises(InputError, match="must be an int"):
            veronese_maximal_ideal(ring, *args)
    # d = 0 would reach itertools.product(repeat=-1), a raw ValueError
    for args in ((0, 2), (2, 0)):
        with pytest.raises(InputError, match="positive"):
            veronese_maximal_ideal(ring, *args)


def test_veronese_maximal_ideal_refuses_another_ring():
    # on veronese_ring(2, 3) the d = r = 2 points (1,0),(1,1),(1,2) miss the
    # generator (1,3) of that ring's maximal ideal
    for ring, d, r in ((veronese_ring(2, 3), 2, 2), (veronese_ring(2, 2), 2, 3),
                       (veronese_ring(3, 2), 2, 2), (orthant_ring(2), 2, 2)):
        with pytest.raises(InputError, match="not veronese_ring"):
            veronese_maximal_ideal(ring, d, r)
    # with d = 1 every r gives k[x], whose sigma is spanned by (1,), not (r,)
    # on its own ring it is the degree-r monomials (1, c), c the exponents
    # of x_2..x_d of sum <= r
    for d, r in ((2, 2), (2, 3), (3, 2), (1, 3)):
        ring = veronese_ring(d, r)
        tails = product(range(r + 1), repeat=d - 1)
        want = minimalize(ring, [(1,) + c for c in tails if sum(c) <= r])
        assert veronese_maximal_ideal(ring, d, r) == want
    assert veronese_maximal_ideal(orthant_ring(1), 1, 3) == minimalize(orthant_ring(1), [(1,)])


def test_predicate_is_exact_beyond_int64():
    # facet values here overflow int64; an earlier numpy predicate got 15 of
    # these 64 points wrong
    a = I((10**9, 0), (0, 10**9 + 1))
    t = Fraction(3 * 10**9 + 1, 10**18)
    tP = scale(newton_polyhedron(R2, a.gens), t)
    points = [(i, j) for i in range(8) for j in range(8)]
    want = [tP.contains(vec_add(m, R2.w), strict=True) for m in points]
    # the lines along r = (0, 1) start at the bottoms (i, 0)
    assert _lines(R2).r == (0, 1)
    ineqs = lattice_inequalities(tP, R2.w, strict=True)
    offsets = least_offsets(R2, [ineqs], 8)([(i, 0) for i in range(8)])
    assert [j >= offsets[i] for i, j in points] == want
    brute = minimalize(R2, [m for m, inside in zip(points, want) if inside])
    assert max(map(max, brute.gens)) < 7  # the box holds every generator
    assert tau(R2, a, t) == brute
