"""Monomial ideal arithmetic."""

import os
import subprocess
import sys
from collections import Counter
from itertools import product
from operator import le, mul
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from tauideal.errors import (
    DimensionMismatchError,
    InputError,
    TauIdealError,
    RingMismatchError,
    SemigroupMembershipError,
    UnsupportedRingError,
)
import tauideal
from tauideal import enumeration, lattice
from tauideal.enumeration import lattice_points_upto
import tauideal.ideals as ideals_module
from tauideal.ideals import (
    MonomialIdeal,
    _check_same_ring,
    _ray_coords,
    _upset_union,
    bracket_power,
    colon,
    frobenius_root,
    ideal_sum,
    integral_closure,
    intersect,
    kill_variable,
    maximal_ideal,
    minimal_vectors_orthant,
    minimalize,
    multiply,
    power,
    powers,
    trace_root,
    unit_ideal,
    zero_ideal,
)
from tauideal.lattice import (
    IntVec, orthant_ring, toric_ring, vec_add, vec_neg, vec_scale, vec_sub,
)
from tauideal.tau import veronese_ring


R2 = orthant_ring(2)
R3 = orthant_ring(3)


def I(*gens, ring=R2):
    return minimalize(ring, list(gens))


def test_minimalize_drops_divisible_generators():
    assert I((2, 0), (1, 0)).gens == ((1, 0),)


def test_minimalize_keeps_antichain():
    assert I((2, 0), (0, 3), (1, 2)).gens == ((0, 3), (1, 2), (2, 0))


# -- reference: minimal_vectors_orthant before the bitmask kernel ------------
# The pure-Python loop over vectors sorted by degree; kept here only to check
# the kernel against it.

def reference_minimal_vectors(vectors) -> list[IntVec]:
    vecs = sorted(set(vectors), key=lambda v: (sum(v), v))
    kept_list: list[IntVec] = []
    for v in vecs:
        if not any(all(map(le, k, v)) for k in kept_list):
            kept_list.append(v)
    return kept_list


def test_minimal_vectors_large_sets_match_pairwise_definition():
    # the offsets put the first entry past int64 and past 64 bits, where a
    # fixed-width comparison would wrap
    rng = Random(47)
    for offset in (0, 2**63, 2**64 + 3):
        vecs = [(offset + rng.randint(0, 40), rng.randint(0, 40),
                 rng.randint(0, 40)) for _ in range(600)]
        want = sorted(v for v in set(vecs) if not any(
            k != v and all(a <= b for a, b in zip(k, v)) for k in vecs))
        got = sorted(minimal_vectors_orthant(vecs))
        assert got == sorted(reference_minimal_vectors(vecs)) == want


# -- reference: minimalize before ray coordinates ----------------------------
# An orthant fork plus a pairwise semigroup test on other rings; kept here
# only to check the ray-coordinate version against it.

def reference_minimalize(ring, raw_gens) -> MonomialIdeal:
    """Divisibility-minimal generating set; the unit ideal normalizes to {0}."""
    gens = sorted({tuple(g) for g in raw_gens})
    for g in gens:
        if not ring.in_semigroup(g):
            raise SemigroupMembershipError(f"generator {g} outside the semigroup")
    zero = tuple(0 for _ in range(ring.d))
    if zero in gens:
        return MonomialIdeal(ring=ring, gens=(zero,))
    if ring.is_orthant():
        minimal = reference_minimal_vectors(gens)
    else:
        minimal = []
        for g in gens:
            dominated = any(
                h != g and ring.in_semigroup(vec_sub(g, h)) for h in gens
            )
            if not dominated:
                minimal.append(g)
    return MonomialIdeal(ring=ring, gens=tuple(sorted(minimal)))


def _minimalize_outcome(fn, ring, gens):
    try:
        return fn(ring, gens)
    except TauIdealError as exc:
        return type(exc)


# orthant d = 1..4, Veronese (2,2) (3,2) (2,3), the square cone, the index-5
# ring and the cone (1,0),(1,2)
TEST_RINGS = [orthant_ring(d) for d in range(1, 5)] + [
    veronese_ring(2, 2), veronese_ring(3, 2), veronese_ring(2, 3),
    toric_ring([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
    toric_ring([(0, 1), (5, -2)]),
    toric_ring([(1, 0), (1, 2)]),
]


def test_minimalize_matches_pairwise_reference():
    rng = Random(808)
    seen = Counter()
    for ring in TEST_RINGS:
        points = lattice_points_upto(ring, 8)
        for trial in range(60):
            gens = rng.sample(points, rng.randint(1, min(12, len(points))))
            kind = trial % 6
            if kind == 1:  # a generator outside the semigroup
                gens.append(tuple(rng.randint(-3, 1) for _ in range(ring.d)))
            elif kind == 2:  # a generator of the wrong length
                gens.append((1,) * (ring.d + 1))
            elif kind == 3:  # the unit ideal
                gens.append((0,) * ring.d)
            rng.shuffle(gens)
            got = _minimalize_outcome(minimalize, ring, gens)
            assert got == _minimalize_outcome(reference_minimalize, ring, gens), gens
            seen[got if isinstance(got, type) else len(got.gens) > 1] += 1
        # a set of about 450 generators, where the ring has one
        sizes = (8, 16, 24)
        bound = next((b for b in sizes if len(lattice_points_upto(ring, b)) > 450), 40)
        pool = lattice_points_upto(ring, bound)[1:]
        gens = rng.sample(pool, min(450, len(pool)))
        assert minimalize(ring, gens) == reference_minimalize(ring, gens)
    for key in (True, SemigroupMembershipError, DimensionMismatchError):
        assert seen[key] >= 50, seen


def test_numpy_is_not_loaded_by_small_computations():
    code = (
        "import sys, tauideal as T\n"
        "R = T.orthant_ring(2)\n"
        "a = T.minimalize(R, [(3, 0), (1, 2), (0, 5)])\n"
        "T.tau(R, a, 1); T.integral_closure(a); T.tau_socle_oracle(R, a, 1)\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(tauideal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# -- reference: is_subideal_of before the bitmask kernel --------------------

def reference_is_subideal_of(I, J) -> bool:
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")
    return all(J.contains_monomial(g) for g in I.gens)


REFERENCE_RINGS = [orthant_ring(d) for d in range(1, 5)] + [
    veronese_ring(2, 2), veronese_ring(2, 3), veronese_ring(3, 2),
    toric_ring([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
    toric_ring([(0, 1), (5, -2)]),
]


def test_is_subideal_of_matches_pairwise_reference():
    rng = Random(909)
    seen = Counter()
    for ring in REFERENCE_RINGS:
        points = lattice_points_upto(ring, 8)

        def random_ideal():
            kind = rng.randrange(6)
            if kind == 0:
                return zero_ideal(ring)
            if kind == 1:
                return unit_ideal(ring)
            return minimalize(ring, rng.sample(points, rng.randint(1, min(14, len(points)))))

        for _ in range(80):
            a, b = random_ideal(), random_ideal()
            if rng.random() < 0.3:  # make containment likely: b = a + c
                b = ideal_sum(a, b)
            for x, y in ((a, b), (b, a)):
                got = x.is_subideal_of(y)
                assert got == reference_is_subideal_of(x, y), (x.gens, y.gens)
                seen[got] += 1
                seen["sizes differ"] += len(x.gens) != len(y.gens)
    assert seen[True] >= 300 and seen[False] >= 300 and seen["sizes differ"] >= 500, seen


@pytest.mark.parametrize("ring", [R2, veronese_ring(2, 2)], ids=["orthant", "veronese"])
def test_is_subideal_of_checks_the_generators_of_both_ideals(ring):
    good = minimalize(ring, [(1, 0), (1, 1)])
    outside = MonomialIdeal(ring=ring, gens=((-1, 0),))
    too_long = MonomialIdeal(ring=ring, gens=((1, 0, 0),))
    for bad, error in ((outside, SemigroupMembershipError),
                       (too_long, DimensionMismatchError)):
        with pytest.raises(error):
            bad.is_subideal_of(good)
        with pytest.raises(error):
            good.is_subideal_of(bad)


def test_minimalize_veronese_semigroup_divisibility():
    ring = toric_ring([(1, 0), (1, 2)])
    # (2,-1)-(1,0) = (1,-1) has <.,(1,2)> = -1 < 0: both generators survive
    J = minimalize(ring, [(1, 0), (2, -1)])
    assert J.gens == ((1, 0), (2, -1))


def test_minimalize_rejects_outside_semigroup():
    with pytest.raises(SemigroupMembershipError):
        minimalize(R2, [(-1, 0)])


def test_unit_normalizes_to_zero_vector():
    assert I((0, 0), (3, 1)).gens == ((0, 0),)
    assert I((0, 0)).is_unit()


def test_contains_monomial():
    a = I((2, 0), (0, 3))
    assert a.contains_monomial((2, 5))
    assert not a.contains_monomial((1, 2))
    assert unit_ideal(R2).contains_monomial((0, 0))
    with pytest.raises(SemigroupMembershipError):
        a.contains_monomial((-1, 0))


def test_multiply_and_power():
    m = I((1, 0), (0, 1))
    assert multiply(m, m).gens == ((0, 2), (1, 1), (2, 0))
    assert power(I((2, 0), (0, 3)), 2).gens == ((0, 6), (2, 3), (4, 0))
    assert power(m, 0).is_unit()
    with pytest.raises(InputError):
        power(m, -1)


# -- reference: _ray_coords, multiply and power before pairing_columns ------
# The per-point loops and the squaring through multiply, as they were before
# the column-wise pairing kernel and the power chain; kept here only to check
# the library against them.

def reference_vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def reference_ray_coords(ring, gens) -> list[IntVec]:
    rays = ring.sigma.rays
    coords = []
    for g in gens:
        if len(g) != ring.d:
            raise DimensionMismatchError(f"vector length {len(g)}, ring rank {ring.d}")
        c = tuple(sum(map(mul, g, n)) for n in rays)
        if min(c) < 0:
            raise SemigroupMembershipError(f"generator {g} outside the semigroup")
        coords.append(c)
    return coords


def reference_multiply(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_same_ring(I, J)
    if I.is_zero() or J.is_zero():
        return zero_ideal(I.ring)
    return minimalize(
        I.ring, {reference_vec_add(g, h) for g in I.gens for h in J.gens}
    )


def reference_power(I: MonomialIdeal, n: int) -> MonomialIdeal:
    if n < 0:
        raise InputError(f"negative power {n}")
    if n == 0:
        return unit_ideal(I.ring)
    result = None
    base = I
    k = n
    while k:
        if k & 1:
            result = base if result is None else reference_multiply(result, base)
        k >>= 1
        if k:
            base = reference_multiply(base, base)
    return result


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TauIdealError as exc:
        return type(exc)


# past 64 bits, where a fixed-width pairing would wrap
BIG = 2**64 + 7


def _lift(ring, rng, gens):
    """The gens shifted by BIG times extreme rays of sigma_dual: still in the
    semigroup, with entries of at least 2**64 in absolute value."""
    return [vec_add(g, vec_scale(BIG, rng.choice(ring.sigma_dual.rays))) for g in gens]


def test_ray_coords_match_the_per_point_reference():
    rng = Random(1717)
    seen = Counter()
    for ring in TEST_RINGS:
        assert _ray_coords(ring, []) == reference_ray_coords(ring, []) == []
        points = lattice_points_upto(ring, 8)
        for trial in range(50):
            kind = trial % 5
            gens = rng.sample(points, rng.randint(1, min(12, len(points))))
            if kind == 1:  # outside the semigroup, anywhere in the list
                gens.insert(rng.randint(0, len(gens)), vec_neg(rng.choice(ring.sigma_dual.rays)))
            elif kind == 2:  # one entry too many, after valid vectors
                gens.append((1,) * (ring.d + 1))
            elif kind == 3:  # one entry too few, after valid vectors
                gens.append((0,) * (ring.d - 1))
            elif kind == 4:
                gens = _lift(ring, rng, gens)
            got = _outcome(_ray_coords, ring, gens)
            assert got == _outcome(reference_ray_coords, ring, gens), gens
            seen[got if isinstance(got, type) else kind] += 1
    assert seen[SemigroupMembershipError] == seen[0] == seen[4] == 100, seen
    assert seen[DimensionMismatchError] == 200, seen


def test_multiply_and_power_match_the_reference():
    rng = Random(2121)
    seen = Counter()
    for ring in TEST_RINGS:
        points = lattice_points_upto(ring, 6)

        def random_ideal():
            kind = rng.randrange(6)
            seen[kind] += 1
            if kind == 0:
                return zero_ideal(ring)
            if kind == 1:
                return unit_ideal(ring)
            gens = rng.sample(points, rng.randint(1, min(5, len(points))))
            return minimalize(ring, _lift(ring, rng, gens) if kind == 2 else gens)

        for _ in range(20):
            a, b = random_ideal(), random_ideal()
            assert multiply(a, b) == reference_multiply(a, b), (a.gens, b.gens)
            for n in range(6):
                assert power(a, n) == reference_power(a, n), (a.gens, n)
    assert min(seen.values()) >= 40, seen


def _count_calls(monkeypatch, calls: Counter, names) -> None:
    """Replace each named function of tauideal.ideals by one that counts its
    calls in ``calls``; the monkeypatch context puts them back."""
    for name in names:
        def wrapped(*args, _name=name, _real=getattr(ideals_module, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(ideals_module, name, wrapped)


def _count_products(monkeypatch, calls: Counter) -> None:
    """Replace the row-sum kernel ``_sums`` of tauideal.ideals by one that
    counts its squares (one argument) and products (two) in ``calls``."""
    real = ideals_module._sums

    def wrapped(A, B=None):
        calls["square" if B is None else "add"] += 1
        return real(A, B)

    monkeypatch.setattr(ideals_module, "_sums", wrapped)


def test_power_of_one_generator_is_that_generator_times_n(monkeypatch):
    rng = Random(2323)
    calls = Counter()
    for ring in TEST_RINGS:
        points = lattice_points_upto(ring, 6)
        for g in [(0,) * ring.d, *rng.sample(points[1:], 3), *_lift(ring, rng, points[:1])]:
            a = minimalize(ring, [g])
            expected = [unit_ideal(ring)]
            for _ in range(7):
                expected.append(multiply(expected[-1], a))
            with monkeypatch.context() as m:
                _count_calls(m, calls, ("multiply", "minimalize"))
                got = [power(a, n) for n in range(8)]
            assert got == expected, g
    assert not calls, calls


def test_powers_match_power_on_every_step_kind():
    rng = Random(2525)
    sequences = (
        [],
        [0, 0, 1, 2, 2, 3, 6, 7],  # a leading 0 and repeats
        [1, 2, 4, 8, 16],  # doublings only
        [3, 6, 12, 24],
        [2, 3, 5, 9, 9, 10],  # no doubling
        [0, 4, 5, 10],
    )
    for ring in TEST_RINGS:
        points = lattice_points_upto(ring, 4)[1:]
        several = minimalize(ring, rng.sample(points, min(3, len(points))))
        for a in (zero_ideal(ring), unit_ideal(ring), minimalize(ring, points[:1]), several):
            for ns in sequences:
                got = [sorted(rows) for rows in powers(a, ns)]
                want = [sorted(_ray_coords(ring, power(a, n).gens)) for n in ns]
                assert got == want, (a.gens, ns)
    # exponents come in any order; a negative one is refused
    a = I((2, 0), (1, 3), (0, 5))
    got = [sorted(rows) for rows in powers(a, [2, 3, 1])]
    assert got == [sorted(_ray_coords(R2, power(a, n).gens)) for n in (2, 3, 1)]
    with pytest.raises(InputError):
        list(powers(a, [2, -1]))


def _products_for_first_value(monkeypatch, chain, a, exponents):
    """The first value of chain(a, exponents) and the squares and products
    of ``_sums`` made while taking it."""
    calls = Counter()
    with monkeypatch.context() as m:
        _count_products(m, calls)
        first = next(iter(chain(a, exponents)))
    return first, calls


def test_powers_builds_nothing_past_the_value_taken(monkeypatch):
    a = I((2, 0), (1, 3), (0, 5))
    ns = [3, 5, 9, 17, 33, 65, 192]
    want, by_power = _products_for_first_value(
        monkeypatch, lambda a, ns: [sorted(_ray_coords(R2, power(a, ns[0]).gens))], a, ns
    )
    got, by_chain = _products_for_first_value(monkeypatch, powers, a, ns)
    # I**1 adds I's rows to the unit row, I**2 squares it, I**3 adds I's rows
    assert sorted(got) == want and by_chain == by_power == {"square": 1, "add": 2}
    # the same count catches a chain that builds every value up front
    _, by_eager = _products_for_first_value(
        monkeypatch, lambda a, ns: list(powers(a, ns)), a, ns
    )
    assert by_eager["add"] > by_power["add"]


def test_powers_builds_each_power_once_by_one_rule(monkeypatch):
    a = I((2, 0), (1, 3), (0, 5))
    calls = Counter()
    with monkeypatch.context() as m:
        _count_products(m, calls)
        got = [sorted(rows) for rows in powers(a, [3, 6, 12, 24, 6, 3])]
    # I**1 and I**3 add I's rows, I**2, I**6, I**12 and I**24 square, and the
    # repeated 6 and 3 are the powers already built
    assert calls == {"square": 4, "add": 2}
    assert got == [sorted(_ray_coords(R2, power(a, n).gens)) for n in (3, 6, 12, 24, 6, 3)]
    calls.clear()
    with monkeypatch.context() as m:
        _count_products(m, calls)
        assert list(powers(a, [0])) == [[(0, 0)]]
    assert not calls


def test_products_check_the_generators_they_are_given():
    # power, multiply and contains_monomial read every generator's ray
    # coordinates, so a hand-built ideal with one outside sigma_dual is
    # refused, at n = 0 and for one generator too
    for ring in (R2, veronese_ring(2, 2)):
        outside = vec_neg(ring.sigma_dual.rays[0])
        one = MonomialIdeal(ring=ring, gens=(outside,))
        several = MonomialIdeal(ring=ring, gens=((0,) * ring.d, outside))
        for bad in (one, several):
            for n in (0, 1, 2, 5):
                with pytest.raises(SemigroupMembershipError):
                    power(bad, n)
            with pytest.raises(SemigroupMembershipError):
                multiply(bad, unit_ideal(ring))
            with pytest.raises(SemigroupMembershipError):
                multiply(unit_ideal(ring), bad)
            with pytest.raises(SemigroupMembershipError):
                bad.contains_monomial((0,) * ring.d)


def test_sum():
    assert ideal_sum(I((2, 0)), I((0, 2))).gens == ((0, 2), (2, 0))


def test_intersect():
    assert intersect(I((1, 0)), I((0, 1))).gens == ((1, 1),)
    assert intersect(I((2, 0), (0, 1)), I((1, 0), (0, 2))).gens == (
        (0, 2),
        (1, 1),
        (2, 0),
    )
    a = I((2, 1), (0, 3))
    assert intersect(a, unit_ideal(R2)) == a


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        multiply(I((1, 0)), I((1, 0, 0), ring=R3))


def test_orthant_only_operations_refuse_general_rings():
    ring = toric_ring([(1, 0), (1, 2)])
    a = minimalize(ring, [(1, 0)])
    with pytest.raises(UnsupportedRingError):
        frobenius_root(a, 2)
    with pytest.raises(UnsupportedRingError):
        kill_variable(a, 0)


def brute_colon(Ia, Ja):
    hi = [max(g[k] for g in Ia.gens) for k in range(Ia.ring.d)]
    members = [
        m
        for m in product(*(range(h + 1) for h in hi))
        if all(
            Ia.contains_monomial(tuple(a + b for a, b in zip(m, g)))
            for g in Ja.gens
        )
    ]
    return minimalize(Ia.ring, members) if members else zero_ideal(Ia.ring)


def test_colon_against_brute_force():
    rng = Random(31)
    for _ in range(25):
        d = rng.choice([2, 3])
        ring = orthant_ring(d)
        a = minimalize(ring, [tuple(rng.randint(0, 5) for _ in range(d))
                              for _ in range(rng.randint(1, 4))])
        b = minimalize(ring, [tuple(rng.randint(0, 5) for _ in range(d))
                              for _ in range(rng.randint(1, 4))])
        assert colon(a, b) == brute_colon(a, b)


def test_colon_adjunction():
    # (I : J)*J lies in I, and I in (I : J), on every test ring
    rng = Random(37)
    for ring in TEST_RINGS:
        ideals = [zero_ideal(ring), unit_ideal(ring), *_small_ideals(ring, rng, 6)]
        for a in ideals:
            for b in ideals:
                q = colon(a, b)
                assert multiply(q, b).is_subideal_of(a), (a.gens, b.gens)
                assert a.is_subideal_of(q), (a.gens, b.gens)


def test_colon_degenerate_arguments():
    a = I((2, 1))
    assert colon(a, zero_ideal(R2)).is_unit()
    assert colon(zero_ideal(R2), a).is_zero()


def test_colon_builds_its_ideal_with_one_kernel_call(monkeypatch):
    # colon intersects the up-sets on their bound vectors, so however many
    # generators J has, the ideal is built once, zero and unit ideals included
    rng = Random(39)
    calls = Counter()
    _count_calls(monkeypatch, calls, ("_upset_union",))
    for ring in TEST_RINGS:
        a, b = _small_ideals(ring, rng, 2)
        for x, y in ((a, b), (b, a), (a, zero_ideal(ring)), (a, unit_ideal(ring)),
                     (zero_ideal(ring), b), (zero_ideal(ring), zero_ideal(ring))):
            calls.clear()
            colon(x, y)
            assert calls == {"_upset_union": 1}, (ring.sigma.rays, x.gens, y.gens)


# -- reference: intersect and colon before the up-set kernel ----------------
# The componentwise formulas, orthant rings only; kept here only to check the
# kernel against them.

def reference_intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_same_ring(I, J)
    if I.is_zero() or J.is_zero():
        return zero_ideal(I.ring)
    return minimalize(
        I.ring,
        {tuple(max(a, b) for a, b in zip(g, h)) for g in I.gens for h in J.gens},
    )


def reference_colon(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_same_ring(I, J)
    if J.is_zero():
        return unit_ideal(I.ring)
    if I.is_zero():
        return zero_ideal(I.ring)
    result = None
    for g in J.gens:
        piece = minimalize(
            I.ring,
            {tuple(max(h_i - g_i, 0) for h_i, g_i in zip(h, g)) for h in I.gens},
        )
        result = piece if result is None else reference_intersect(result, piece)
    return result


def test_intersect_and_colon_match_the_componentwise_reference():
    rng = Random(2727)
    seen = Counter()
    for d in range(1, 5):
        ring = orthant_ring(d)
        points = lattice_points_upto(ring, 7)

        def random_ideal():
            kind = rng.randrange(6)
            seen[kind] += 1
            if kind == 0:
                return zero_ideal(ring)
            if kind == 1:
                return unit_ideal(ring)
            gens = rng.sample(points, rng.randint(1, min(6, len(points))))
            return minimalize(ring, _lift(ring, rng, gens) if kind == 2 else gens)

        for _ in range(60):
            a, b = random_ideal(), random_ideal()
            assert intersect(a, b) == reference_intersect(a, b), (a.gens, b.gens)
            assert colon(a, b) == reference_colon(a, b), (a.gens, b.gens)
    assert min(seen.values()) >= 60, seen


# the six rings of TEST_RINGS that are not orthants, and the l-degree up to
# which the brute-force references enumerate: a truncated reference has the
# answer's generators of degree up to it, and the answers below have none
# above half of it
GENERAL_RINGS = [ring for ring in TEST_RINGS if not ring.is_orthant()]
BRUTE_DEGREE = 24


def _brute_ideal(ring, is_member) -> MonomialIdeal:
    """The ideal generated by the lattice points of l-degree at most
    BRUTE_DEGREE that pass ``is_member``."""
    points = lattice_points_upto(ring, BRUTE_DEGREE)
    return minimalize(ring, [m for m in points if is_member(m)])


def _small_ideals(ring, rng, count):
    points = lattice_points_upto(ring, 4)
    for _ in range(count):
        yield minimalize(ring, rng.sample(points, rng.randint(1, min(3, len(points)))))


def test_intersect_and_colon_match_brute_force_on_general_rings():
    assert len(GENERAL_RINGS) == 6
    rng = Random(2929)
    for ring in GENERAL_RINGS:
        pairs = list(zip(_small_ideals(ring, rng, 6), _small_ideals(ring, rng, 6)))
        for a, b in pairs:
            both = _brute_ideal(
                ring, lambda m: a.contains_monomial(m) and b.contains_monomial(m)
            )
            assert intersect(a, b) == both, (a.gens, b.gens)
            quotient = _brute_ideal(
                ring, lambda m: all(a.contains_monomial(vec_add(m, h)) for h in b.gens)
            )
            assert colon(a, b) == quotient, (a.gens, b.gens)


def _bound_vector(rng, ring):
    """The ray coordinates of a nonzero lattice point, which the shortcut
    finds, or k random integer entries with at least one positive."""
    if rng.random() < 0.5:
        return _ray_coords(ring, [rng.choice(lattice_points_upto(ring, 6)[1:])])[0]
    c = [rng.randint(-2, 4) for _ in ring.sigma.rays]
    c[rng.randrange(len(c))] = rng.randint(1, 4)
    return tuple(c)


def test_upset_kernel_shortcut_and_enumeration_agree(monkeypatch):
    # with an inverse of zeros every candidate point is 0, whose ray
    # coordinates miss every bound vector with a positive entry, so each
    # up-set is enumerated; up-sets are counted by the pair sets handed to
    # the line offsets, as one kernel call scans all of its up-sets together
    rng = Random(3333)
    enumerated = Counter()
    branch = ["shortcut"]
    real_offsets = enumeration.least_offsets

    def counted(ring, ineq_sets, bound):
        enumerated[branch[0]] += len(ineq_sets)
        return real_offsets(ring, ineq_sets, bound)

    monkeypatch.setattr(enumeration, "least_offsets", counted)
    for ring in TEST_RINGS:
        d = ring.d
        zero_inverse = (list(range(d)), [(0,) * d] * d, 1)
        points = lattice_points_upto(ring, BRUTE_DEGREE)
        coords = _ray_coords(ring, points)
        enumerated.clear()
        for _ in range(8):
            bounds = [_bound_vector(rng, ring) for _ in range(rng.randint(1, 3))]
            # the boxes are >= 0, as colon clamps its bounds; rc(m) >= 0 on
            # sigma_dual, so brute force below reads the raw bounds alike
            boxes = [tuple(max(x, 0) for x in c) for c in bounds]
            branch[0] = "shortcut"
            direct = _upset_union(ring, boxes)
            branch[0] = "enumerated"
            with monkeypatch.context() as m:
                m.setattr(lattice, "basis_inverse", lambda rays: zero_inverse)
                assert _upset_union(ring, boxes) == direct, bounds
            members = [
                m for m, rc in zip(points, coords)
                if any(all(map(le, c, rc)) for c in bounds)
            ]
            brute = minimalize(ring, members)
            assert direct == brute, bounds
        assert enumerated["enumerated"] >= 8, ring.sigma.rays
        if ring.is_orthant():  # a smooth cone never enumerates
            assert enumerated["shortcut"] == 0
        else:
            assert enumerated["shortcut"] < enumerated["enumerated"], ring.sigma.rays


@st.composite
def _ring_and_two_ideals(draw):
    """A ring of TEST_RINGS, two ideals from its lattice points, and the kind
    of defect planted in the second one (None for a well-formed pair)."""
    ring = draw(st.sampled_from(TEST_RINGS))
    points = lattice_points_upto(ring, 5)
    a = minimalize(ring, draw(st.lists(st.sampled_from(points), max_size=4)))
    b = minimalize(ring, draw(st.lists(st.sampled_from(points), max_size=4)))
    bad = draw(st.sampled_from((None, None, None, "outside", "too long", "other ring")))
    if bad == "outside":
        b = MonomialIdeal(ring=ring, gens=b.gens + (vec_neg(ring.sigma_dual.rays[0]),))
    elif bad == "too long":
        b = MonomialIdeal(ring=ring, gens=b.gens + ((1,) * (ring.d + 1),))
    elif bad == "other ring":
        b = unit_ideal(orthant_ring(ring.d + 1))
    if draw(st.booleans()):
        a, b = b, a
    return a, b, bad


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_ring_and_two_ideals())
def test_intersect_and_colon_properties(case):
    a, b, bad = case
    if bad:  # refused with a package error, never another exception
        for op in (intersect, colon):
            with pytest.raises(TauIdealError):
                op(a, b)
        return
    both = intersect(a, b)
    assert both == intersect(b, a)
    assert both.is_subideal_of(a) and both.is_subideal_of(b)
    quotient = colon(a, b)
    assert multiply(quotient, b).is_subideal_of(a)
    assert a.is_subideal_of(quotient)


def test_bracket_power_and_root_round_trip():
    a = I((2, 0), (1, 2))
    assert bracket_power(a, 3).gens == ((3, 6), (6, 0))
    assert frobenius_root(bracket_power(a, 4), 4) == a
    rng = Random(41)
    for _ in range(20):
        d = rng.choice([2, 3])
        ring = orthant_ring(d)
        b = minimalize(ring, [tuple(rng.randint(0, 9) for _ in range(d))
                              for _ in range(rng.randint(1, 4))])
        for q in (2, 4, 8):
            root = frobenius_root(b, q)
            assert b.is_subideal_of(bracket_power(root, q))


def _admissible_qs(ring):
    """The q in 2, 4, 8, 16, 3, 9 with (q-1)*w a lattice point."""
    return [q for q in (2, 4, 8, 16, 3, 9) if (q - 1) % ring.gorenstein_index == 0]


def test_trace_root_matches_brute_force_on_general_rings():
    # C_q = {m : q*m + (q-1)*w in a^n}, from the lattice points and
    # contains_monomial alone
    rng = Random(3131)
    checked = Counter()
    for ring in GENERAL_RINGS:
        w = ring.w
        for a in _small_ideals(ring, rng, 3):
            for q in _admissible_qs(ring):
                an = power(a, rng.randint(1, 3))
                qw = tuple(int((q - 1) * x) for x in w)
                want = _brute_ideal(
                    ring, lambda m: an.contains_monomial(vec_add(vec_scale(q, m), qw))
                )
                assert trace_root(an, q) == want, (ring.sigma.rays, an.gens, q)
                checked[ring.gorenstein_index] += 1
    assert sorted(checked) == [1, 2, 3, 5], checked


def test_trace_root_is_the_frobenius_root_on_the_orthant():
    rng = Random(3232)
    for d in range(1, 5):
        ring = orthant_ring(d)
        points = lattice_points_upto(ring, 7)[1:]
        for _ in range(15):
            gens = rng.sample(points, rng.randint(1, min(5, len(points))))
            a = minimalize(ring, _lift(ring, rng, gens) if rng.random() < 0.5 else gens)
            for q in (1, 2, 3, 4, 8, 9, 2**65):
                assert trace_root(a, q) == frobenius_root(a, q), (a.gens, q)
    with pytest.raises(InputError):
        trace_root(I((1, 0)), 0)


def test_trace_root_refuses_a_q_with_w_off_the_lattice():
    # x^(q*m + (q-1)*w) is a monomial only when (q-1)*w is a lattice point,
    # q = 1 mod the Gorenstein index; every q >= 1 passes on the orthant
    for ring, index, bad, good in (
        (veronese_ring(2, 3), 3, (2, 3, 5, 6), (1, 4, 7)),
        (toric_ring([(0, 1), (5, -2)]), 5, (2, 3, 4, 5, 7), (1, 6, 11)),
    ):
        assert ring.gorenstein_index == index
        m = maximal_ideal(ring)
        for q in bad:
            with pytest.raises(InputError, match="lattice point"):
                trace_root(m, q)
        for q in good:
            assert trace_root(m, q).gens


def test_kill_variable():
    a = I((2, 0), (1, 1), (0, 3))
    assert kill_variable(a, 1).gens == ((2,),)
    assert kill_variable(a, 0).gens == ((3,),)
    assert kill_variable(I((1, 1)), 0).is_zero()
    with pytest.raises(InputError):
        kill_variable(a, 2)


def test_integral_closure_examples():
    # (x^2, y^2) integrally closes to (x^2, xy, y^2)
    assert integral_closure(I((2, 0), (0, 2))).gens == ((0, 2), (1, 1), (2, 0))
    # antichain on the boundary of its own polyhedron is closed
    m = I((1, 0), (0, 1))
    assert integral_closure(m) == m
    for ring in TEST_RINGS:
        assert integral_closure(unit_ideal(ring)) == unit_ideal(ring)


def test_maximal_ideal_is_the_irrelevant_ideal_on_every_ring():
    for d in range(1, 5):
        ring = orthant_ring(d)
        units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        assert maximal_ideal(ring) == minimalize(ring, units)
    # on veronese_ring(d, r) it is made of the degree-r monomials (1, c),
    # c the exponents of x_2..x_d of sum <= r
    for d, r in ((2, 2), (2, 3), (3, 2), (4, 2), (2, 5), (1, 3)):
        ring = veronese_ring(d, r)
        tails = product(range(r + 1), repeat=d - 1)
        assert maximal_ideal(ring) == minimalize(ring, [(1,) + c for c in tails if sum(c) <= r])
    # off the orthant the unit vectors miss the Hilbert basis element (2, -1)
    assert maximal_ideal(toric_ring([(1, 0), (1, 2)])).gens == ((0, 1), (1, 0), (2, -1))


def test_integral_closure_is_idempotent_and_expanding():
    rng = Random(43)
    for _ in range(15):
        d = rng.choice([2, 3])
        ring = orthant_ring(d)
        a = minimalize(ring, [tuple(rng.randint(0, 5) for _ in range(d))
                              for _ in range(rng.randint(1, 4))])
        c = integral_closure(a)
        assert a.is_subideal_of(c)
        assert integral_closure(c) == c
