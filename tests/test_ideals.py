"""Monomial ideal arithmetic."""

import os
import subprocess
import sys
from collections import Counter
from itertools import product
from random import Random

import pytest

from tauideal.errors import (
    DimensionMismatchError,
    InputError,
    TauIdealError,
    RingMismatchError,
    SemigroupMembershipError,
    UnsupportedRingError,
)
import tauideal
from tauideal.enumeration import lattice_points_upto
from tauideal.ideals import (
    MonomialIdeal,
    bracket_power,
    colon,
    frobenius_root,
    ideal_sum,
    integral_closure,
    intersect,
    kill_variable,
    minimal_vectors_orthant,
    minimalize,
    multiply,
    power,
    unit_ideal,
    zero_ideal,
)
from tauideal.lattice import orthant_ring, toric_ring, vec_sub
from tauideal.tau import veronese_ring


R2 = orthant_ring(2)
R3 = orthant_ring(3)


def I(*gens, ring=R2):
    return minimalize(ring, list(gens))


def test_minimalize_drops_divisible_generators():
    assert I((2, 0), (1, 0)).gens == ((1, 0),)


def test_minimalize_keeps_antichain():
    assert I((2, 0), (0, 3), (1, 2)).gens == ((0, 3), (1, 2), (2, 0))


def test_minimal_vectors_large_sets_match_pairwise_definition():
    # above 400 vectors the comparison runs in numpy, unless an entry is too
    # large for int64
    rng = Random(47)
    for offset in (0, 2**63):
        vecs = [(offset + rng.randint(0, 40), rng.randint(0, 40),
                 rng.randint(0, 40)) for _ in range(600)]
        want = sorted(v for v in set(vecs) if not any(
            k != v and all(a <= b for a, b in zip(k, v)) for k in vecs))
        assert sorted(minimal_vectors_orthant(vecs)) == want


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
        minimal = minimal_vectors_orthant(gens)
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


def test_minimalize_matches_pairwise_reference():
    rings = [orthant_ring(d) for d in range(1, 5)] + [
        veronese_ring(2, 2), veronese_ring(3, 2), veronese_ring(2, 3),
        toric_ring([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
        toric_ring([(0, 1), (5, -2)]),
        toric_ring([(1, 0), (1, 2)]),
    ]
    rng = Random(808)
    seen = Counter()
    for ring in rings:
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
        # a set large enough for the numpy comparison, where the ring has one
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
    for op in (intersect, colon):
        with pytest.raises(UnsupportedRingError):
            op(a, a)
    with pytest.raises(UnsupportedRingError):
        frobenius_root(a, 2)


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
    rng = Random(37)
    for _ in range(25):
        d = rng.choice([2, 3])
        ring = orthant_ring(d)
        a = minimalize(ring, [tuple(rng.randint(0, 5) for _ in range(d))
                              for _ in range(rng.randint(1, 4))])
        b = minimalize(ring, [tuple(rng.randint(0, 5) for _ in range(d))
                              for _ in range(rng.randint(1, 4))])
        q = colon(a, b)
        assert multiply(q, b).is_subideal_of(a)


def test_colon_degenerate_arguments():
    a = I((2, 1))
    assert colon(a, zero_ideal(R2)).is_unit()
    assert colon(zero_ideal(R2), a).is_zero()


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
