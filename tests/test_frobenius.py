"""Finite-q Frobenius oracles against the polyhedral engine."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from tauideal.errors import InputError, UnsupportedRingError
from tauideal.frobenius import (
    STATUS_FAILS,
    STATUS_HOLDS,
    STATUS_STABILIZED,
    frobenius_root_tau_oracle,
    in_star_E,
    q_sweep,
    socle_piece_vanishes_at_q,
    tau_socle_oracle,
    tight_closure_member_at_q,
    tight_integral_closure_at_q,
)
from tauideal.ideals import minimalize, power
from tauideal.lattice import orthant_ring, toric_ring
from tauideal.tau import tau, veronese_maximal_ideal, veronese_ring


R2 = orthant_ring(2)


def I(*gens, ring=R2):
    return minimalize(ring, list(gens))


def maximal(ring):
    d = ring.d
    return minimalize(
        ring, [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
    )


def test_q_sweep():
    assert q_sweep(128, 2) == [2, 4, 8, 16, 32, 64, 128]
    assert q_sweep(100, 3) == [3, 9, 27, 81]
    with pytest.raises(InputError):
        q_sweep(1, 2)


def test_composite_characteristic_rejected():
    big_prime = 2**61 - 1
    assert q_sweep(big_prime, big_prime) == [big_prime]
    for p in (4, 9, 561, 2**61 + 1, 3215031751):  # 561 is Carmichael
        with pytest.raises(InputError):
            q_sweep(p * p, p)
    for p in (0, 1, 4):
        with pytest.raises(InputError):
            socle_piece_vanishes_at_q(R2, I((1, 0)), 1, (0, 0), 4, p)


def test_socle_piece_vanishing_detects_tau_membership():
    a = I((2, 0), (0, 3))
    want = tau(R2, a, 1)
    for m in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)]:
        u = tuple(-x for x in m)
        vanishes_everywhere = all(
            socle_piece_vanishes_at_q(R2, a, 1, u, q) for q in q_sweep(128, 2)
        )
        assert vanishes_everywhere != want.contains_monomial(m)


def test_in_star_E_verdicts():
    a = I((2, 0), (0, 3))
    # m = (1,1) lies in tau(a) = (x,y), so the socle piece at u = (-1,-1)
    # must be nonempty at some q; m = (0,0) does not, so u = 0 stabilizes
    hit = in_star_E(R2, a, 1, (-1, -1))
    assert hit.status == STATUS_FAILS
    q, wit = hit.witness
    assert q in q_sweep(128, 2) and len(wit) == 2
    miss = in_star_E(R2, a, 1, (0, 0))
    assert miss.status == STATUS_STABILIZED


def test_socle_oracle_matches_polyhedral_orthant():
    rng = Random(59)
    for _ in range(20):
        d = rng.choice([1, 2, 3])
        ring = orthant_ring(d)
        a = minimalize(ring, [tuple(rng.randint(0, 6) for _ in range(d))
                              for _ in range(rng.randint(1, 5))])
        t = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2)])
        for p in (2, 3):
            res = tau_socle_oracle(ring, a, t, qmax=128, p=p)
            assert res.ideal == tau(ring, a, t)


@pytest.mark.parametrize("qmax", [2**64, 2**80])
def test_socle_oracle_beyond_int64(qmax):
    a = I((3, 0), (1, 2), (0, 5))
    t = Fraction(5, 6)
    assert tau_socle_oracle(R2, a, t, qmax=qmax).ideal == tau(R2, a, t)


def test_socle_oracle_top_q_matches_per_q_sweep():
    # the orthant oracle tests only the largest q; in_star_E walks every q
    rng = Random(71)
    for _ in range(16):
        d = rng.choice([2, 3])
        ring = orthant_ring(d)
        a = minimalize(ring, [tuple(rng.randint(0, 5) for _ in range(d))
                              for _ in range(rng.randint(1, 4))])
        t = Fraction(rng.randint(1, 9), rng.randint(1, 6))
        p = rng.choice([2, 3, 5])
        qmax = rng.choice([p, p**2, 16, 81])
        got = tau_socle_oracle(ring, a, t, qmax=qmax, p=p).ideal
        for m in product(range(4), repeat=d):
            u = tuple(-x for x in m)
            swept = in_star_E(ring, a, t, u, qmax=qmax, p=p).status == STATUS_FAILS
            assert got.contains_monomial(m) == swept


def test_socle_oracle_veronese_model():
    ring = veronese_ring(2, 2)
    m = veronese_maximal_ideal(ring, 2, 2)
    for l in (1, 2, 3):
        res = tau_socle_oracle(ring, power(m, l), 1, qmax=64)
        assert res.ideal == tau(ring, power(m, l), 1)


def test_root_oracle_matches_polyhedral():
    from tauideal.errors import NotStabilizedError

    rng = Random(61)
    unstable = 0
    for _ in range(15):
        d = rng.choice([1, 2, 3])
        ring = orthant_ring(d)
        a = minimalize(ring, [tuple(rng.randint(0, 4) for _ in range(d))
                              for _ in range(rng.randint(1, 4))])
        t = rng.choice([Fraction(1, 2), Fraction(1)])
        try:
            got = frobenius_root_tau_oracle(ring, a, t, qmax=128)
        except NotStabilizedError:
            unstable += 1
            continue
        assert got == tau(ring, a, t)
    assert unstable <= 1


def test_root_oracle_refuses_general_rings():
    ring = toric_ring([(1, 0), (1, 2)])
    a = minimalize(ring, [(1, 0)])
    with pytest.raises(UnsupportedRingError):
        frobenius_root_tau_oracle(ring, a, 1)


def test_xy_not_in_tight_closure_of_squares():
    # xy is outside (x^2, y^2)^{*m}: every candidate multiplier fails at some q
    verdict = tight_closure_member_at_q(
        I((2, 0), (0, 2)), maximal(R2), 1, (1, 1), qmax=128, cbox=5
    )
    assert verdict.status == STATUS_FAILS
    assert all(q is not None for _, q in verdict.witness)


def test_tight_closure_obvious_member():
    verdict = tight_closure_member_at_q(
        I((2, 0), (0, 2)), maximal(R2), 1, (2, 0), qmax=128, cbox=2
    )
    assert verdict.status == STATUS_HOLDS


def test_tight_integral_closure_holds_and_fails():
    m = maximal(R2)
    fam = [power(m, 3), I((2, 0)), I((0, 2))]
    assert tight_integral_closure_at_q(fam, (2, 0)).status == STATUS_HOLDS
    assert tight_integral_closure_at_q(fam, (1, 0)).status == STATUS_FAILS


def test_verdict_carries_examined_range():
    v = in_star_E(R2, I((1, 1)), 1, (0, 0), qmax=64, p=3)
    assert v.qmax == 64 and v.p == 3
