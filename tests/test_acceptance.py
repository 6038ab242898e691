"""Acceptance suite: one test per criterion, exact equality, wall-clock caps.

Each test prints a single CRITERION line so a log scrape shows the verdict
per criterion.  All equalities are exact; there are no tolerances.
"""

import time
from fractions import Fraction
from random import Random

from tauideal.campaigns import (
    brute_force_colon,
    random_monomial_ideal,
    run_campaign,
    vertex_reduction,
)
from tauideal.errors import NotStabilizedError
from tauideal.frobenius import (
    STATUS_FAILS,
    STATUS_HOLDS,
    frobenius_root_tau_oracle,
    tau_socle_oracle,
    tight_closure_member_at_q,
    tight_integral_closure_at_q,
)
from tauideal.ideals import (
    colon,
    ideal_sum,
    integral_closure,
    maximal_ideal,
    minimalize,
    multiply,
    power,
    unit_ideal,
)
from tauideal.lattice import orthant_ring
from tauideal.tau import (
    tau,
    tau_is_unit,
    tau_veronese,
    veronese_maximal_ideal,
    veronese_ring,
)


class timed:
    def __init__(self, number, label, limit_s):
        self.number, self.label, self.limit = number, label, limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.monotonic() - self.t0
        status = "PASS" if exc_type is None and dt <= self.limit else "FAIL"
        print(f"CRITERION {self.number:2d} [{status}] {self.label} "
              f"({dt:.2f}s / limit {self.limit}s)")
        if exc_type is None:
            assert dt <= self.limit, (
                f"criterion {self.number} exceeded {self.limit}s: {dt:.2f}s"
            )
        return False


def test_criterion_01_regular_powers():
    with timed(1, "regular powers tau(m^n) = m^(n-d+1)", 10):
        for d in range(1, 6):
            ring = orthant_ring(d)
            m = maximal_ideal(ring)
            for n in range(1, 9):
                assert tau(ring, power(m, n), 1) == power(m, max(n - d + 1, 0))


def test_criterion_02_veronese():
    with timed(2, "Veronese closed form on the adapted toric model", 30):
        for d, r in ((2, 2), (2, 3), (3, 2)):
            ring = veronese_ring(d, r)
            m = veronese_maximal_ideal(ring, d, r)
            for l in range(1, 6):
                e = tau_veronese(d, r, l)
                want = power(m, e) if e > 0 else unit_ideal(ring)
                assert tau(ring, power(m, l), 1) == want


def test_criterion_03_oracle_concordance():
    with timed(3, "polyhedral vs socle (p=2,3) vs root on 150 instances", 300):
        rng = Random(2024)
        ts = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
        inconclusive = 0
        for i in range(150):
            d = rng.choice([1, 2, 3])
            ring = orthant_ring(d)
            a = random_monomial_ideal(rng, ring, max_exp=6)
            t = ts[i % 3]
            reference = tau(ring, a, t)
            for p in (2, 3):
                assert tau_socle_oracle(ring, a, t, 128, p).ideal == reference
            try:
                assert frobenius_root_tau_oracle(ring, a, t, 128) == reference
            except NotStabilizedError:
                inconclusive += 1
        assert inconclusive < 150 * 0.05


def test_criterion_04_briancon_skoda():
    with timed(4, "Briancon-Skoda tau(a^(n+r-1)) in a^n, 100 instances", 60):
        rng = Random(77)
        for _ in range(100):
            d = rng.choice([1, 2, 3])
            ring = orthant_ring(d)
            a = random_monomial_ideal(rng, ring, max_gens=4, max_exp=4)
            r = len(a.gens)
            for n in range(0, 4):
                rhs = power(a, n)
                if rhs.is_unit():
                    continue
                assert tau(ring, power(a, n + r - 1), 1).is_subideal_of(rhs)


def test_criterion_05_subadditivity_and_restriction():
    with timed(5, "subadditivity and restriction, 100 pairs each", 120):
        sub = run_campaign("subadditivity", seed=101, count=100)
        res = run_campaign("restriction", seed=103, count=100)
        assert sub.ok, sub.failures[:1]
        assert res.ok, res.failures[:1]


def test_criterion_06_colon_formula():
    with timed(6, "colon formula vs brute force, d in {2,3}, l <= 4", 30):
        for d in (2, 3):
            ring = orthant_ring(d)
            J = maximal_ideal(ring)
            for l in range(1, 5):
                Jl = minimalize(
                    ring,
                    [tuple(l if i == j else 0 for j in range(d))
                     for i in range(d)],
                )
                for r in range(1, d * l - d + 2):
                    got = colon(Jl, power(J, r))
                    want = ideal_sum(power(J, max(d * l - r - d + 1, 0)), Jl)
                    assert got == want
                    assert got == brute_force_colon(Jl, power(J, r))


def test_criterion_07_regularity_echo():
    with timed(7, "tau(m^(d-1)) unit; xy outside (x^2,y^2)^*m with witness", 60):
        for d in range(2, 6):
            ring = orthant_ring(d)
            assert tau_is_unit(ring, power(maximal_ideal(ring), d - 1), 1)
        ring = orthant_ring(2)
        verdict = tight_closure_member_at_q(
            minimalize(ring, [(2, 0), (0, 2)]), maximal_ideal(ring), 1, (1, 1),
            qmax=128, cbox=6,
        )
        assert verdict.status == STATUS_FAILS
        assert all(q is not None for _, q in verdict.witness)


def test_criterion_08_scaling_laws():
    with timed(8, "power/monotonicity/reduction/tau*b laws, random suite", 120):
        rng = Random(88)
        ts = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
        for _ in range(40):
            d = rng.choice([1, 2, 3])
            ring = orthant_ring(d)
            a = random_monomial_ideal(rng, ring, max_exp=4)
            b = random_monomial_ideal(rng, ring, max_exp=4)
            n = rng.randint(2, 4)
            t = rng.choice(ts)
            # power compatibility
            assert tau(ring, power(a, n), t) == tau(ring, a, n * t)
            # t-monotonicity
            taus = [tau(ring, a, s) for s in sorted(ts)]
            for small, big in zip(taus[1:], taus[:-1]):
                assert small.is_subideal_of(big)
            # a-monotonicity
            assert tau(ring, a, 1).is_subideal_of(tau(ring, ideal_sum(a, b), 1))
            # reduction invariance via the vertex generators
            red = vertex_reduction(ring, a)
            assert integral_closure(red) == integral_closure(a)
            assert tau(ring, red, t) == tau(ring, a, t)
            # tau(a) * b inside tau(a*b)
            assert (multiply(tau(ring, a, 1), b)).is_subideal_of(
                tau(ring, multiply(a, b), 1)
            )


def test_criterion_09_jumping_thresholds():
    with timed(9, "jumping thresholds of (x^2,y^3) at t = 1/3, 5/6, 1", 5):
        ring = orthant_ring(2)
        a = minimalize(ring, [(2, 0), (0, 3)])
        assert tau(ring, a, Fraction(1, 3)).is_unit()
        t_minus = tau(ring, a, Fraction(5, 6) - Fraction(1, 10 ** 9))
        assert t_minus.is_unit()
        assert tau(ring, a, Fraction(5, 6)).gens == ((0, 1), (1, 0))
        assert tau(ring, a, 1).gens == ((0, 1), (1, 0))


def test_criterion_10_tight_integral_closure():
    with timed(10, "tight integral closure vs star verdicts, degree <= 6", 60):
        ring = orthant_ring(2)
        J = maximal_ideal(ring)
        Jl = minimalize(ring, [(2, 0), (0, 2)])
        fam = [power(J, 3), minimalize(ring, [(2, 0)]),
               minimalize(ring, [(0, 2)])]
        for total in range(0, 7):
            for x in range(total + 1):
                z = (x, total - x)
                tic = tight_integral_closure_at_q(fam, z, qmax=128, cbox=6)
                star = tight_closure_member_at_q(Jl, J, 1, z, qmax=128, cbox=6)
                assert (tic.status == STATUS_HOLDS) == (
                    star.status == STATUS_HOLDS
                )
