"""Campaign runner determinism and sanity."""

import inspect

import pytest

from tauideal import campaigns
from tauideal.campaigns import (
    CAMPAIGNS,
    brute_force_colon,
    random_monomial_ideal,
    run_campaign,
    run_crosscheck,
    vertex_reduction,
)
from tauideal.errors import InputError, UnsupportedRingError
from tauideal.ideals import colon, minimalize
from tauideal.lattice import orthant_ring, toric_ring
from tauideal.tau import veronese_maximal_ideal, veronese_ring

from random import Random


def test_all_campaign_names_present():
    assert sorted(CAMPAIGNS) == [
        "briancon_skoda",
        "bs_integral",
        "colon_formula",
        "power_scaling",
        "reduction_invariance",
        "regular_powers",
        "regularity",
        "restriction",
        "subadditivity",
        "tau_times_ideal",
        "tic_vs_star",
        "veronese",
    ]


def test_unknown_campaign_rejected():
    with pytest.raises(InputError):
        run_campaign("nonesuch")


FIXED = ["bs_integral", "colon_formula", "regular_powers", "regularity",
         "tic_vs_star", "veronese"]


def test_only_the_random_campaigns_take_a_count():
    takes_count = {
        name for name, fn in CAMPAIGNS.items()
        if "count" in inspect.signature(fn).parameters
    }
    assert takes_count == set(CAMPAIGNS) - set(FIXED)


@pytest.mark.parametrize("name", FIXED)
def test_a_campaign_without_a_count_refuses_one(name):
    # each of these ran its whole fixed instance set and ignored the count
    with pytest.raises(InputError, match="takes no count"):
        run_campaign(name, count=1)


def test_campaign_determinism():
    a = run_campaign("subadditivity", seed=5, count=10)
    b = run_campaign("subadditivity", seed=5, count=10)
    assert a.failures == b.failures
    assert (a.instances, a.passes) == (b.instances, b.passes)


def test_seed_changes_instances():
    rng_a = Random(1)
    rng_b = Random(2)
    ring = orthant_ring(2)
    drawn_a = [random_monomial_ideal(rng_a, ring).gens for _ in range(5)]
    drawn_b = [random_monomial_ideal(rng_b, ring).gens for _ in range(5)]
    assert drawn_a != drawn_b


def test_report_invariant_failures_iff_not_all_pass():
    rep = run_campaign("briancon_skoda", seed=3, count=12)
    assert (not rep.failures) == (rep.passes == rep.instances)
    assert rep.ok


def test_brute_force_colon_agrees_with_colon():
    rng = Random(67)
    ring = orthant_ring(2)
    for _ in range(10):
        a = random_monomial_ideal(rng, ring, max_exp=4)
        b = random_monomial_ideal(rng, ring, max_exp=4)
        assert brute_force_colon(a, b) == colon(a, b)


def test_brute_force_colon_refuses_general_rings():
    # the box [0, max g_k] misses members off the orthant: here (I : J) is
    # ((4, -1), (5, -2)), and the box holds none of its members
    ring = toric_ring([(1, 0), (1, 2)])
    a = minimalize(ring, [(4, -1)])
    b = minimalize(ring, [(0, 2), (3, -1)])
    assert colon(a, b).gens == ((4, -1), (5, -2))
    with pytest.raises(UnsupportedRingError):
        brute_force_colon(a, b)


def test_vertex_reduction_is_subideal():
    rng = Random(71)
    ring = orthant_ring(3)
    for _ in range(10):
        a = random_monomial_ideal(rng, ring)
        b = vertex_reduction(ring, a)
        assert not b.is_zero()
        assert b.is_subideal_of(a)


def test_vertex_reduction_keeps_exactly_the_vertex_generators():
    # (1, 1) lies on the segment from (2, 0) to (0, 2), so it is no vertex;
    # (1, 2) lies below the segment from (4, 0) to (0, 5), so it is one
    ring = orthant_ring(2)
    a = minimalize(ring, [(2, 0), (1, 1), (0, 2), (3, 0)])
    assert vertex_reduction(ring, a).gens == ((0, 2), (2, 0))
    b = minimalize(ring, [(4, 0), (1, 2), (0, 5)])
    assert vertex_reduction(ring, b) == b


def _counting_root_oracle(monkeypatch):
    """Wrap the crosscheck's root oracle; the list records each call's p."""
    real = campaigns.frobenius_root_tau_oracle
    primes = []

    def counted(ring, a, t, qmax, p=2):
        primes.append(p)
        return real(ring, a, t, qmax, p)

    monkeypatch.setattr(campaigns, "frobenius_root_tau_oracle", counted)
    return primes


def test_crosscheck_runs_root_on_general_rings(monkeypatch):
    primes = _counting_root_oracle(monkeypatch)
    ring = toric_ring([(1, 0), (1, 2)])
    m = minimalize(ring, [(1, 0), (1, 1), (1, 2)])
    rep = run_crosscheck(ring, [("m", m)], [1], qmax=64)
    assert rep.instances == rep.passes == 1
    assert not rep.failures and not rep.inconclusive
    assert primes == [2]


def test_crosscheck_runs_root_at_the_first_prime_unless_it_divides_the_index(monkeypatch):
    primes = _counting_root_oracle(monkeypatch)
    ring = veronese_ring(3, 2)  # Gorenstein index 2
    m = veronese_maximal_ideal(ring, 3, 2)
    rep = run_crosscheck(ring, [("m", m)], [1], qmax=16, primes=(2,))
    assert rep.ok and primes == []
    rep = run_crosscheck(ring, [("m", m)], [1], qmax=27, primes=(3, 2))
    assert rep.ok and not rep.inconclusive and primes == [3]
    with pytest.raises(InputError):
        run_crosscheck(ring, [("m", m)], [1], primes=())


def test_crosscheck_orthant_agreement():
    ring = orthant_ring(2)
    cusp = minimalize(ring, [(2, 0), (0, 3)])
    rep = run_crosscheck(ring, [("cusp", cusp)], ["5/6", 1], qmax=128)
    assert rep.instances == rep.passes == 2
    assert not rep.failures
