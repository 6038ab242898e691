"""Campaign runner determinism and sanity."""

import inspect
import json
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import add, le

import pytest

from tauideal import campaigns
from tauideal.campaigns import (
    CAMPAIGNS,
    brute_force_colon,
    jsonable,
    random_monomial_ideal,
    run_campaign,
    run_crosscheck,
    vertex_reduction,
)
from tauideal.errors import InputError, RingMismatchError, UnsupportedRingError
from tauideal.ideals import MonomialIdeal, colon, minimalize, unit_ideal, zero_ideal
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


@pytest.mark.parametrize("name", ["nonesuch", ["veronese"], {"veronese": 1}],
                         ids=["str", "list", "dict"])
def test_unknown_campaign_rejected(name):
    # an unhashable name raised a bare TypeError from the table lookup
    with pytest.raises(InputError):
        run_campaign(name)


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


@pytest.mark.parametrize("seed", [None, 1.5, "0", True])
@pytest.mark.parametrize("name", ["tau_times_ideal", "regular_powers"])
def test_a_seed_that_is_not_an_int_is_refused(name, seed):
    # Random(None) seeds from the OS and Random(1.5) hashes, so a record
    # carrying such a seed would not replay
    with pytest.raises(InputError, match="seed must be an int"):
        run_campaign(name, seed=seed)


@pytest.mark.parametrize("name", sorted(set(CAMPAIGNS) - set(FIXED)))
def test_every_seeded_failure_record_replays(monkeypatch, name):
    # every instance is recorded as a failure, and each record alone names
    # the run whose last instance it is
    record = campaigns.CampaignReport.record
    monkeypatch.setattr(campaigns.CampaignReport, "record",
                        lambda rep, ok, replay: record(rep, False, replay))
    for seed in range(3):
        failures = run_campaign(name, seed=seed, count=8).failures
        assert len(failures) == 8
        for f in failures:
            assert list(f)[:3] == ["seed", "index", "d"]
            assert run_campaign(name, seed=f["seed"], count=f["index"] + 1).failures[-1] == f


def test_campaign_records_are_json_ready_as_recorded(monkeypatch):
    # every record, failed or inconclusive, is already what ``jsonable``
    # makes of it and survives a JSON round trip unchanged
    record = campaigns.CampaignReport.record
    monkeypatch.setattr(campaigns.CampaignReport, "record",
                        lambda rep, ok, replay: record(rep, False, replay))
    reports = [run_campaign(name, count=None if name in FIXED else 8) for name in CAMPAIGNS]
    assert all(len(rep.failures) == rep.instances > 0 for rep in reports)
    ring = orthant_ring(2)
    cusp = minimalize(ring, [(2, 0), (0, 3)])
    # no admissible q reaches 16 by qmax 8, so the root route is inconclusive
    cross = run_crosscheck(ring, [("cusp", cusp)], [Fraction(5, 6)], qmax=8, primes=(2,))
    assert len(cross.failures) == len(cross.inconclusive) == 1
    for rep in reports + [cross]:
        for r in rep.failures + rep.inconclusive:
            assert json.loads(json.dumps(r)) == r
            assert jsonable(r) == r


def test_only_a_failure_or_an_inconclusive_record_is_made_json_ready(monkeypatch):
    # a passing instance's fields are dropped as they are, so ``jsonable``
    # runs once (counting its outermost calls) per failure or inconclusive
    # record, and a round with no failure runs it not at all
    real, depth, calls = campaigns.jsonable, [0], [0]

    def counted(obj):
        calls[0] += not depth[0]
        depth[0] += 1
        try:
            return real(obj)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(campaigns, "jsonable", counted)
    reports = [run_campaign(name, count=None if name in FIXED else 3) for name in CAMPAIGNS]
    assert all(rep.ok for rep in reports) and sum(rep.instances for rep in reports) > 100
    assert calls[0] == 0
    # both instances pass, and the root route is inconclusive on both
    ring = orthant_ring(2)
    cusp = minimalize(ring, [(2, 0), (0, 3)])
    cross = run_crosscheck(ring, [("cusp", cusp)], [Fraction(5, 6), 1], qmax=8, primes=(2,))
    assert cross.passes == 2 and len(cross.inconclusive) == calls[0] == 2
    record = campaigns.CampaignReport.record
    monkeypatch.setattr(campaigns.CampaignReport, "record",
                        lambda rep, ok, fields: record(rep, False, fields))
    assert len(run_campaign("tau_times_ideal", count=3).failures) == calls[0] - 2 == 3


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


# -- reference: the box enumeration before the bit table ---------------------
# Kept here only to check ``brute_force_colon`` against it.

def reference_brute_force_colon(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Independent colon: box enumeration of monomials m with m*J inside I.

    Orthant rings only: elsewhere the members need not lie in the box.  On
    the orthant x^h divides x^v iff h <= v componentwise, so m is a member
    iff every m + g, g a generator of J, is above some generator of I."""
    ring = I.ring
    if not ring.is_orthant():
        raise UnsupportedRingError("brute_force_colon needs an orthant ring")
    hi = [max((g[k] for g in I.gens), default=0) for k in range(ring.d)]
    members = [
        m
        for m in product(*(range(h + 1) for h in hi))
        if all(
            any(all(map(le, h, map(add, m, g))) for h in I.gens)
            for g in J.gens
        )
    ]
    return minimalize(ring, members)


# the largest exponent of I's generators in each rank, which sizes the box
# the reference enumerates
BOX_EXPONENT = {1: 9, 2: 6, 3: 4, 4: 3}
HUGE = 10**9


def _orthant_ideal(rng, ring, top, kinds: Counter, huge=False):
    """The zero or the unit ideal, each one time in eight, or up to 4
    generators with exponents <= top, on half of the other draws, when
    ``huge``, with some exponents as large as HUGE."""
    kind = rng.choice(["zero", "unit", *["gens", "huge" if huge else "gens"] * 3])
    kinds[kind] += 1
    if kind == "zero":
        return zero_ideal(ring)
    if kind == "unit":
        return unit_ideal(ring)
    high = HUGE if kind == "huge" else top
    return minimalize(ring, [
        tuple(rng.randint(0, high if rng.random() < 0.3 else top) for _ in range(ring.d))
        for _ in range(rng.randint(1, 4))
    ])


def test_brute_force_colon_matches_the_reference_and_colon_on_orthant_pairs():
    rng = Random(4949)
    seen = {"I": Counter(), "J": Counter(), "answer": Counter()}
    for i in range(2000):
        ring = orthant_ring(i % 4 + 1)
        top = BOX_EXPONENT[ring.d]
        a = _orthant_ideal(rng, ring, top, seen["I"])
        b = _orthant_ideal(rng, ring, top // 2 + 1, seen["J"], huge=True)
        got = brute_force_colon(a, b)
        assert got == reference_brute_force_colon(a, b), (a.gens, b.gens)
        assert got == colon(a, b), (a.gens, b.gens)
        seen["answer"][got.is_zero() or got.is_unit() or got == a] += 1
    assert min(seen["I"].values()) >= 200 and len(seen["I"]) == 3, seen
    assert min(seen["J"].values()) >= 200 and len(seen["J"]) == 4, seen
    assert seen["answer"][False] >= 500, seen


def test_brute_force_colon_hands_minimalize_only_the_minimal_members(monkeypatch):
    # the members form an up-set of the box, and only its minimal points,
    # read off the bit table, go to ``minimalize``: each is a generator
    handed = []
    real = campaigns.idl.minimalize
    monkeypatch.setattr(campaigns.idl, "minimalize",
                        lambda ring, raw: handed.append(sorted(raw)) or real(ring, raw))
    rng = Random(5050)
    kinds = Counter()
    for i in range(400):
        ring = orthant_ring(i % 4 + 1)
        top = BOX_EXPONENT[ring.d]
        a = _orthant_ideal(rng, ring, top, kinds)
        b = _orthant_ideal(rng, ring, top // 2 + 1, kinds, huge=True)
        del handed[:]
        got = brute_force_colon(a, b)
        assert handed == [list(got.gens)], (a.gens, b.gens)
        assert got == reference_brute_force_colon(a, b), (a.gens, b.gens)
    assert kinds["gens"] >= 200, kinds


def test_brute_force_colon_refuses_ideals_of_two_rings():
    # unchecked, ``map`` cuts the longer generators to the shorter rank and
    # answers ((0, 1), (1, 0)) for the first pair; ``colon`` refuses both
    a = minimalize(orthant_ring(2), [(1, 0), (0, 1)])
    b = minimalize(orthant_ring(3), [(1, 0, 0)])
    for x, y in ((a, b), (b, a)):
        with pytest.raises(RingMismatchError):
            colon(x, y)
        with pytest.raises(RingMismatchError):
            brute_force_colon(x, y)


@pytest.mark.parametrize("bad", [None, 3, ((1, 0),)], ids=["None", "int", "tuple"])
def test_brute_force_colon_refuses_what_is_not_an_ideal(bad):
    # only package errors leave the library; unchecked, a non-ideal raises
    # AttributeError
    a = minimalize(orthant_ring(2), [(1, 0), (0, 1)])
    for x, y in ((a, bad), (bad, a)):
        with pytest.raises(InputError):
            brute_force_colon(x, y)


def test_vertex_reduction_refuses_an_ideal_of_another_ring():
    # the ideal's rows are its generators' ray coordinates in k[x, y],
    # (3, 1) and (1, 3); in the ring of cone((1, 0), (1, 2)) those
    # generators have (1, 7) and (3, 5), so a reduction carrying the old
    # rows into it is a corrupted ideal there
    ring = toric_ring([(1, 0), (1, 2)])
    a = minimalize(orthant_ring(2), [(3, 1), (1, 3), (2, 2)])
    with pytest.raises(InputError):
        vertex_reduction(ring, a)
    with pytest.raises(InputError):
        vertex_reduction(ring, a.gens)
    assert vertex_reduction(a.ring, a).gens == ((1, 3), (3, 1))


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


def test_crosscheck_checks_its_primes_and_qmax_before_any_instance():
    # with no (ideal, t) to run, a bad prime or qmax is refused all the same
    ring = orthant_ring(2)
    a = minimalize(ring, [(1, 0), (0, 1)])
    for ideals, ts, qmax, primes in (
        ([], [1], 128, ["x", 0]),
        ([("A", a)], [], -5, [0]),
        ([("A", a)], [], 128, [2, 4]),
        ([], [], 2, [2, 3]),
    ):
        with pytest.raises(InputError):
            run_crosscheck(ring, ideals, ts, qmax=qmax, primes=primes)


def test_crosscheck_orthant_agreement():
    ring = orthant_ring(2)
    cusp = minimalize(ring, [(2, 0), (0, 3)])
    rep = run_crosscheck(ring, [("cusp", cusp)], ["5/6", 1], qmax=128)
    assert rep.instances == rep.passes == 2
    assert not rep.failures


# (x^6, x^3 y^2, y^5): every route agrees at t = 1 and 3/2 with qmax 16 and
# primes (2, 3), and the two socle oracles compile tau's pairs
CROSS_RING = orthant_ring(2)
CROSS_IDEAL = minimalize(CROSS_RING, [(6, 0), (3, 2), (0, 5)])


def _cross(t):
    return run_crosscheck(CROSS_RING, [("a", CROSS_IDEAL)], [t], qmax=16, primes=(2, 3))


def test_crosscheck_builds_one_polyhedron_and_one_enumeration_per_ideal(monkeypatch):
    counts = Counter()
    sites = [(sys.modules[f"tauideal.{m}"], "newton_polyhedron") for m in ("tau", "frobenius")]
    sites.append((sys.modules["tauideal.enumeration"], "minimal_upset_generators"))
    for module, name in sites:
        real = getattr(module, name)

        def counted(*args, real=real, name=name, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    rep = _cross(1)
    assert rep.instances == rep.passes == 1 and not rep.inconclusive
    # tau and the oracles at p = 2 and 3: three of each without the block
    assert counts == {"newton_polyhedron": 1, "minimal_upset_generators": 1}
    # nothing outlives a block, so a second call builds again
    assert _cross(1).ok
    assert counts == {"newton_polyhedron": 2, "minimal_upset_generators": 2}


@pytest.mark.parametrize("fault", ["socle", "tau"])
def test_crosscheck_catches_a_route_fault_planted_under_sharing(monkeypatch, fault):
    # the faulty routes' answers change on this instance and the others keep
    # theirs: each route compiles its own pairs inside the sharing block
    t = Fraction(3, 2)
    assert _cross(t).ok
    sound = [list(g) for g in campaigns.tau(CROSS_RING, CROSS_IDEAL, t).gens]
    if fault == "socle":
        frobenius = sys.modules["tauideal.frobenius"]
        real = frobenius._corner_inequalities
        monkeypatch.setattr(
            frobenius, "_corner_inequalities",
            lambda ring, tP, q: [(x, ineqs[:-1]) for x, ineqs in real(ring, tP, q)],
        )
        faulty = {"socle_p2", "socle_p3"}
    else:
        tau_module = sys.modules["tauideal.tau"]
        real = tau_module._compile
        monkeypatch.setattr(
            tau_module, "_compile",
            lambda P, shift, den, strict: real(P, shift, den, False),
        )
        faulty = {"polyhedral"}
    rep = _cross(t)
    assert rep.instances == 1 and rep.passes == 0 and not rep.inconclusive
    replay = rep.failures[0]
    changed = {r for r in ("polyhedral", "socle_p2", "socle_p3", "root") if replay[r] != sound}
    assert changed == faulty
