"""Finite-q Frobenius oracles against the polyhedral engine."""

import json
import math
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import tauideal.campaigns
import tauideal.enumeration as enumeration
import tauideal.frobenius
from tauideal.campaigns import run_campaign, run_crosscheck
from tauideal.cli import main
from tauideal.enumeration import (
    degree_bound, lattice_points_upto, least_offsets, minimal_upset_generators,
    sharing, upset_union,
)
from tauideal.errors import (
    DimensionMismatchError,
    InputError,
    InvariantError,
    NotStabilizedError,
    RingMismatchError,
    TauIdealError,
    UnsupportedRingError,
)
from tauideal.frobenius import (
    STATUS_FAILS,
    STATUS_HOLDS,
    STATUS_STABILIZED,
    Verdict,
    _socle_corners,
    frobenius_root_tau_oracle,
    in_star_E,
    q_sweep,
    socle_piece_vanishes_at_q,
    tau_socle_oracle,
    tight_closure_member_at_q,
    tight_closure_members_at_q,
    tight_integral_closure_at_q,
    tight_integral_closure_members_at_q,
)
from tauideal.ideals import (
    MonomialIdeal, _ray_coords, bracket_power, integral_closure, kill_variable, maximal_ideal,
    minimalize, multiply, power, trace_root, unit_ideal,
)
from tauideal.lattice import (
    ToricRing, orthant_ring, pairing, toric_ring, vec_add, vec_neg, vec_scale, vec_sub,
)
from tauideal.polyhedra import NewtonPolyhedron, lattice_inequalities, newton_polyhedron, scale
from tauideal.tau import tau, tau_is_unit, veronese_maximal_ideal, veronese_ring

from rings import TEST_RINGS


R2 = orthant_ring(2)


def I(*gens, ring=R2):
    return minimalize(ring, list(gens))


# Gorenstein indices 1, 3 and 5, then two 3-D cones (one not simplicial)
VERONESE_22 = veronese_ring(2, 2)
VERONESE_23 = veronese_ring(2, 3)
INDEX_5 = toric_ring([(0, 1), (5, -2)])
VERONESE_32 = veronese_ring(3, 2)
SQUARE_CONE = toric_ring([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])


def low_points(ring):
    """The first 12 lattice points of sigma_dual in (degree, lex) order."""
    return lattice_points_upto(ring, 12)[:12]


# -- reference: the box scan the socle oracle used before the corner test ----
# It enumerates a box of about q^d lattice points around (q-1)*w - sigma_dual
# and tests each one; kept here only to check the corner test against it.

def _independent_rows(rows, d):
    from tauideal.lattice import matrix_rank

    chosen = []
    for r in rows:
        if matrix_rank(chosen + [r]) > len(chosen):
            chosen.append(r)
            if len(chosen) == d:
                return chosen
    raise UnsupportedRingError("cone generators do not span")  # pragma: no cover


def _invert(rows):
    d = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(d)]
           for i, row in enumerate(rows)]
    for col in range(d):
        piv = next(i for i in range(col, d) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(d):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[d:] for row in aug]


def _socle_witness_general(ring: ToricRing, tP: NewtonPolyhedron, u, q: int):
    d = ring.d
    gens_n = list(ring.sigma.rays)
    # bounds on the pairings <x, n_i>: upper q-1, lower from the vertices
    lows = {}
    for n in gens_n:
        mv = min(pairing(v, n) for v in tP.vertices)
        lows[n] = q * (pairing(u, n) + mv)
    base = _independent_rows(gens_n, d)
    inv = _invert(base)  # columns map pairing values back to coordinates
    box = []
    for k in range(d):
        lo = hi = Fraction(0)
        for i, n in enumerate(base):
            coeff = inv[k][i]
            a, b = coeff * lows[n], coeff * Fraction(q - 1)
            lo += min(a, b)
            hi += max(a, b)
        box.append((math.floor(lo), math.ceil(hi)))
    qu = vec_scale(q, u)
    for x in product(*(range(lo, hi + 1) for lo, hi in box)):
        if any(pairing(x, n) > q - 1 for n in gens_n):
            continue
        pt = tuple(Fraction(xi - qi, q) for xi, qi in zip(x, qu))
        if tP.contains(pt, strict=False):
            return x
    return None


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


def test_primality_is_proven_or_refused():
    # a strong pseudoprime to every prime base up to 37
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    with pytest.raises(InputError, match="not prime"):
        q_sweep(psi12, psi12)
    # the least strong pseudoprime to the bases up to 41: past the proven range
    psi13 = 3317044064679887385961981
    with pytest.raises(InputError, match="cannot prove"):
        q_sweep(psi13, psi13)
    # a Mersenne prime above the bound is refused, not answered unproven
    with pytest.raises(InputError, match="cannot prove"):
        q_sweep(2**89 - 1, 2**89 - 1)
    assert q_sweep(2**80, 2) == [2**e for e in range(1, 81)]
    assert q_sweep(2**61 - 1, 2**61 - 1) == [2**61 - 1]


def test_non_int_scalars_are_input_errors_and_poison_no_cache():
    # a float q equal to an int once keyed the corner cache as that int, so
    # every later valid socle call in the process read float offsets
    m = I((1, 0), (0, 1))
    tauideal.frobenius._socle_corners.cache_clear()
    with pytest.raises(InputError, match="q must be an int"):
        socle_piece_vanishes_at_q(R2, m, 1, (0, 0), 4.0)
    assert tau_socle_oracle(R2, m, 1, qmax=16).ideal == tau(R2, m, 1)
    bad = [
        lambda: socle_piece_vanishes_at_q(R2, m, 1, (0, 0), 4, 2.0),
        lambda: q_sweep(16.0, 2),
        lambda: power(m, 2.0),
        lambda: m ** 1.5,
        lambda: power(m, True),
        lambda: in_star_E(R2, m, 1, (0, 0), p=2.0),
        lambda: in_star_E(R2, m, 1, (0, 0), qmax=Fraction(16)),
        lambda: tau_socle_oracle(R2, m, 1, qmax=16.0),
        lambda: frobenius_root_tau_oracle(R2, m, 1, qmax=16.5),
        lambda: tight_closure_member_at_q(m, m, 1, (1, 1), cbox=1.5),
        lambda: tight_integral_closure_at_q([m], (1, 1), cbox=2.0),
        lambda: kill_variable(m, 0.0),
        lambda: run_campaign("subadditivity", count=2.5),
        lambda: bracket_power(m, 2.5),
        lambda: trace_root(power(m, 3), 2.0),
    ]
    for call in bad:
        with pytest.raises(InputError, match="must be an int"):
            call()
    assert tau_socle_oracle(R2, m, 1, qmax=16).ideal == tau(R2, m, 1)


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
    m = veronese_maximal_ideal(VERONESE_22, 2, 2)
    assert tau_socle_oracle(VERONESE_22, m, 1, qmax=qmax).ideal == tau(VERONESE_22, m, 1)


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
    # on rings of Gorenstein index 3 and 5 the corners change with q mod r
    for ring in (VERONESE_23, INDEX_5):
        m_ideal = minimalize(ring, ring.sigma_dual.rays)
        for a, t, p, qmax in [(m_ideal, Fraction(1, 2), 2, 32),
                              (power(m_ideal, 2), Fraction(2, 3), 3, 27)]:
            got = tau_socle_oracle(ring, a, t, qmax=qmax, p=p).ideal
            for m in low_points(ring):
                u = tuple(-x for x in m)
                swept = in_star_E(ring, a, t, u, qmax=qmax, p=p).status == STATUS_FAILS
                assert got.contains_monomial(m) == swept


@pytest.mark.parametrize("ring, qs", [
    (VERONESE_22, (2, 3, 4, 8, 9, 16, 27, 32)),
    (VERONESE_23, (2, 3, 4, 8, 9, 16, 27, 32)),
    (INDEX_5, (2, 3, 4, 8, 9, 16, 27, 32)),
    (VERONESE_32, (2, 3, 4)),
    (SQUARE_CONE, (2, 3, 4)),
])
def test_corner_witness_matches_box_scan(ring, qs):
    m_ideal = minimalize(ring, ring.sigma_dual.rays)
    seen = set()
    for a in (m_ideal, power(m_ideal, 2)):
        for t in (Fraction(1, 2), Fraction(1)):
            tP = scale(newton_polyhedron(ring, a.gens), t)
            for q in qs:
                p = 2 if q % 2 == 0 else 3
                for m in low_points(ring):
                    u = tuple(-x for x in m)
                    want = _socle_witness_general(ring, tP, u, q) is not None
                    got = not socle_piece_vanishes_at_q(ring, a, t, u, q, p)
                    assert got == want, (a.gens, t, q, m)
                    seen.add(want)
    assert seen == {True, False}


@pytest.mark.parametrize("ring", [VERONESE_23, INDEX_5], ids=["veronese23", "index5"])
def test_corner_cache_changes_no_answer(ring):
    corners = tauideal.frobenius._socle_corners
    m_ideal = minimalize(ring, ring.sigma_dual.rays)
    ideals = (m_ideal, power(m_ideal, 2))

    def answers():
        out = []
        for q in (2, 3, 4, 8, 9, 16):
            p = 2 if q % 2 == 0 else 3
            out.append(_socle_corners(ring, q))
            out += [tau_socle_oracle(ring, a, t, qmax=q, p=p)
                    for a in ideals for t in (Fraction(1, 2), Fraction(1))]
        return out

    corners.cache_clear()
    cold = answers()
    assert corners.cache_info().misses > 0
    warm = answers()
    assert corners.cache_info().hits > 0
    assert warm == cold
    # and the cached corners are what the uncached function returns
    for q in (2, 3, 4, 8, 9, 16):
        assert corners(ring, q) == corners.__wrapped__(ring, q)


def _brute_corner_offsets(ring, c):
    """The points of sigma_dual with every ray coordinate >= c that lie
    above no other such point, from a scan up to the proven degree bound,
    in (l, lex) order."""
    pairs = [(n, c) for n in ring.sigma.rays]
    points = lattice_points_upto(ring, degree_bound(ring, pairs))
    members = [y for y in points if all(pairing(y, n) >= c for n in ring.sigma.rays)]
    return tuple(
        y for y in members
        if not any(z != y and ring.in_semigroup(vec_sub(y, z)) for z in members)
    )


@pytest.mark.parametrize(
    "ring", [VERONESE_23, INDEX_5, VERONESE_32], ids=["veronese23", "index5", "veronese32"]
)
def test_corner_offsets_match_a_brute_force_scan(ring):
    for c in range(ring.gorenstein_index):
        assert tauideal.frobenius._corner_offsets(ring, c) == _brute_corner_offsets(ring, c)


@pytest.mark.parametrize("ring, gens, t, u, p, qmax, witness", [
    (INDEX_5, None, Fraction(1, 2), (-1, -2), 2, 32, (2, (0, 0))),
    (INDEX_5, None, Fraction(1, 2), (-1, -1), 2, 32, (2, (0, 0))),
    (INDEX_5, [(1, 0), (2, 5)], Fraction(2, 3), (-1, -2), 2, 32, (4, (1, 1))),
    (VERONESE_23, None, Fraction(1, 2), (0, 0), 3, 27, (9, (5, 8))),
    (VERONESE_32, None, Fraction(1, 2), (-1, 0, -1), 2, 32, (2, (1, 1, 1))),
])
def test_in_star_E_witnesses_are_pinned(ring, gens, t, u, p, qmax, witness):
    # each u is witnessed by more than one corner at that q, and the witness
    # is the first in (l, lex) order of the offsets; on the index-5 ring the
    # lex order of the offsets would give another one
    a = minimalize(ring, ring.sigma_dual.rays if gens is None else gens)
    verdict = in_star_E(ring, a, t, u, qmax=qmax, p=p)
    assert (verdict.status, verdict.witness) == (STATUS_FAILS, witness)


@pytest.mark.parametrize("ring", TEST_RINGS, ids=range(len(TEST_RINGS)))
def test_every_route_gives_the_unit_ideal_at_t_zero(ring):
    unit = unit_ideal(ring)
    for a in (minimalize(ring, ring.sigma_dual.rays), minimalize(ring, low_points(ring)[3:6])):
        assert tau(ring, a, 0) == unit
        assert tau_is_unit(ring, a, 0)
        for p in (2, 3):
            assert tau_socle_oracle(ring, a, 0, qmax=p**3, p=p).ideal == unit
            if ring.gorenstein_index % p:
                # two admissible q, the larger at least 16, on every ring here
                assert frobenius_root_tau_oracle(ring, a, 0, qmax=p**8, p=p) == unit
        report = run_crosscheck(ring, [("a", a)], [0], qmax=2**8)
        assert (report.instances, report.passes, report.inconclusive) == (1, 1, [])


@pytest.mark.parametrize("ring", TEST_RINGS, ids=range(len(TEST_RINGS)))
def test_box_pair_sets_match_their_enumeration(ring):
    # P(a) of a principal ideal (x^g) is g + sigma_dual, whose facet normals
    # are sigma's rays, so tau's, the socle corners' and the closure's pair
    # sets are boxes, which upset_union realizes by one lattice point where
    # one exists; each answer must be the enumeration every other set takes
    rays = ring.sigma.rays
    for g in low_points(ring)[:4]:
        a = minimalize(ring, [g])
        P = newton_polyhedron(ring, a.gens)
        unions = [[lattice_inequalities(P)]]
        for t in (0, Fraction(1, 2), 1, Fraction(3, 2)):
            tP = scale(P, t)
            unions.append([lattice_inequalities(tP, ring.w, strict=True)])
            for q in (2, 3, 4, 5):
                unions.append([lattice_inequalities(tP, [Fraction(x, q) for x in c])
                               for c in _socle_corners(ring, q)])
            assert tau(ring, a, t).gens == upset_union(ring, unions[-5])[0]
            assert tau_socle_oracle(ring, a, t, qmax=4).ideal.gens == upset_union(
                ring, unions[-2])[0]
        # the closure's box is rc(m) >= rc(g), realized by g on every ring
        assert integral_closure(a).gens == upset_union(ring, unions[0])[0] == (g,)
        assert upset_union(ring, unions[0])[1] == 0
        for sets in unions:
            assert all(n in rays for ineqs in sets for n, _ in ineqs), sets
            gens, tested = upset_union(ring, sets)
            bound = max(degree_bound(ring, ineqs) for ineqs in sets)
            forced = minimal_upset_generators(ring, least_offsets(ring, sets, bound), bound)
            assert gens == tuple(sorted(forced)), (g, sets)
            if ring.is_orthant():  # a smooth cone realizes every box
                assert tested == 0, (g, sets)


@pytest.mark.parametrize("ring", TEST_RINGS, ids=range(len(TEST_RINGS)))
def test_sharing_returns_what_each_call_computes_alone(ring, monkeypatch):
    # one block per ideal, as in run_crosscheck, with the socle oracle first
    # or tau first: every value equals the one computed outside any block,
    # the socle's points_checked included (INDEX_5 has several corners).
    # Work is counted as up-set kernel runs: a box a lattice point realizes
    # is never enumerated, and on orthant(1) every pair set is such a box
    kernel_runs = []
    real = enumeration.shared
    monkeypatch.setattr(
        enumeration, "shared",
        lambda key, compute: real(key, lambda: kernel_runs.append(key) or compute()),
    )
    rng = Random(1919 + ring.d * len(ring.sigma.rays))
    pool = low_points(ring)[1:]
    requests = [(t, p) for t in (0, Fraction(1, 2), 1, Fraction(3, 2)) for p in (2, 3)]

    def values(a, t, p, socle_first):
        socle = lambda: tau_socle_oracle(ring, a, t, qmax=p**3, p=p)
        if socle_first:
            res = socle()
            got = tau(ring, a, t)
        else:
            got = tau(ring, a, t)
            res = socle()
        return got, res.ideal, res.points_checked, integral_closure(a)

    for _ in range(2):
        a = minimalize(ring, rng.sample(pool, rng.randint(1, 3)))
        kernel_runs.clear()
        alone = [values(a, t, p, False) for t, p in requests]
        built_alone = len(kernel_runs)
        for socle_first in (True, False):
            kernel_runs.clear()
            with sharing():
                shared = [values(a, t, p, socle_first) for t, p in requests]
            assert shared == alone, (a.gens, socle_first)
            # a block shares work: at least the closure, which holds no t
            assert len(kernel_runs) < built_alone


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


# (ring, p, qmax) off the orthant: the admissible q (powers of p that are
# 1 mod the Gorenstein index) reach 16 and a larger q on each
GENERAL_ROOT_CASES = [
    (VERONESE_22, 2, 64), (VERONESE_23, 2, 64), (SQUARE_CONE, 2, 64),
    (toric_ring([(1, 0), (1, 2)]), 2, 64), (INDEX_5, 2, 256), (VERONESE_32, 3, 243),
]


def test_root_oracle_agrees_with_tau_off_the_orthant_and_refuses_p_dividing_the_index():
    rng = Random(67)
    for ring, p, qmax in GENERAL_ROOT_CASES:
        points = lattice_points_upto(ring, 6)[1:]
        stable = 0
        for _ in range(4):
            a = minimalize(ring, rng.sample(points, rng.randint(1, 3)))
            t = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2)])
            try:
                got = frobenius_root_tau_oracle(ring, a, t, qmax, p)
            except NotStabilizedError:
                continue
            stable += 1
            assert got == tau(ring, a, t), (ring.sigma.rays, a.gens, t)
        assert stable >= 3, ring.sigma.rays
    # no power of p is 1 mod an index that p divides
    for ring, p in ((VERONESE_32, 2), (VERONESE_23, 3), (INDEX_5, 5)):
        a = minimalize(ring, lattice_points_upto(ring, 12)[1:2])
        with pytest.raises(UnsupportedRingError):
            frobenius_root_tau_oracle(ring, a, 1, 64, p)


def test_root_oracle_reads_no_newton_facets(monkeypatch):
    # the root route reads ring rays and the multiset floors of a's rows
    # only: with every binding of the facet builders raising, it still runs
    # on every ring, and it starts no ``powers`` chain
    import sys

    def forbidden(*args, **kwargs):
        raise AssertionError("the root oracle read a Newton polyhedron")

    for name, module in list(sys.modules.items()):
        if name == "tauideal" or name.startswith("tauideal."):
            for attr in ("newton_polyhedron", "lattice_inequalities"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    rings = [(ring, 2) for ring in SEARCH_RINGS] + [(orthant_ring(1), 2), (VERONESE_32, 3)]
    calls = Counter()
    _count_powers(monkeypatch, calls)
    for ring, p in rings:
        # a principal ideal and, past d = 1, three generators in one plane
        u, v = lattice_points_upto(ring, 12)[1:3]
        ideals = [minimalize(ring, [u])]
        if ring.d > 1:
            ideals.append(minimalize(ring, [vec_scale(2, u), vec_add(u, v), vec_scale(2, v)]))
        for a in ideals:
            try:
                frobenius_root_tau_oracle(ring, a, Fraction(3, 2), 16 if p == 2 else 27, p)
            except NotStabilizedError:
                pass
    assert calls == Counter()


@st.composite
def _root_route_case(draw):
    """A ring off the orthant, an ideal of up to 3 points of degree <= 4, and
    t, p and qmax for the root oracle."""
    ring = draw(st.sampled_from((
        VERONESE_22, VERONESE_23, VERONESE_32,
        toric_ring([(1, 0), (1, 2)]), INDEX_5, SQUARE_CONE,
    )))
    points = lattice_points_upto(ring, 4)
    a = minimalize(ring, draw(st.lists(st.sampled_from(points), min_size=1, max_size=3)))
    t = draw(st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2))))
    return ring, a, t, draw(st.sampled_from((2, 3))), draw(st.sampled_from((16, 32)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_root_route_case())
def test_root_route_lies_in_tau_or_says_why_not(case):
    # every C_q lies in tau (ROADMAP item 1, "Lower"), so an accepted value
    # does too, plateau or not; no other exception may leave the oracle
    ring, a, t, p, qmax = case
    if ring.gorenstein_index % p == 0:
        with pytest.raises(UnsupportedRingError):
            frobenius_root_tau_oracle(ring, a, t, qmax, p)
        return
    try:
        got = frobenius_root_tau_oracle(ring, a, t, qmax, p)
    except NotStabilizedError:
        return
    assert got.is_subideal_of(tau(ring, a, t)), (ring.sigma.rays, a.gens, t, p, qmax)


def test_xy_not_in_tight_closure_of_squares():
    # xy is outside (x^2, y^2)^{*m}: every candidate multiplier fails at some q
    verdict = tight_closure_member_at_q(
        I((2, 0), (0, 2)), maximal_ideal(R2), 1, (1, 1), qmax=128, cbox=5
    )
    assert verdict.status == STATUS_FAILS
    assert all(q is not None for _, q in verdict.witness)


def test_tight_closure_obvious_member():
    verdict = tight_closure_member_at_q(
        I((2, 0), (0, 2)), maximal_ideal(R2), 1, (2, 0), qmax=128, cbox=2
    )
    assert verdict.status == STATUS_HOLDS


def test_tight_integral_closure_holds_and_fails():
    m = maximal_ideal(R2)
    fam = [power(m, 3), I((2, 0)), I((0, 2))]
    assert tight_integral_closure_at_q(fam, (2, 0)).status == STATUS_HOLDS
    assert tight_integral_closure_at_q(fam, (1, 0)).status == STATUS_FAILS


def test_negative_candidate_box_is_refused_before_any_power(monkeypatch):
    # cbox = -1 leaves no candidate, so a fails_at_q verdict would be a
    # refutation that examined nothing
    def refuse(I, n):
        raise AssertionError("a power was built for an empty candidate box")

    monkeypatch.setattr(tauideal.frobenius, "power", refuse)
    monkeypatch.setattr(tauideal.frobenius, "powers", refuse)
    m = maximal_ideal(R2)
    squares = I((2, 0), (0, 2))
    with pytest.raises(InputError):
        tight_integral_closure_at_q([m], (1, 1), qmax=4, cbox=-1)
    with pytest.raises(InputError):
        tight_closure_member_at_q(squares, m, 1, (1, 1), qmax=4, cbox=-1)
    with pytest.raises(InputError):
        tight_integral_closure_members_at_q([m], [(1, 1), (0, 2)], qmax=4, cbox=-1)
    with pytest.raises(InputError):
        tight_closure_members_at_q(squares, m, 1, [(1, 1), (0, 2)], qmax=4, cbox=-1)
    # a malformed z anywhere in a batch is refused before any power too
    for bad in ((1, 1, 1), (1,), (-1, 0), (1.5, 0), (None, 0)):
        for zs in ([bad, (1, 1)], [(1, 1), (2, 0), bad]):
            with pytest.raises(TauIdealError):
                tight_integral_closure_members_at_q([m], zs, qmax=4, cbox=1)
            with pytest.raises(TauIdealError):
                tight_closure_members_at_q(squares, m, 1, zs, qmax=4, cbox=1)


def test_socle_and_root_entry_points_refuse_an_ideal_of_another_ring():
    # each of these returned an answer for the wrong ring: the unit ideal,
    # an ideal of the rank-3 ring, and fails_at_q
    m2 = maximal_ideal(orthant_ring(2))
    with pytest.raises(InputError):
        tau_socle_oracle(VERONESE_22, m2, 1, qmax=4)
    with pytest.raises(InputError):
        frobenius_root_tau_oracle(R2, maximal_ideal(orthant_ring(3)), 1)
    with pytest.raises(InputError):
        in_star_E(VERONESE_22, m2, 1, (0, 0), qmax=4)
    with pytest.raises(InputError):
        socle_piece_vanishes_at_q(VERONESE_22, m2, 1, (0, 0), 4)


def test_every_tau_route_checks_its_request_with_one_function(monkeypatch):
    # tau, the socle route (and its point probes) and the root route refuse
    # a zero ideal, an ideal of another ring and a bad t alike, through
    # tau._check_request
    m = maximal_ideal(R2)
    routes = [
        lambda ring, a, t: tau(ring, a, t),
        lambda ring, a, t: tau_socle_oracle(ring, a, t, qmax=4),
        lambda ring, a, t: frobenius_root_tau_oracle(ring, a, t),
        lambda ring, a, t: in_star_E(ring, a, t, (0, 0), qmax=4),
        lambda ring, a, t: socle_piece_vanishes_at_q(ring, a, t, (0, 0), 4),
    ]
    bad = [(R2, MonomialIdeal(R2, ()), 1), (VERONESE_22, m, 1), (R2, m, -1), (R2, m, "x")]
    for route in routes:
        for ring, a, t in bad:
            with pytest.raises(InputError):
                route(ring, a, t)
    calls = Counter()

    def counted(ring, a, t, _real=tauideal.frobenius._check_request):
        calls["check"] += 1
        return _real(ring, a, t)

    # the socle routes check through tau._scaled_polyhedron, the root route
    # directly: both bindings count, and each route checks once
    monkeypatch.setattr(sys.modules["tauideal.tau"], "_check_request", counted)
    monkeypatch.setattr(tauideal.frobenius, "_check_request", counted)
    for route in routes[1:]:
        route(R2, m, 1)
    assert calls == {"check": 4}


def test_tight_closure_searches_refuse_mixed_rings_and_wrong_z_length():
    # each of these returned holds_up_to_qmax with witness (0, 0)
    R3 = orthant_ring(3)
    with pytest.raises(RingMismatchError):
        tight_integral_closure_at_q(
            [I((5, 5)), I((0, 0, 7), ring=R3)], (0, 0), qmax=4, cbox=1
        )
    with pytest.raises(RingMismatchError):
        tight_closure_member_at_q(I((2, 0), (0, 2)), maximal_ideal(R3), 1, (1, 1), qmax=4)
    a = I((1, 0), (0, 1))
    with pytest.raises(DimensionMismatchError):
        tight_closure_member_at_q(a, a, 1, (1, 1, 1), qmax=4, cbox=1)
    for z in ((1, 1, 1), (1,)):
        with pytest.raises(DimensionMismatchError):
            tight_integral_closure_at_q([a], z, qmax=4, cbox=1)


# -- reference: the two multiplier searches before they shared one loop ------

def _candidate_box(d: int, cbox: int):
    cands = sorted(product(range(cbox + 1), repeat=d), key=lambda c: (sum(c), c))
    return cands


def _in_bracket(v, gens, q: int) -> bool:
    return any(all(q * h_i <= v_i for h_i, v_i in zip(h, v)) for h in gens)


def reference_tight_closure_member_at_q(
    I, a, t, z, qmax=128, cbox=8, p=2,
):
    ring = I.ring
    if not ring.is_orthant():
        raise UnsupportedRingError("tight closure search needs an orthant ring")
    if a.ring != ring:
        raise InputError("ideals live in different rings")
    t = Fraction(t)
    z = tuple(z)
    if cbox < 0:
        raise InputError("empty candidate box")
    qs = q_sweep(qmax, p)
    apowers = {q: power(a, math.ceil(t * q)) for q in qs}
    failures = []
    for c in _candidate_box(ring.d, cbox):
        failing_q = None
        for q in qs:
            qz = vec_add(c, vec_scale(q, z))
            ok = all(
                _in_bracket(vec_add(qz, g), I.gens, q)
                for g in apowers[q].gens
            )
            if not ok:
                failing_q = q
                break
        if failing_q is None:
            return Verdict(status=STATUS_HOLDS, witness=c, qmax=qmax, p=p)
        failures.append((c, failing_q))
    return Verdict(status=STATUS_FAILS, witness=tuple(failures), qmax=qmax, p=p)


def reference_tight_integral_closure_at_q(ideals, z, qmax=128, cbox=8, p=2):
    ideals = list(ideals)
    if not ideals:
        raise InputError("empty ideal list")
    ring = ideals[0].ring
    if not ring.is_orthant():
        raise UnsupportedRingError("tight integral closure needs an orthant ring")
    z = tuple(z)
    qs = q_sweep(qmax, p)
    qpowers = {q: [power(I, q) for I in ideals] for q in qs}
    failures = []
    for c in _candidate_box(ring.d, cbox):
        failing_q = None
        for q in qs:
            v = vec_add(c, vec_scale(q, z))
            in_sum = any(
                any(all(g_i <= v_i for g_i, v_i in zip(g, v)) for g in Iq.gens)
                for Iq in qpowers[q]
            )
            if not in_sum:
                failing_q = q
                break
        if failing_q is None:
            return Verdict(status=STATUS_HOLDS, witness=c, qmax=qmax, p=p)
        failures.append((c, failing_q))
    return Verdict(status=STATUS_FAILS, witness=tuple(failures), qmax=qmax, p=p)


def test_multiplier_search_matches_reference_on_campaign_inputs(monkeypatch):
    # every search the tic_vs_star, bs_integral and regularity campaigns make,
    # batched or single, recorded per z with its verdict, then each z
    # replayed through the reference
    calls = []

    def recorder(fn, ref, z_at):
        def wrapped(*args, **kwargs):
            verdicts = fn(*args, **kwargs)
            if isinstance(verdicts, list):
                zs, batch = args[z_at], verdicts
            else:
                zs, batch = [args[z_at]], [verdicts]
            assert len(zs) == len(batch)
            for z, verdict in zip(zs, batch):
                one = args[:z_at] + (z,) + args[z_at + 1:]
                calls.append((ref, one, kwargs, verdict))
            return verdicts
        return wrapped

    for name, ref, z_at in (
        ("tight_closure_member_at_q", reference_tight_closure_member_at_q, 3),
        ("tight_closure_members_at_q", reference_tight_closure_member_at_q, 3),
        ("tight_integral_closure_members_at_q", reference_tight_integral_closure_at_q, 1),
    ):
        monkeypatch.setattr(
            tauideal.campaigns, name, recorder(getattr(tauideal.frobenius, name), ref, z_at)
        )
    for campaign in ("tic_vs_star", "bs_integral", "regularity"):
        run_campaign(campaign)
    statuses = {verdict.status for *_, verdict in calls}
    assert len(calls) >= 50 and statuses == {STATUS_HOLDS, STATUS_FAILS}
    for ref, args, kwargs, verdict in calls:
        assert ref(*args, **kwargs) == verdict, (args, kwargs)


def test_batched_searches_match_the_single_searches_and_the_reference():
    # per z, a batch gives the verdict of the one-point search and of the
    # brute-force reference, repeats and all, in the order of zs
    rng = Random(4545)
    statuses = []
    for ring in SEARCH_RINGS:
        points = low_points(ring)
        I_ = minimalize(ring, rng.sample(points[1:], 2))
        a = minimalize(ring, rng.sample(points[1:], 2))
        family = [I_, minimalize(ring, rng.sample(points[1:], 1))]
        zs = rng.sample(points, 4)
        zs += [zs[0], zs[2]]
        t = rng.choice([Fraction(1, 2), 1])
        members = tight_closure_members_at_q(I_, a, t, zs, qmax=8, cbox=2)
        tics = tight_integral_closure_members_at_q(family, zs, qmax=8, cbox=2)
        assert members == [tight_closure_member_at_q(I_, a, t, z, qmax=8, cbox=2) for z in zs]
        assert members == [general_reference_tight_closure(I_, a, t, z, 8, 2) for z in zs]
        assert tics == [tight_integral_closure_at_q(family, z, qmax=8, cbox=2) for z in zs]
        assert tics == [general_reference_tight_integral_closure(family, z, 8, 2) for z in zs]
        assert tight_closure_members_at_q(I_, a, t, [], qmax=8, cbox=2) == []
        assert tight_integral_closure_members_at_q(family, [], qmax=8, cbox=2) == []
        statuses += [v.status for v in members + tics]
    assert set(statuses) == {STATUS_HOLDS, STATUS_FAILS}, statuses


def _count_powers(monkeypatch, calls: Counter) -> None:
    """Count the ``powers`` chains the searches start, in ``calls``."""
    def counted(*args, _real=tauideal.frobenius.powers):
        calls["powers"] += 1
        return _real(*args)

    monkeypatch.setattr(tauideal.frobenius, "powers", counted)


def test_a_batch_builds_each_power_chain_once(monkeypatch):
    m = maximal_ideal(R2)
    family = [power(m, 3), I((2, 0)), I((0, 2))]
    zs = [(x, 6 - x) for x in range(7)] + [(1, 1)]
    calls = Counter()
    with monkeypatch.context() as mp:
        _count_powers(mp, calls)
        tight_closure_members_at_q(I((2, 0), (0, 2)), m, 1, zs, qmax=32, cbox=2)
    assert calls == {"powers": 1}
    calls.clear()
    with monkeypatch.context() as mp:
        _count_powers(mp, calls)
        tight_integral_closure_members_at_q(family, zs, qmax=32, cbox=2)
    assert calls == {"powers": len(family)}
    # tic_vs_star: one chain for the member search and one per ideal of its
    # three-ideal family, where one search per z made 28 * (1 + 3)
    calls.clear()
    with monkeypatch.context() as mp:
        _count_powers(mp, calls)
        assert run_campaign("tic_vs_star").ok
    assert calls == {"powers": 1 + 3}


# -- reference: both searches by brute force on every toric ring -------------
# The candidates are every lattice point of sigma_dual with l at most k*cbox
# (k rays), kept when each ray coordinate is at most cbox, and a candidate is
# tested by ``contains_monomial`` on ideals built by power, multiply and
# bracket_power; no ray coordinates of the searches are reused.

SEARCH_RINGS = [
    orthant_ring(2), orthant_ring(3), VERONESE_22, VERONESE_23, SQUARE_CONE,
    toric_ring([(1, 0), (1, 2)]), INDEX_5,
]


def _reference_multiplier_search(ring, cbox, qmax, p, holds):
    rays = ring.sigma.rays
    candidates = sorted(
        (c for c in lattice_points_upto(ring, len(rays) * cbox)
         if all(pairing(c, n) <= cbox for n in rays)),
        key=lambda c: (sum(pairing(c, n) for n in rays), c),
    )
    qs = q_sweep(qmax, p)
    failures = []
    for c in candidates:
        failing_q = next((q for q in qs if not holds(c, q)), None)
        if failing_q is None:
            return Verdict(status=STATUS_HOLDS, witness=c, qmax=qmax, p=p)
        failures.append((c, failing_q))
    return Verdict(status=STATUS_FAILS, witness=tuple(failures), qmax=qmax, p=p)


def general_reference_tight_closure(I, a, t, z, qmax, cbox, p=2):
    ring = I.ring

    def holds(c, q):
        x = MonomialIdeal(ring=ring, gens=(vec_add(c, vec_scale(q, z)),))
        bracket = bracket_power(I, q)
        product_ = multiply(power(a, math.ceil(Fraction(t) * q)), x)
        return all(bracket.contains_monomial(g) for g in product_.gens)

    return _reference_multiplier_search(ring, cbox, qmax, p, holds)


def general_reference_tight_integral_closure(ideals, z, qmax, cbox, p=2):
    def holds(c, q):
        v = vec_add(c, vec_scale(q, z))
        return any(power(J, q).contains_monomial(v) for J in ideals)

    return _reference_multiplier_search(ideals[0].ring, cbox, qmax, p, holds)


def test_multiplier_searches_match_the_general_reference_on_every_ring():
    rng = Random(4343)
    statuses = []
    for ring in SEARCH_RINGS:
        points = lattice_points_upto(ring, 4)[1:]

        def ideal():
            return minimalize(ring, rng.sample(points, rng.randint(1, min(3, len(points)))))

        for _ in range(4):
            z = rng.choice(points)
            t = rng.choice([0, Fraction(1, 2), 1, Fraction(3, 2)])
            qmax, cbox = rng.choice([4, 8]), rng.choice([1, 2])
            I_, a = ideal(), ideal()
            got = tight_closure_member_at_q(I_, a, t, z, qmax=qmax, cbox=cbox)
            assert got == general_reference_tight_closure(I_, a, t, z, qmax, cbox), (
                ring.sigma.rays, I_.gens, a.gens, t, z)
            family = [ideal() for _ in range(rng.randint(1, 3))]
            tic = tight_integral_closure_at_q(family, z, qmax=qmax, cbox=cbox)
            assert tic == general_reference_tight_integral_closure(family, z, qmax, cbox), (
                ring.sigma.rays, [J.gens for J in family], z)
            statuses += [got.status, tic.status]
    assert set(statuses) == {STATUS_HOLDS, STATUS_FAILS}, statuses


# -- toric rings are strongly F-regular: I* = I ------------------------------
# With a the unit ideal and t = 0, the member search asks for c with
# c + q*z in I^[q].  If z is in I, z = h + s for a generator h, so q*z is in
# I^[q] and c = 0, the first candidate, works at every q.  If z is not in I,
# then for each generator h some ray n_j has rc_j(z) <= rc_j(h) - 1, so at a
# q > cbox every candidate c has rc_j(c + q*z) <= cbox + q*rc_j(h) - q <
# q*rc_j(h), and no generator x^(q h) of I^[q] divides x^(c + q z).

@st.composite
def _f_regularity_case(draw):
    """A ring, an ideal I, a point z, and the prime, cbox and qmax of a sweep
    whose top q exceeds cbox; ``bad`` names a defect planted in z."""
    ring = draw(st.sampled_from(SEARCH_RINGS))
    points = low_points(ring)
    I_ = minimalize(ring, draw(st.lists(st.sampled_from(points[1:]), max_size=3)))
    z = draw(st.sampled_from(points))
    bad = draw(st.sampled_from((None, None, None, "too long", "outside")))
    if bad == "too long":
        z += (1,)
    elif bad == "outside":
        z = vec_neg(draw(st.sampled_from(ring.sigma_dual.rays)))
    p = draw(st.sampled_from((2, 3)))
    cbox = draw(st.integers(0, 3))
    qmax = p
    while qmax <= cbox:
        qmax *= p
    return ring, I_, z, p, cbox, qmax * draw(st.sampled_from((1, p))), bad


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_f_regularity_case())
def test_tight_closure_of_an_ideal_is_the_ideal(case):
    ring, I_, z, p, cbox, qmax, bad = case
    a = unit_ideal(ring)
    if bad:  # refused with a package error, never another exception
        with pytest.raises(TauIdealError):
            tight_closure_member_at_q(I_, a, 0, z, qmax=qmax, cbox=cbox, p=p)
        with pytest.raises(TauIdealError):
            tight_integral_closure_at_q([I_], z, qmax=qmax, cbox=cbox, p=p)
        return
    verdict = tight_closure_member_at_q(I_, a, 0, z, qmax=qmax, cbox=cbox, p=p)
    if I_.contains_monomial(z):
        assert verdict.status == STATUS_HOLDS and verdict.witness == (0,) * ring.d
    else:
        assert verdict.status == STATUS_FAILS


def test_verdict_carries_examined_range():
    v = in_star_E(R2, I((1, 1)), 1, (0, 0), qmax=64, p=3)
    assert v.qmax == 64 and v.p == 3


@pytest.mark.parametrize("ring", [R2, VERONESE_22], ids=["smooth", "veronese"])
def test_shrinking_root_chain_is_a_typed_error(monkeypatch, tmp_path, ring):
    # the oracle reads the rows of each C_q off the floors of the power's
    # ray coordinates; each call of this fake gives the rows of a smaller root
    calls = []

    def shrinking(ring, floors):
        calls.append(floors)
        return _ray_coords(ring, minimalize(ring, [tuple(len(calls) for _ in range(ring.d))]).gens)

    monkeypatch.setattr(tauideal.frobenius, "_upset_union", shrinking)
    with pytest.raises(InvariantError, match="shrinks"):
        frobenius_root_tau_oracle(ring, I((2, 1), (1, 2), ring=ring), 1)
    # a root too large for q*m + (q-1)*w to lie in a^ceil(tq) fails the per-q check
    monkeypatch.setattr(
        tauideal.frobenius, "_upset_union",
        lambda ring, floors: _ray_coords(ring, unit_ideal(ring).gens),
    )
    with pytest.raises(InvariantError, match="outside"):
        frobenius_root_tau_oracle(ring, I((1, 0), ring=ring), 1)
    monkeypatch.setattr(tauideal.frobenius, "_upset_union", shrinking)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"cone_generators": [list(n) for n in ring.sigma.rays]}))
    ideal = tmp_path / "ideal.json"
    ideal.write_text('{"generators": [[2, 1], [1, 2]]}')
    argv = ["tau", "--ring", str(path), "--ideal", str(ideal), "--method", "root"]
    assert main(argv) == 4
