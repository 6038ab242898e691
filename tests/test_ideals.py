"""Monomial ideal arithmetic."""

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import le, mul, sub
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from tauideal.errors import (
    DimensionMismatchError,
    InputError,
    NotStabilizedError,
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
    _from_rows,
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
from tauideal.campaigns import vertex_reduction
from tauideal.frobenius import (
    frobenius_root_tau_oracle, tau_socle_oracle, tight_closure_members_at_q,
)
from tauideal.tau import tau, tau_is_unit, veronese_ring

from rings import TEST_RINGS


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


def brute_force_minimal(vectors) -> list[IntVec]:
    """The vectors no other lies below, once each, in order of first appearance."""
    return [v for v in dict.fromkeys(vectors)
            if not any(u != v and all(map(le, u, v)) for u in vectors)]


def test_minimal_vectors_of_one_coordinate_sum_are_kept_at_once(monkeypatch):
    # distinct vectors of one coordinate sum divide none of each other, so
    # they come back, first appearances in order, with no comparison made
    rng = Random(5353)
    compared = []
    real = lattice._below_masks
    monkeypatch.setattr(lattice, "_below_masks", lambda rows: compared.append(rows) or real(rows))
    cases = [[], [(3, 1, 4)], [(2, 0)] * 3, [(0, 0, 0), (0, 0, 0)]]
    for _ in range(40):
        d, total = rng.randint(1, 4), rng.randint(0, 6)
        antichain = []
        for _ in range(6):  # the gaps between d - 1 cuts of [0, total]
            cuts = sorted(rng.randint(0, total) for _ in range(d - 1))
            antichain.append(tuple(map(sub, [*cuts, total], [0, *cuts])))
        cases.append(antichain + rng.choices(antichain, k=3))
    for vecs in cases:
        assert minimal_vectors_orthant(vecs) == brute_force_minimal(vecs) == list(dict.fromkeys(vecs))
        assert minimal_vectors_orthant(iter(vecs)) == brute_force_minimal(vecs)
    assert compared == []
    # one vector of another sum makes the kernel compare
    for vecs in cases[4:]:
        mixed = vecs + [tuple(x + 1 for x in vecs[0])]
        assert minimal_vectors_orthant(mixed) == brute_force_minimal(mixed)
    assert compared


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


# each kind of bad generator, refused when the ideal is made
BAD_GENERATORS = {
    "str entry": ((("a", 0),), InputError),
    "float entry": (((1.5, 0),), InputError),
    "short": (((1,),), DimensionMismatchError),
    "long": (((1, 0, 0),), DimensionMismatchError),
    "outside": (((-1, 0),), SemigroupMembershipError),
}


@pytest.mark.parametrize("case", sorted(BAD_GENERATORS))
@pytest.mark.parametrize("ring", [R2, veronese_ring(2, 2)], ids=["orthant", "veronese"])
def test_an_ideal_is_checked_when_it_is_made(ring, case):
    gens, error = BAD_GENERATORS[case]
    with pytest.raises(error):
        MonomialIdeal(ring=ring, gens=((0, 1),) + gens)


@pytest.mark.parametrize("ring", TEST_RINGS, ids=range(len(TEST_RINGS)))
def test_the_ideals_the_library_derives_pass_the_check_they_skip(ring):
    # results are made from checked ideals without the constructor's check;
    # made again through it, each keeps its generators, so every ideal the
    # package returns is canonical (minimal, once each, sorted), and each
    # holds from when it was made the rows the check pairs, aligned
    rng = Random(2026 + ring.d * len(ring.sigma.rays))
    pool = lattice_points_upto(ring, 4)[1:]
    q = ring.gorenstein_index + 1  # (q - 1)*w is a lattice point
    p, qmax = (3, 3**5) if ring.gorenstein_index % 2 == 0 else (2, 2**8)
    roots = 0
    for _ in range(3):
        a, b = (minimalize(ring, rng.sample(pool, rng.randint(1, min(3, len(pool)))))
                for _ in range(2))
        t = Fraction(rng.randint(0, 6), 4)
        derived = [
            a, multiply(a, b), ideal_sum(a, b), intersect(a, b), colon(a, b),
            power(a, 3), bracket_power(a, 2), trace_root(a, q), integral_closure(a),
            unit_ideal(ring), zero_ideal(ring), maximal_ideal(ring), tau(ring, a, t),
            tau_socle_oracle(ring, a, t, qmax=8).ideal, vertex_reduction(ring, a),
        ]
        if ring.is_orthant():
            derived.append(frobenius_root(a, 2))
            if ring.d > 1:
                derived.append(kill_variable(a, rng.randrange(ring.d)))
        try:
            derived.append(frobenius_root_tau_oracle(ring, a, t, qmax=qmax, p=p))
            roots += 1
        except NotStabilizedError:
            pass
        # before anything reads them: none is paired on a later read
        assert all("rows" in vars(I) for I in derived), [I.gens for I in derived]
        for I in derived:
            made = MonomialIdeal(I.ring, I.gens)
            assert I.gens == made.gens and I.rows == made.rows, I.gens
            assert type(I.gens) is tuple
    assert roots, ring


def test_an_ideal_equals_another_iff_they_are_the_same_ideal():
    # a redundant generator or one listed twice is dropped when the ideal
    # is made, so == is ideal equality, and bracket powers keep it
    assert MonomialIdeal(R2, ((0, 0), (1, 0))) == unit_ideal(R2)
    assert MonomialIdeal(R2, ((0, 0), (1, 0))).is_unit()
    assert bracket_power(MonomialIdeal(R2, ((1, 0), (2, 0))), 2).gens == ((2, 0),)
    assert MonomialIdeal(R2, ((1, 0),)) != MonomialIdeal(R2, ((1, 0), (0, 1)))


@pytest.mark.parametrize("ring", [R2, veronese_ring(2, 2)], ids=["orthant", "veronese"])
def test_permuted_or_repeated_generators_give_one_ideal(ring):
    rng = Random(4141 + len(ring.sigma.rays))
    pool = lattice_points_upto(ring, 6)[1:]
    for _ in range(30):
        gens = rng.sample(pool, rng.randint(1, 5))
        I = MonomialIdeal(ring, tuple(gens))
        shuffled = gens + rng.choices(gens, k=rng.randint(1, 3))
        rng.shuffle(shuffled)
        J = MonomialIdeal(ring, tuple(shuffled))
        assert I == J and hash(I) == hash(J), gens
        assert I == minimalize(ring, shuffled) == ideal_sum(I, J)
        assert len({I, J, minimalize(ring, gens)}) == 1


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
    outside = ((-1, 0),)
    too_long = ((1, 0, 0),)
    for bad, error in ((outside, SemigroupMembershipError),
                       (too_long, DimensionMismatchError)):
        with pytest.raises(error):
            MonomialIdeal(ring=ring, gens=bad).is_subideal_of(good)
        with pytest.raises(error):
            good.is_subideal_of(MonomialIdeal(ring=ring, gens=bad))


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


def test_an_ideal_with_the_zero_generator_is_the_unit_ideal_unminimalized():
    # the constructor does not minimalize, so 1 may come with other
    # generators; it is the unit ideal all the same
    for ring in TEST_RINGS:
        g = ring.sigma_dual.rays[0]
        a = MonomialIdeal(ring, ((0,) * ring.d, g))
        assert a.is_unit() and a.contains_monomial((0,) * ring.d), ring
        assert tau_is_unit(ring, a, 1)
        assert not MonomialIdeal(ring, (g, vec_scale(2, g))).is_unit()
    assert not zero_ideal(R2).is_unit()


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


def count_pairings(monkeypatch):
    """The generator lists that ``ideals`` pairs with the rays of sigma, as
    tuples, one per pairing: the check of a made ideal
    (``semigroup_columns``) and the checked ``_ray_coords`` of raw vectors
    (``member_columns``)."""
    paired = []
    monkeypatch.setattr(
        ideals_module, "semigroup_columns",
        lambda ring, vectors: paired.append(tuple(vectors))
        or lattice.semigroup_columns(ring, vectors),
    )
    monkeypatch.setattr(
        ideals_module, "member_columns",
        lambda ring, vectors: paired.append(tuple(vectors)) or lattice.member_columns(ring, vectors),
    )
    return paired


def test_a_checked_ideal_is_paired_once(monkeypatch):
    # the check that makes a pairs its raw generators with the rays and
    # keeps their ray coordinates as a's rows, which every operation reads;
    # b's generators and the points z are drawn apart from a's, so no other
    # pairing holds all of a's
    rng = Random(3838)
    paired = count_pairings(monkeypatch)
    for ring in TEST_RINGS:
        points = lattice_points_upto(ring, 6)[1:]
        rng.shuffle(points)
        k = max(1, len(points) // 3)
        raw = points[:rng.randint(1, min(4, k))]
        del paired[:]
        a = minimalize(ring, raw)
        b = minimalize(ring, points[k:k + rng.randint(1, 4)])
        zs = points[-2:]
        q = 1 + ring.gorenstein_index
        for J, K in ((a, b), (b, a)):
            multiply(J, K), intersect(J, K), colon(J, K), ideal_sum(J, K)
            J.is_subideal_of(K)
        power(a, 3), trace_root(a, q)
        tight_closure_members_at_q(a, b, 1, zs, qmax=4, cbox=1)
        assert sum(set(a.gens) <= set(v) for v in paired) == 1, ring
        assert paired[0] == tuple(raw), ring
        # the Hilbert basis comes with its ray coordinates from the ring's
        # lines record, so the maximal ideal pairs nothing, through no
        # module's binding of the pairing kernel
        del paired[:]
        real = lattice.pairing_columns
        with monkeypatch.context() as m:
            for module in [v for k, v in sys.modules.items() if k.startswith("tauideal.")]:
                if hasattr(module, "pairing_columns"):
                    m.setattr(module, "pairing_columns", lambda vectors, normals: paired.append(
                        tuple(vectors)) or real(vectors, normals))
            maximal_ideal(ring)
        assert paired == [], ring


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
    """Replace the row kernel of tauideal.ideals by one that counts in
    ``calls`` the squares, ``_sums(A, A)`` of one row set with itself
    ("square"), and the other products of ``_sums`` ("add")."""
    real_sums = ideals_module._sums

    def sums(A, B):
        calls["square" if A is B else "add"] += 1
        return real_sums(A, B)

    monkeypatch.setattr(ideals_module, "_sums", sums)


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
    (``_count_products``) made while taking it."""
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
        one = (outside,)
        several = ((0,) * ring.d, outside)
        for bad in (one, several):
            for n in (0, 1, 2, 5):
                with pytest.raises(SemigroupMembershipError):
                    power(MonomialIdeal(ring=ring, gens=bad), n)
            with pytest.raises(SemigroupMembershipError):
                multiply(MonomialIdeal(ring=ring, gens=bad), unit_ideal(ring))
            with pytest.raises(SemigroupMembershipError):
                multiply(unit_ideal(ring), MonomialIdeal(ring=ring, gens=bad))
            with pytest.raises(SemigroupMembershipError):
                MonomialIdeal(ring=ring, gens=bad).contains_monomial((0,) * ring.d)


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
    # with an inverse of zeros, and the cone taken as not smooth, every
    # candidate point is 0, whose ray coordinates miss every bound vector
    # with a positive entry, so each up-set is enumerated; up-sets are
    # counted by the pair sets handed to the line offsets, as one kernel
    # call scans all of its up-sets together
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
        zero_inverse = ([(0,) * len(ring.sigma.rays)] * d, 1)
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
                m.setattr(lattice, "left_inverse", lambda rays: zero_inverse)
                m.setattr(lattice.ToricRing, "is_smooth", lambda ring: False)
                assert _upset_union(ring, boxes) == direct, bounds
            members = [
                m for m, rc in zip(points, coords)
                if any(all(map(le, c, rc)) for c in bounds)
            ]
            brute = minimalize(ring, members)
            assert direct == sorted(_ray_coords(ring, brute.gens)), bounds
            assert _from_rows(ring, direct) == brute, bounds
        assert enumerated["enumerated"] >= 8, ring.sigma.rays
        if ring.is_smooth():  # a smooth cone never enumerates
            assert enumerated["shortcut"] == 0
        else:
            assert enumerated["shortcut"] < enumerated["enumerated"], ring.sigma.rays


@st.composite
def _ring_and_two_ideals(draw):
    """A ring of TEST_RINGS, two ideals from its lattice points, the kind of
    defect to plant in the second one (None for a well-formed pair), and
    whether the two swap places."""
    ring = draw(st.sampled_from(TEST_RINGS))
    points = lattice_points_upto(ring, 5)
    a = minimalize(ring, draw(st.lists(st.sampled_from(points), max_size=4)))
    b = minimalize(ring, draw(st.lists(st.sampled_from(points), max_size=4)))
    bad = draw(st.sampled_from((None, None, None, "outside", "too long", "other ring")))
    return a, b, bad, draw(st.booleans())


def _planted(a, b, bad, swap):
    """a and b with the defect planted in b, swapped if asked."""
    ring = b.ring
    if bad == "outside":
        b = MonomialIdeal(ring=ring, gens=b.gens + (vec_neg(ring.sigma_dual.rays[0]),))
    elif bad == "too long":
        b = MonomialIdeal(ring=ring, gens=b.gens + ((1,) * (ring.d + 1),))
    elif bad == "other ring":
        b = unit_ideal(orthant_ring(ring.d + 1))
    return (b, a) if swap else (a, b)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_ring_and_two_ideals())
def test_intersect_and_colon_properties(case):
    a, b, bad, swap = case
    if bad:  # refused with a package error, never another exception
        for op in (intersect, colon):
            with pytest.raises(TauIdealError):
                op(*_planted(a, b, bad, swap))
        return
    a, b = _planted(a, b, bad, swap)
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
