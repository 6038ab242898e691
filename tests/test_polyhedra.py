"""Newton polyhedra: construction, scaling, membership."""

import json
import math
import re
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import pytest

from tauideal import lattice, polyhedra
from tauideal.campaigns import run_crosscheck
from tauideal.cli import emit, main
from tauideal.enumeration import lattice_points_upto
from tauideal.errors import DimensionMismatchError, InputError, SemigroupMembershipError
from tauideal.frobenius import (
    _corner_inequalities,
    frobenius_root_tau_oracle,
    in_star_E,
    socle_piece_vanishes_at_q,
    tau_socle_oracle,
    tight_closure_member_at_q,
)
from tauideal.ideals import minimalize, multiply, power
from tauideal.lattice import dual_extreme_rays, orthant_ring, pairing, toric_ring, vec_add
from tauideal.polyhedra import exponent, lattice_inequalities, newton_polyhedron, scale
from tauideal.tau import tau, tau_is_unit, veronese_ring
from rings import TEST_RINGS
from test_enumeration import reference_inequality_batch, reference_inequality_vertices
from test_lattice import dd_prefix


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
                    got = reference_inequality_batch(lattice_inequalities(tP, shift, strict))
                    want = [tP.contains(vec_add(m, s), strict=strict) for m in points]
                    assert got(points) == want


# -- reference: lattice_inequalities before integer division -------------------
# The version that built one Fraction per facet, kept here only to check the
# integer floor and ceiling divisions against.

def reference_lattice_inequalities(P, shift=None, strict=False):
    out = []
    for a, b in P.inequalities:
        beta = b - pairing(shift, a) if shift is not None else b
        c = math.floor(beta) + 1 if strict else math.ceil(beta)
        if c > 0:
            out.append((a, c))
    return tuple(out)


def _exponents(rng):
    """Small t, t with numerator and denominator up to 10**18, and 0."""
    yield Fraction(rng.randint(1, 12), rng.randint(1, 7))
    yield Fraction(rng.randint(1, 10**18), rng.randint(1, 10**18))
    yield Fraction(rng.randint(1, 10**18), rng.randint(1, 10**3))
    yield Fraction(rng.randint(1, 10**3), rng.randint(1, 10**18))
    yield Fraction(0)


@pytest.mark.parametrize("ring", TEST_RINGS, ids=range(len(TEST_RINGS)))
def test_lattice_inequalities_match_the_fraction_reference(ring):
    rng = Random(7070)
    pool = lattice_points_upto(ring, 6)[1:]
    shifts = [None, ring.w] + [
        tuple(Fraction(q - 1, q) * x for x in ring.w) for q in (2, 3, 16, 3**40, 2**63, 2**80)
    ]
    compared = 0
    for _ in range(4):
        P = newton_polyhedron(ring, rng.sample(pool, rng.randint(1, min(4, len(pool)))))
        for tP in [P] + [scale(P, t) for t in _exponents(rng)]:
            for shift in shifts:
                for strict in (False, True):
                    got = lattice_inequalities(tP, shift, strict)
                    assert got == reference_lattice_inequalities(tP, shift, strict)
                    assert all(type(c) is int for _, c in got), got
                    compared += len(got)
        bad = (Fraction(1, 2),) * (ring.d + 1)
        for f in (lattice_inequalities, reference_lattice_inequalities):
            with pytest.raises(DimensionMismatchError):
                f(P, bad)
    assert compared >= 200, compared


# -- reference: t*P with one Fraction per facet -------------------------------
# scale as it was before t*P kept P's integer bounds, on the facets of the
# all-generator reference, kept here only to check the integer bounds against.

def reference_scaled_inequalities(ring, generators, t):
    if t == 0:
        return tuple(sorted((h, Fraction(0)) for h in ring.sigma_dual.halfspaces))
    return tuple((a, t * b) for a, b in reference_newton_inequalities(ring, generators))


@pytest.mark.parametrize("ring", TEST_RINGS, ids=range(len(TEST_RINGS)))
def test_integer_bounds_match_the_fraction_scale(ring):
    # t*P's inequalities, and the lattice bounds of m + w and of the socle's
    # m + x/q over the corners x, as the Fraction code gave them
    rng = Random(3535)
    pool = lattice_points_upto(ring, 6)[1:]
    compared = 0
    for _ in range(4):
        gens = rng.sample(pool, rng.randint(1, min(5, len(pool))))
        P = newton_polyhedron(ring, gens)
        for t in (Fraction(0), Fraction(1), Fraction(5, 6), Fraction(7, 2), Fraction(1, 1000003)):
            tP = scale(P, t)
            want = reference_scaled_inequalities(ring, gens, t)
            assert tP.inequalities == want
            assert {type(b) for _, b in tP.inequalities} == {Fraction}
            ref = SimpleNamespace(inequalities=want)
            for shift in (None, ring.w):
                for strict in (False, True):
                    got = lattice_inequalities(tP, shift, strict)
                    assert got == reference_lattice_inequalities(ref, shift, strict)
            # the socle route compiles each integer corner x over q; the
            # entry is given the rational shift x/q
            for q in (2, 4, 8, 3, 9, 27):
                for x, got in _corner_inequalities(ring, tP, q):
                    shift = tuple(Fraction(xi, q) for xi in x)
                    assert got == reference_lattice_inequalities(ref, shift)
                    assert got == lattice_inequalities(tP, shift)
                    compared += 1
    assert compared >= 120, compared


def test_newton_json_is_the_fraction_reference_byte_for_byte(tmp_path, capsys):
    # ``tauideal newton --out json`` prints t*P as the Fraction code did: its
    # inequalities from the reference scale, its vertices from a DD of their
    # own, on seeded ideals of every test ring and on one cut by a generator
    # (the second double description's path)
    rng = Random(3636)
    cases = [(orthant_ring(2), [(3, 0), (1, 1), (0, 3)])]
    for ring in TEST_RINGS:
        pool = lattice_points_upto(ring, 5)[1:]
        cases += [(ring, rng.sample(pool, rng.randint(1, min(6, len(pool))))) for _ in range(2)]
    ring_file, ideal_file = tmp_path / "ring.json", tmp_path / "ideal.json"
    for ring, gens in cases:
        ring_file.write_text(json.dumps({"cone_generators": [list(n) for n in ring.sigma.rays]}))
        ideal_file.write_text(json.dumps({"generators": [list(g) for g in gens]}))
        for t in ("0", "1", "5/6", "7/2"):
            argv = ["newton", "--ring", str(ring_file), "--ideal", str(ideal_file),
                    "--t", t, "--out", "json"]
            assert main(argv) == 0
            got = capsys.readouterr().out
            ineqs = reference_scaled_inequalities(ring, gens, Fraction(t))
            emit({
                "command": "newton",
                "t": Fraction(t),
                "vertices": sorted(map(list, reference_inequality_vertices(ring.sigma_dual, ineqs))),
                "rays": [list(r) for r in ring.sigma_dual.rays],
                "inequalities": [[list(a), b] for a, b in ineqs],
            }, "json")
            assert got == capsys.readouterr().out, (ring.sigma.rays, gens, t)


# -- reference: newton_polyhedron from one DD on every generator --------------
# The version that fed every homogenized generator and ray of sigma_dual to
# one double description, kept here only to check the vertex-first
# construction against.

def reference_newton_inequalities(ring, generators):
    gens = sorted({tuple(g) for g in generators})
    d = ring.d
    homog = [g + (1,) for g in gens] + [r + (0,) for r in ring.sigma_dual.rays]
    return tuple(sorted(
        (f[:d], Fraction(-f[d])) for f in dual_extreme_rays(homog) if any(f[:d])
    ))


def _count_dd_calls(monkeypatch):
    # the second double description runs inside ``lattice.cone_from_rays``
    calls = []

    def counted(halfspaces, base=None):
        calls.append(len(dd_prefix(base)) + len(halfspaces))
        return dual_extreme_rays(halfspaces, base)

    for owner in (lattice, polyhedra):
        monkeypatch.setattr(owner, "dual_extreme_rays", counted)
    return calls


def test_newton_polyhedron_matches_the_all_generator_reference(monkeypatch):
    """Seeded ideals over every test ring, with non-minimal and duplicate
    generators, one-generator ideals and entries past 2**64; both the one-DD
    and the two-DD path are taken."""
    calls = _count_dd_calls(monkeypatch)
    rng = Random(4242)
    paths = {1: 0, 2: 0}
    for ring in TEST_RINGS:
        pool = lattice_points_upto(ring, 7)[1:]
        for k in range(40):
            gens = rng.sample(pool, 1 if k % 8 == 0 else rng.randint(2, min(9, len(pool))))
            gens += rng.sample(gens, rng.randint(0, min(2, len(gens))))  # duplicates
            gens += [tuple(x + y for x, y in zip(gens[0], rng.choice(pool)))]  # non-minimal
            if k % 5 == 0:
                c = 2**64 + rng.randint(1, 99)
                gens.append(tuple(c * x for x in rng.choice(pool)))
            if k % 7 == 3:
                gens = [tuple(x << 70 for x in g) for g in gens]
            rng.shuffle(gens)
            del calls[:]
            P = newton_polyhedron(ring, gens)
            assert P.inequalities == reference_newton_inequalities(ring, gens), (ring, gens)
            paths[len(calls)] += 1
    assert paths[1] >= 100 and paths[2] >= 10, paths


@pytest.mark.parametrize("ring", TEST_RINGS, ids=range(len(TEST_RINGS)))
def test_a_canonical_ideal_gives_the_all_generator_reference(ring):
    """P of the ideal itself, read from its minimal generators and rows,
    has the facets of one DD on every raw generator (duplicated,
    non-minimal and shuffled), the vertices one more DD finds from them,
    and equals P of the raw generators."""
    rng = Random(5151 + 7 * len(ring.sigma.rays) + ring.d)
    pool = lattice_points_upto(ring, 6)[1:]
    for k in range(30):
        gens = rng.sample(pool, 1 if k % 6 == 0 else rng.randint(2, min(8, len(pool))))
        gens += rng.sample(gens, rng.randint(0, min(2, len(gens))))  # duplicates
        gens += [vec_add(g, rng.choice(pool)) for g in rng.sample(gens, min(2, len(gens)))]
        rng.shuffle(gens)
        a = minimalize(ring, gens)
        P = newton_polyhedron(ring, a)
        assert P.inequalities == reference_newton_inequalities(ring, gens), (ring, gens)
        want = reference_inequality_vertices(ring.sigma_dual, P.inequalities)
        assert P.vertices == tuple(sorted(want)), (ring, gens)
        assert P == newton_polyhedron(ring, gens), (ring, gens)


def test_newton_polyhedron_refuses_an_ideal_of_another_ring_and_the_zero_ideal():
    ring = orthant_ring(2)
    a = minimalize(ring, [(1, 0), (0, 2)])
    with pytest.raises(InputError, match="does not belong"):
        newton_polyhedron(veronese_ring(2, 2), a)
    with pytest.raises(InputError, match="zero ideal"):
        newton_polyhedron(ring, minimalize(ring, []))


def test_vertices_match_the_vertex_dd_reference(monkeypatch):
    """The vertices kept from the facets' double description, scaled, are
    those one more double description finds from the facets, over seeded
    ideals of every test ring, on both paths of ``newton_polyhedron``."""
    calls = _count_dd_calls(monkeypatch)
    rng = Random(3131)
    paths = {1: 0, 2: 0}
    for ring in TEST_RINGS:
        pool = lattice_points_upto(ring, 6)[1:]
        for k in range(110):
            gens = rng.sample(pool, 1 if k % 10 == 0 else rng.randint(2, min(7, len(pool))))
            gens.append(tuple(x + y for x, y in zip(gens[-1], rng.choice(pool))))
            del calls[:]
            P = newton_polyhedron(ring, gens)
            paths[len(calls)] += 1
            for t in (Fraction(0), Fraction(2, 3), Fraction(1), Fraction(7, 2)):
                tP = scale(P, t)
                want = reference_inequality_vertices(ring.sigma_dual, tP.inequalities)
                assert tP.vertices == tuple(sorted(want)), (ring, gens, t)
    assert paths[1] >= 100 and paths[2] >= 100, paths


@pytest.mark.parametrize("d", range(1, 7))
def test_orthant_power_takes_one_double_description(monkeypatch, d):
    ring = orthant_ring(d)
    gens = [g for g in lattice_points_upto(ring, 4) if sum(g) == 4]
    calls = _count_dd_calls(monkeypatch)
    P = newton_polyhedron(ring, gens)
    # the candidates are the d vertices 4*e_i, next to the d rays
    assert calls == [2 * d]
    assert P.inequalities == reference_newton_inequalities(ring, gens)


def _insert_steps(monkeypatch):
    steps = []
    real = lattice._insert

    def counted(lineality, rays, h, bit):
        steps.append(h)
        return real(lineality, rays, h, bit)

    monkeypatch.setattr(lattice, "_insert", counted)
    return steps


@pytest.mark.parametrize("ring", TEST_RINGS, ids=range(len(TEST_RINGS)))
def test_a_principal_ideal_takes_no_insert_step(monkeypatch, ring):
    # the double description starts from sigma x R, and its one halfspace
    # (g, 1) is inserted in closed form (``lattice._lifted``)
    g = lattice_points_upto(ring, 3)[-1]
    steps = _insert_steps(monkeypatch)
    P = newton_polyhedron(ring, [g])
    assert steps == []
    assert P.inequalities == reference_newton_inequalities(ring, [g])


@pytest.mark.parametrize("d", range(1, 6))
def test_an_orthant_power_takes_d_minus_one_insert_steps(monkeypatch, d):
    # m^4 on orthant(d): the d candidates 4*e_i and nothing else, the
    # first in closed form
    ring = orthant_ring(d)
    gens = [g for g in lattice_points_upto(ring, 4) if sum(g) == 4]
    steps = _insert_steps(monkeypatch)
    newton_polyhedron(ring, gens)
    assert len(steps) == d - 1


def test_a_cutting_generator_forces_the_second_double_description(monkeypatch):
    # (1, 1) is a vertex but lex-least under neither rotation of the rays
    ring = orthant_ring(2)
    gens = [(3, 0), (1, 1), (0, 3)]
    calls = _count_dd_calls(monkeypatch)
    P = newton_polyhedron(ring, gens)
    assert calls == [4, 5]
    assert P.inequalities == reference_newton_inequalities(ring, gens)
    assert _facets(P) == [((0, 1), 0), ((1, 0), 0), ((1, 2), 3), ((2, 1), 3)]


# -- exponents and generators are checked at the boundary ----------------------

BAD_EXPONENTS = ["abc", "1/0", float("nan"), float("inf"), float("-inf"), None, -1,
                 Fraction(-1, 3), "-2/5"]


RING2 = orthant_ring(2)
M2 = minimalize(RING2, [(1, 0), (0, 1)])
EXPONENT_ENTRY_POINTS = {
    "tau": lambda t: tau(RING2, M2, t),
    "tau_is_unit": lambda t: tau_is_unit(RING2, M2, t),
    "scale": lambda t: scale(newton_polyhedron(RING2, M2.gens), t),
    "socle_piece": lambda t: socle_piece_vanishes_at_q(RING2, M2, t, (0, 0), 4),
    "in_star_E": lambda t: in_star_E(RING2, M2, t, (0, 0), qmax=4),
    "tau_socle_oracle": lambda t: tau_socle_oracle(RING2, M2, t, qmax=4),
    "frobenius_root_tau_oracle": lambda t: frobenius_root_tau_oracle(RING2, M2, t, qmax=16),
    "tight_closure_member_at_q": lambda t: tight_closure_member_at_q(
        M2, M2, t, (0, 0), qmax=4, cbox=1
    ),
    "run_crosscheck": lambda t: run_crosscheck(RING2, [("m", M2)], [t], qmax=4),
}


@pytest.mark.parametrize("name", EXPONENT_ENTRY_POINTS)
def test_every_entry_point_refuses_a_bad_exponent(name):
    call = EXPONENT_ENTRY_POINTS[name]
    call(Fraction(1, 2))  # a good exponent goes through
    for bad in BAD_EXPONENTS:
        with pytest.raises(InputError):
            exponent(bad)
        with pytest.raises(InputError):
            call(bad)


def test_exponent_returns_a_fraction_as_it_is_and_still_refuses_the_rest():
    t = Fraction(7, 3)
    assert exponent(t) is t
    assert exponent(Fraction(0)) == 0
    for bad in (True, False, Fraction(-1, 2), Fraction(-3), "1e3", "2E-1"):
        with pytest.raises(InputError):
            exponent(bad)


def test_exponent_reads_exact_rationals():
    assert exponent("3/2") == Fraction(3, 2) and type(exponent("3/2")) is Fraction
    assert exponent(0.25) == Fraction(1, 4)
    assert exponent(10**30) == 10**30
    assert exponent(Fraction(0)) == 0
    assert exponent("1.5") == Fraction(3, 2) and exponent(1e3) == 1000


@pytest.mark.parametrize("t", ["2e0", "1E3", "1e999999999", "1.5e-2", "1/2e1"])
def test_exponent_refuses_exponent_notation(t):
    with pytest.raises(InputError, match="exponent notation"):
        exponent(t)


def test_newton_polyhedron_checks_its_generators():
    ring = orthant_ring(2)
    with pytest.raises(DimensionMismatchError, match=re.escape("(1, 2, 3)")):
        newton_polyhedron(ring, [(1, 0), (1, 2, 3)])
    with pytest.raises(DimensionMismatchError, match=re.escape("(4,)")):
        newton_polyhedron(ring, [(4,)])
    with pytest.raises(SemigroupMembershipError, match=re.escape("(-1, 2)")):
        newton_polyhedron(ring, [(-1, 2)])
    # on the Veronese ring (2, 2), (1, 2) is in the semigroup but (1, 3) is not
    ver = veronese_ring(2, 2)
    newton_polyhedron(ver, [(1, 2)])
    with pytest.raises(SemigroupMembershipError, match=re.escape("(1, 3)")):
        newton_polyhedron(ver, [(1, 2), (1, 3)])
