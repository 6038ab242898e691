"""The proven degree bound of the up-set enumerator, against brute force."""

from collections import Counter
from fractions import Fraction
from itertools import product
from random import Random

import pytest

import tauideal.enumeration as enumeration
import tauideal.errors
from tauideal.enumeration import (
    degree_bound,
    ell_vector,
    hilbert_basis,
    inequality_batch,
    minimal_upset_generators,
)
from tauideal.frobenius import _socle_corners
from tauideal.ideals import maximal_ideal, minimalize, power
from tauideal.lattice import orthant_ring, pairing, toric_ring
from tauideal.polyhedra import lattice_inequalities, newton_polyhedron, scale
from tauideal.tau import veronese_ring

SQUARE_CONE = toric_ring([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
RINGS = {
    "orthant1": orthant_ring(1),
    "orthant2": orthant_ring(2),
    "orthant3": orthant_ring(3),
    "orthant4": orthant_ring(4),
    "veronese22": veronese_ring(2, 2),
    "veronese32": veronese_ring(3, 2),
    "square": SQUARE_CONE,
    "index5": toric_ring([(0, 1), (5, -2)]),
}


def ray_degree_sum(ring):
    """D, the sum of the d largest l-degrees over the extreme rays of sigma_dual."""
    ell = ell_vector(ring)
    return sum(sorted((pairing(r, ell) for r in ring.sigma_dual.rays), reverse=True)[:ring.d])


def brute_points(ring, top):
    """Every lattice point of sigma_dual with l <= top, in (l, lex) order,
    from a box that holds sum lambda_r r for sum lambda_r l(r) <= top."""
    ell = ell_vector(ring)
    rays = [(r, pairing(r, ell)) for r in ring.sigma_dual.rays]
    span = [
        range(min(0, min(top * r[k] // deg for r, deg in rays)),
              max(0, max(-(-top * r[k] // deg) for r, deg in rays)) + 1)
        for k in range(ring.d)
    ]
    pts = [p for p in product(*span)
           if pairing(p, ell) <= top and all(pairing(p, n) >= 0 for n in ring.sigma.rays)]
    return sorted(pts, key=lambda p: (pairing(p, ell), p))


def brute_minimal(ring, points, members):
    """Minimal members: those not y + s for a member y != m and s in sigma_dual.

    In (l, lex) order each y lies above a minimal member of no larger degree
    found before, so testing those alone suffices."""
    found = []
    for m in points:
        if m in members and not any(
            all(pairing(m, n) - pairing(g, n) >= 0 for n in ring.sigma.rays) for g in found
        ):
            found.append(m)
    return found


def slice_applies(ring, ineqs):
    return all(pairing(r, a) > 0 for a, _ in ineqs for r in ring.sigma_dual.rays)


def seeded_upsets():
    """(label, ring, pairs) for the up-sets of tau, integral closure and the
    socle corners of seeded ideals, at t with small numerator and denominator."""
    rng = Random(2026)
    cases = []
    for name, ring in RINGS.items():
        # generators from the first few degrees, 3 or 6 times the lowest ray's
        ell = ell_vector(ring)
        low = (3 if ring.d >= 3 else 6) * min(pairing(r, ell) for r in ring.sigma_dual.rays)
        pool = brute_points(ring, low)[1:]
        for i in range(8 if ring.d <= 3 else 5):
            gens = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            if i % 2:
                # a point on every ray of sigma_dual: every facet normal
                # pairs positively with the rays, and the slice bound applies
                for r in ring.sigma_dual.rays:
                    k = rng.randint(1, 3)
                    gens.append(tuple(k * x for x in r))
            a = minimalize(ring, gens)
            t = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            P = newton_polyhedron(ring, a.gens)
            tP = scale(P, t)
            cases.append((f"{name} tau {a.gens} t={t}", ring,
                          lattice_inequalities(tP, ring.w, strict=True)))
            cases.append((f"{name} closure {a.gens}", ring, lattice_inequalities(P)))
            q = rng.choice([2, 3, 4])
            for x in _socle_corners(ring, q):
                cases.append((f"{name} corner {x} q={q} {a.gens} t={t}", ring,
                              lattice_inequalities(tP, [Fraction(xi, q) for xi in x])))
        for c in (1, 2, 3):
            cases.append((f"{name} corner offsets c={c}", ring,
                          tuple((n, c) for n in ring.sigma.rays)))
    return cases


UPSETS = seeded_upsets()


def test_no_minimal_generator_lies_above_the_bound():
    branches = Counter()
    for label, ring, ineqs in UPSETS:
        bound = degree_bound(ring, ineqs)
        branches["slice" if slice_applies(ring, ineqs) else "caratheodory"] += 1
        ell = ell_vector(ring)
        points = brute_points(ring, bound + 2 * ray_degree_sum(ring))
        batch = inequality_batch(ineqs)
        members = {m for m, f in zip(points, batch(points)) if f}
        truth = brute_minimal(ring, points, members)
        assert truth, label
        assert max(pairing(m, ell) for m in truth) <= bound, label
        assert minimal_upset_generators(ring, batch, bound) == truth, label
    # both arguments of degree_bound are exercised
    assert branches["slice"] >= 20 and branches["caratheodory"] >= 20, branches


def test_slice_bound_of_tau_of_m8_in_six_variables():
    ring = orthant_ring(6)
    P = newton_polyhedron(ring, power(maximal_ideal(ring), 8).gens)
    ineqs = lattice_inequalities(scale(P, 1), ring.w, strict=True)
    assert slice_applies(ring, ineqs)
    assert degree_bound(ring, ineqs) == 3


@pytest.mark.parametrize("d", range(1, 7))
def test_orthant_hilbert_basis_is_the_unit_vectors(d):
    ring = orthant_ring(d)
    units = [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
    assert sorted(hilbert_basis(ring)) == sorted(units)
    ell = ell_vector(ring)
    assert max(pairing(h, ell) for h in hilbert_basis(ring)) == 1


@pytest.mark.parametrize("ring", [SQUARE_CONE, veronese_ring(3, 2), RINGS["index5"]],
                         ids=["square", "veronese32", "index5"])
def test_hilbert_basis_against_brute_force_irreducibility(ring):
    # irreducible: nonzero and not a sum of two nonzero points, searched two
    # degrees past D
    ell = ell_vector(ring)
    D = ray_degree_sum(ring)
    points = brute_points(ring, D + 2)[1:]
    sums = {tuple(x + y for x, y in zip(u, v)) for u in points for v in points}
    irreducible = [p for p in points if p not in sums]
    assert list(hilbert_basis(ring)) == irreducible
    assert max(pairing(h, ell) for h in irreducible) == max(
        pairing(h, ell) for h in hilbert_basis(ring))


def test_doubling_loop_and_its_error_are_gone():
    for name in ("MAX_DOUBLINGS", "upper_degree_seed", "ray_degree_gap",
                 "EnumerationBoundError"):
        assert not hasattr(enumeration, name), name
    assert not hasattr(tauideal.errors, "EnumerationBoundError")
    assert not hasattr(tauideal, "EnumerationBoundError")
