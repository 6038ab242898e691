"""The packed row-sum kernel and the floors of the root chain, each against
the tuple code it replaced, kept here only as the reference."""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import add
from random import Random

from hypothesis import given, settings, strategies as st
import pytest

import tauideal.enumeration as enumeration_module
import tauideal.frobenius as frobenius_module
import tauideal.ideals as ideals_module
from tauideal.enumeration import lattice_points_upto, upset_union
from tauideal.errors import InvariantError, NotStabilizedError, UnsupportedRingError
from tauideal.frobenius import (
    frobenius_root_tau_oracle,
    q_sweep,
    tight_closure_members_at_q,
    tight_integral_closure_members_at_q,
)
from tauideal.ideals import (
    MonomialIdeal,
    _covers,
    _field_width,
    _floors,
    _ray_coords,
    _sums,
    _upset_union,
    colon,
    intersect,
    minimalize,
    multiply,
    power,
    powers,
    trace_root,
    unit_ideal,
    zero_ideal,
)
from tauideal.lattice import (
    matrix_rank, minimal_vectors_orthant, orthant_ring, vec_add, vec_scale,
)
from tauideal.tau import _check_request, tau, veronese_ring

from rings import TEST_RINGS
from test_ideals import count_pairings


# -- reference: the tuple kernel and the pair-set root chain ----------------

def reference_sums(A, B=None):
    """Every pair sum built as a tuple, de-duplicated by ``dict.fromkeys``
    inside ``minimal_vectors_orthant``."""
    if B is None:
        return minimal_vectors_orthant(
            tuple(map(add, a, b)) for i, a in enumerate(A) for b in A[i:]
        )
    return minimal_vectors_orthant(tuple(map(add, a, b)) for a in A for b in B)


def reference_upset_ideal(ring, bounds):
    """The bounds handed to ``upset_union`` as pair sets (n_j, c_j), which it
    parses back into boxes."""
    pairs = [tuple(zip(ring.sigma.rays, c)) for c in bounds]
    return MonomialIdeal(ring=ring, gens=upset_union(ring, pairs)[0])


def reference_upset_union(ring, bounds):
    """The sorted ray coordinates of ``reference_upset_ideal``'s generators."""
    return sorted(_ray_coords(ring, reference_upset_ideal(ring, bounds).gens))


def reference_floors(rows, q, n=1):
    """The floors of the sums of the multisets of n rows, each sum built as
    a tuple (the zero row at n = 0); no rows give no floors."""
    if not rows:
        return set()
    zero = (0,) * len(rows[0])
    return {tuple([sum(column) // q for column in zip(zero, *chosen)])
            for chosen in combinations_with_replacement(rows, n)}


def reference_root_oracle(ring, a, t, qmax, p):
    """The root oracle with the lift check on every row of a^n."""
    t = _check_request(ring, a, t)
    r = ring.gorenstein_index
    qs = [q for q in q_sweep(qmax, p) if (q - 1) % r == 0]
    if r % p == 0:
        raise UnsupportedRingError(f"p = {p} divides the Gorenstein index {r}")
    prev_rows = prev_q = None
    for q, rows in zip(qs, powers(a, [math.ceil(t * q) for q in qs])):
        current = reference_upset_ideal(ring, reference_floors(rows, q))
        current_rows = _ray_coords(ring, current.gens)
        lifts = [tuple([q * x + q - 1 for x in m]) for m in current_rows]
        if not _covers(rows, lifts):
            raise InvariantError(f"a generator m of C_{q} has q*m + (q-1)*w outside a^n")
        if prev_rows is not None and not _covers(current_rows, prev_rows):
            raise InvariantError(f"root chain shrinks from q={prev_q} to q={q}")
        if current_rows == prev_rows and q >= 16:
            return current
        prev_rows, prev_q = current_rows, q
    raise NotStabilizedError(f"root chain did not stabilize over the admissible q {qs}")


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the exception is part of the answer compared
        return type(exc), str(exc)


def _answers(ring, a, b, zs, root):
    """Every result that goes through the row-sum kernel, for ideals a and
    b of ring (rows as sorted lists), and with a root oracle also every one
    that goes through the up-set kernel's boxes."""
    out = {
        "power": [power(a, n) for n in range(5)],
        "multiply": multiply(a, b),
        "powers": [sorted(rows) for rows in powers(a, [3, 1, 4, 2, 0, 6])],
        "tight": tight_closure_members_at_q(b, a, 1, zs, 4, 1, 2),
        "tic": tight_integral_closure_members_at_q([a, b], zs, 4, 1, 2),
    }
    if root:
        out["intersect"] = intersect(a, b)
        out["colon"] = colon(a, b)
        # the q <= 6 with (q-1)*w a lattice point, at least one q > 1 on each ring
        out["trace_root"] = [
            trace_root(a, q) for q in range(1, 7) if (q - 1) % ring.gorenstein_index == 0
        ]
        for p, qmax in ((2, 16), (3, 9)):
            for t in (Fraction(1, 2), 1, Fraction(3, 2)):
                out[f"root {p} {t}"] = _outcome(root, ring, a, t, qmax, p)
    return out


def test_packed_kernel_gives_the_tuple_kernels_answers(monkeypatch):
    rng = Random(2626)
    big = 2**64
    compared = 0
    for ring in TEST_RINGS:
        points = lattice_points_upto(ring, 4)[1:]

        def small():
            return minimalize(ring, rng.sample(points, rng.randint(1, min(3, len(points)))))

        cases = [(small(), small(), True) for _ in range(3)]
        cases += [(zero_ideal(ring), small(), True), (small(), unit_ideal(ring), True)]
        # entries of 2**64 and more: wide fields; the up-set kernel would
        # enumerate boxes of that size off the orthant, so it is left out
        lifted = [vec_add(g, vec_scale(big, rng.choice(ring.sigma_dual.rays)))
                  for g in rng.sample(points, min(2, len(points)))]
        cases.append((minimalize(ring, lifted), small(), False))
        zs = points[:3]
        for a, b, with_root in cases:
            packed = _answers(ring, a, b, zs, frobenius_root_tau_oracle if with_root else None)
            with monkeypatch.context() as m:
                m.setattr(ideals_module, "_sums", reference_sums)
                m.setattr(ideals_module, "_upset_union", reference_upset_union)
                reference = _answers(ring, a, b, zs, reference_root_oracle if with_root else None)
            assert packed == reference, (ring.sigma.rays, a.gens, b.gens)
            compared += 1
    assert compared == 6 * len(TEST_RINGS)


# -- the field width ----------------------------------------------------------

def _sum_mismatches(rng, trials):
    """Pairs (A, B) of random rows, B None for a square, on which ``_sums``,
    or for a square the square step of ``powers`` (``_sums(A, A)``),
    differs from the tuple reference; the entries run up to 2**12, and each largest sum sits at a power of two or one
    below it about as often as not, where a field one bit too narrow first
    carries."""
    found = []
    for _ in range(trials):
        d = rng.randint(1, 4)
        top = 2 ** rng.randint(0, 12)
        rows = [tuple(rng.randint(0, top) for _ in range(d)) for _ in range(rng.randint(1, 6))]
        other = None if rng.random() < 0.3 else [
            tuple(rng.randint(0, top) for _ in range(d)) for _ in range(rng.randint(1, 6))
        ]
        if rng.random() < 0.5:  # one pair whose sum is exactly the largest
            j, total = rng.randrange(d), top - rng.randint(0, 1)
            half = total // 2
            rows = [tuple(half if i == j else 0 for i in range(d))]
            other = [tuple(total - half if i == j else 0 for i in range(d))]
        got = _sums(rows, rows if other is None else other)
        if sorted(got) != sorted(reference_sums(rows, other)):
            found.append((rows, other))
    return found


def test_field_width_is_the_bit_length_of_the_largest_sum(monkeypatch):
    rng = Random(2727)
    for _ in range(300):
        d = rng.randint(1, 4)
        A = [tuple(rng.randint(0, 2**rng.randint(0, 70)) for _ in range(d))
             for _ in range(rng.randint(1, 5))]
        B = [tuple(rng.randint(0, 2**rng.randint(0, 70)) for _ in range(d))
             for _ in range(rng.randint(1, 5))]
        largest = max(x + y for a in A for b in B for x in a for y in b)
        assert _field_width(A, B) == largest.bit_length()
        assert _field_width(A, A) == max(2 * x for a in A for x in a).bit_length()
    assert _sum_mismatches(Random(2828), 400) == []
    # a width one bit too small carries the largest sum into the next field
    # (or out of the last one), and the comparison above catches it
    with monkeypatch.context() as m:
        m.setattr(ideals_module, "_field_width", lambda A, B: max(_field_width(A, B) - 1, 0))
        assert len(_sum_mismatches(Random(2828), 400)) > 100


# -- the lift check on floors -------------------------------------------------

ROWS = st.lists(st.tuples(*[st.integers(0, 40)] * 3), min_size=1, max_size=8)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(ROWS, st.lists(st.tuples(*[st.integers(0, 12)] * 3), max_size=6), st.integers(1, 9))
def test_lift_check_on_floors_is_the_lift_check_on_rows(rows, roots, q):
    # rc(g) <= q*m + q - 1 on every ray iff floor(rc(g)/q) <= m
    lifts = [tuple(q * x + q - 1 for x in m) for m in roots]
    assert _covers(rows, lifts) == _covers(_floors(rows, q, 1), roots)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(ROWS, st.integers(1, 9), st.integers(0, 5))
def test_floors_of_multiset_sums_match_their_definition(rows, q, n):
    want = {tuple(sum(column) // q for column in zip(*chosen)) if n else (0, 0, 0)
            for chosen in combinations_with_replacement(rows, n)}
    got = _floors(rows, q, n)
    assert len(got) == len(set(got)) and set(got) == want


def _few_for_rank(a):
    """A split of the input family: True when a's mu generators are few for
    their rank r, mu - 1 < 2*(r - 1), False when many share a low-rank span."""
    return len(a.gens) - 1 < 2 * (matrix_rank(a.gens) - 1)


def test_multiset_floors_give_the_root_of_the_power_floors():
    # C_q from the floors of the sums of n of a's rows is C_q from the
    # floors of a^n's rows, n = ceil(t*q), on every admissible q <= 32 for
    # p = 2 and 3, for principal ideals and for ideals with few and with many
    # generators for their rank
    rng = Random(3939)
    sides = Counter()
    for ring in TEST_RINGS:
        points = lattice_points_upto(ring, 8)[1:13]  # the 12 lowest but the origin
        u, v = rng.sample(points[:ring.d + 1], 2)
        ideals = [minimalize(ring, [g]) for g in rng.sample(points, 2)]
        sizes = (2, 3, 3 if ring.d > 3 else 4)
        ideals += [minimalize(ring, rng.sample(points, min(k, len(points)))) for k in sizes]
        # generators in the plane of u and v: r <= 2, so many for their rank
        ideals.append(minimalize(ring, [vec_add(vec_scale(i, u), vec_scale(3 - i, v))
                                        for i in range(4)]))
        qs = {q for p in (2, 3) for q in q_sweep(32, p) if (q - 1) % ring.gorenstein_index == 0}
        steps = sorted({(q, math.ceil(t * q)) for q in qs
                        for t in (0, Fraction(1, 3), Fraction(1, 2), 1, Fraction(3, 2))})
        for a in ideals:
            sides["principal" if len(a.gens) == 1 else _few_for_rank(a)] += 1
            for (q, n), rows in zip(steps, powers(a, [n for _, n in steps])):
                multisets, squared = _floors(a.rows, q, n), _floors(rows, q, 1)
                assert sorted(minimal_vectors_orthant(multisets)) == sorted(
                    minimal_vectors_orthant(squared)), (ring.sigma.rays, a.gens, q, n)
                assert _upset_union(ring, multisets) == _upset_union(ring, squared)
    assert min(sides[True], sides[False], sides["principal"]) >= 10, sides


@pytest.mark.parametrize("ring, gens", [
    (orthant_ring(3), [(4, 1, 0), (0, 3, 2), (1, 0, 5), (2, 2, 2)]),
    (veronese_ring(2, 2), [(2, 1), (1, 2), (3, 6)]),
], ids=["smooth", "veronese"])
def test_a_root_generator_one_step_below_a_floor_is_outside(monkeypatch, ring, gens):
    # lower one row of each C_q by one in one coordinate: it lies below a
    # minimal floor and above no floor, so q*m + (q-1)*w leaves a^n
    a = minimalize(ring, gens)
    real = frobenius_module._upset_union

    def lowered(ring, floors):
        rows = list(real(ring, floors))
        k, j = next((k, j) for k, g in enumerate(rows) for j, x in enumerate(g) if x)
        rows[k] = tuple(x - (i == j) for i, x in enumerate(rows[k]))
        return sorted(rows)

    if ring.is_smooth():
        with pytest.raises(NotStabilizedError):  # and no InvariantError
            frobenius_root_tau_oracle(ring, a, Fraction(3, 2), 16)
    else:  # the chain stabilizes at tau, with no InvariantError
        assert frobenius_root_tau_oracle(ring, a, Fraction(3, 2), 16) == tau(ring, a, Fraction(3, 2))
    monkeypatch.setattr(frobenius_module, "_upset_union", lowered)
    with pytest.raises(InvariantError, match="outside"):
        frobenius_root_tau_oracle(ring, a, Fraction(3, 2), 16)


def test_a_root_value_makes_its_points_once(monkeypatch):
    # on a smooth cone the chain stays on rows: a's generators were paired
    # when a was made and are not paired again, no C_q's generators are
    # paired, and the only points made are the returned value's, by one
    # _points call (none when it raises)
    ring = orthant_ring(3)
    paired, points = count_pairings(monkeypatch), []
    raw_a, raw_b = [(2, 0, 1), (0, 3, 0), (1, 1, 2)], [(4, 1, 0), (0, 3, 2), (1, 0, 5), (2, 2, 2)]
    a, b = minimalize(ring, raw_a), minimalize(ring, raw_b)
    assert paired == [tuple(raw_a), tuple(raw_b)]
    want = tau(ring, a, 1)
    del paired[:]
    for module in (ideals_module, enumeration_module):
        real_points = module._points
        monkeypatch.setattr(
            module, "_points",
            lambda ring, rows, real=real_points: points.append(len(rows)) or real(ring, rows),
        )
    assert frobenius_root_tau_oracle(ring, a, 1, 16) == want
    assert paired == [] and len(points) == 1
    del points[:]
    with pytest.raises(NotStabilizedError):
        frobenius_root_tau_oracle(ring, b, Fraction(3, 2), 16)
    assert paired == [] and points == []
