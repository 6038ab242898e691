"""Finite-q Frobenius-side experiments and oracles.

Everything here works at concrete powers q = p^e of a prime p and reports
verdicts that carry the examined range: stabilization is evidence, not
proof, and the verdict names say so.  The socle route grades the injective
hull by -sigma_dual and tests emptiness of an exact lattice-point
intersection, nonempty iff it holds one of the finitely many
sigma_dual-maximal lattice points ("corners") of (q-1)*w - sigma_dual.  The
corners are made once per ring and q, on ints (``_socle_corners``), and
each q costs one integer facet test per corner, compiled from the integer
corner over q by the core ``polyhedra._compile`` with no check; the socle
oracle needs only the largest q of the sweep.  Its t*P(a) comes, with the
request checked, from ``tau._scaled_polyhedron``, the one builder that tau
uses too, which hands ``polyhedra.newton_polyhedron`` the ideal itself.
The root route climbs the chain of trace roots C_q (``ideals.trace_root``)
over the q with (q-1)*w a lattice point and reads no Newton polyhedron: it
reads each power a^n only through the floors of its ray coordinates
(``ideals._floors``), taken from the sums of the multisets of n of a's
rows; C_q and both its checks stay on ray coordinates, and only the
returned value becomes points.
Both tight-closure searches are one search (``_multiplier_searches``): c
works at q iff c*z^q*A_q lies in B_q, on ray coordinates, with (A_q, B_q)
= (a^ceil(tq), I^[q]) for tight closure and (the unit ideal, the q-th
powers) for tight integral closure; the candidates c are the lattice points
of sigma_dual with every ray coordinate at most cbox.  The searches read
their powers over the q-sweep from one lazy ``ideals.powers`` chain per
ideal; a batch of points z shares the rows and candidates, and the
single-point forms are batches of one.
Every route runs on every toric ring, on Python ints and Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from operator import le

from . import enumeration
from .enumeration import _union, by_degree
# minimal_upset_generators is bound here only for perfbench/layers.py
from .enumeration import minimal_upset_generators  # noqa: F401
from .errors import (
    InputError,
    InvariantError,
    NotStabilizedError,
    UnsupportedRingError,
)
# power, minimalize and frobenius_root are bound here only for
# perfbench/layers.py, which wraps them at this module
from .ideals import (  # noqa: F401
    MonomialIdeal,
    _check_same_ring,
    _covers,
    _derived,
    _floors,
    _from_rows,
    _ray_coords,
    _upset_union,
    frobenius_root,
    minimalize,
    power,
    powers,
)
from .lattice import IntVec, ToricRing, check_ring, int_scalar, int_vector, int_vectors
from .lattice import pairing, pairing_columns, sequence, vec_add, vec_neg, vec_scale, vec_sub
from .polyhedra import NewtonPolyhedron, _compile, exponent
# newton_polyhedron is bound here only for perfbench/layers.py, which wraps
# it at this module; the socle route builds t*P(a) in tau._scaled_polyhedron
from .polyhedra import newton_polyhedron  # noqa: F401
from .tau import _check_request, _scaled_polyhedron

STATUS_STABILIZED = "stabilized"
STATUS_FAILS = "fails_at_q"
STATUS_HOLDS = "holds_up_to_qmax"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a finite-q experiment with its examined range."""

    status: str
    witness: object
    qmax: int
    p: int


# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86, 2017); the bases up to 37 alone are fooled by
# 318665857834031151167461 = 399165290221 * 798330580441.
MILLER_RABIN_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the primes up to 41, exact for
    n < MILLER_RABIN_BOUND; InputError at or above it, where the answer
    would be unproven."""
    if n >= MILLER_RABIN_BOUND:
        raise InputError(f"cannot prove p = {n} prime: p >= {MILLER_RABIN_BOUND}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int) -> None:
    if not _is_prime(p):
        raise InputError(f"the characteristic p = {p} is not prime")


def q_sweep(qmax: int, p: int) -> list[int]:
    if int_scalar("p", p) < 2 or int_scalar("qmax", qmax) < p:
        raise InputError(f"need qmax >= p >= 2, got qmax={qmax}, p={p}")
    _check_prime(p)
    qs = []
    q = p
    while q <= qmax:
        qs.append(q)
        q *= p
    return qs


def _check_q(q: int, p: int) -> None:
    _check_prime(int_scalar("p", p))
    if int_scalar("q", q) < 1:
        raise InputError(f"q must be positive, got {q}")
    r = q
    while r % p == 0:
        r //= p
    if r != 1:
        raise InputError(f"q = {q} is not a power of p = {p}")


def _corner_offsets(ring: ToricRing, c: int) -> tuple[IntVec, ...]:
    """The minimal generators, in (l, lex) order, of the up-set of the ray
    coordinates >= (c, ..., c) (``ideals._upset_union``; the origin alone at
    c = 0)."""
    rows = _upset_union(ring, [(c,) * len(ring.sigma.rays)])
    return tuple(by_degree(ring, _from_rows(ring, rows).gens))


@cache
def _socle_corners(ring: ToricRing, q: int) -> tuple[IntVec, ...]:
    """The sigma_dual-maximal lattice points of (q-1)*w - sigma_dual, made
    once per ring and q, on ints alone.

    With r the Gorenstein index and c = -(q-1) mod r, top = q-1+c is the
    least multiple of r not below q-1, so top*w = (top/r)*(r*w) is a
    lattice point (``ToricRing.index_w``), and x = top*w - y lies in
    (q-1)*w - sigma_dual iff <y, n_i> >= c for every ray n_i of sigma.
    Those y form an up-closed set, so the corners are top*w minus its
    minimal generators (``_corner_offsets``); for c = 0 (always on
    Gorenstein rings) that leaves (q-1)*w itself.
    """
    r = ring.gorenstein_index
    c = (1 - q) % r
    topw = vec_scale((q - 1 + c) // r, ring.index_w())
    return tuple(vec_sub(topw, y) for y in _corner_offsets(ring, c))


def _corner_inequalities(ring: ToricRing, tP: NewtonPolyhedron, q: int):
    """(corner x, integer facet pairs of the m with m + x/q in tP) per
    corner: the compile core ``polyhedra._compile`` of the integer corner
    x over the one denominator q, both checked already."""
    return [(x, _compile(tP, x, q, strict=False)) for x in _socle_corners(ring, q)]


def _socle_witness(ring: ToricRing, tP: NewtonPolyhedron, u: IntVec, q: int):
    """A lattice point of (q*u + q*tP) cap ((q-1)*w - sigma_dual), or None.

    Under sigma_dual cap M, q*u + q*tP is up-closed and (q-1)*w - sigma_dual
    down-closed with every lattice point below a corner, so the intersection
    is nonempty iff it holds a corner.
    """
    m = vec_neg(u)
    return next(
        (x for x, ineqs in _corner_inequalities(ring, tP, q)
         if all(pairing(m, a) >= c for a, c in ineqs)),
        None,
    )


def _validate_socle_point(ring: ToricRing, u) -> IntVec:
    u = int_vector(u)
    if not check_ring(ring).in_semigroup(vec_neg(u)):
        raise InputError(f"{u} is not in -sigma_dual cap M")
    return u


def socle_piece_vanishes_at_q(
    ring: ToricRing, a: MonomialIdeal, t, u, q: int, p: int = 2
) -> bool:
    """Emptiness of (q*u + q*t*P(a)) cap ((q-1)*w - sigma_dual) cap M."""
    _check_q(q, p)
    u = _validate_socle_point(ring, u)
    return _socle_witness(ring, _scaled_polyhedron(ring, a, t), u, q) is None


def in_star_E(
    ring: ToricRing, a: MonomialIdeal, t, u, qmax: int = 128, p: int = 2
) -> Verdict:
    """Finite-q probe of x^u lying in the a^t-tight closure of zero in E.

    Membership requires the socle piece to vanish at every q; a nonempty
    intersection at any single q refutes it with a concrete witness.
    """
    u = _validate_socle_point(ring, u)
    tP = _scaled_polyhedron(ring, a, t)
    for q in q_sweep(qmax, p):
        wit = _socle_witness(ring, tP, u, q)
        if wit is not None:
            return Verdict(status=STATUS_FAILS, witness=(q, wit), qmax=qmax, p=p)
    return Verdict(status=STATUS_STABILIZED, witness=None, qmax=qmax, p=p)


@dataclass(frozen=True)
class SocleOracleResult:
    """``points_checked``: the lines of the up-set kernel up to the degree
    bound ``tau_socle_oracle`` proves for its corners' up-sets (the slice
    bound instead for a corner the slice argument of
    ``enumeration.degree_bound`` covers), one per bottom of degree up to it
    (``enumeration._Lines``), whether the scan ran for this call or, in a
    ``sharing`` block, for an equal request; 0 when a lattice point
    realizes every corner's box (``enumeration._union``)."""

    ideal: MonomialIdeal
    points_checked: int


def tau_socle_oracle(
    ring: ToricRing, a: MonomialIdeal, t, qmax: int = 128, p: int = 2
) -> SocleOracleResult:
    """tau(a^t) via annihilation of the socle closure, point by point.

    x^m enters the ideal exactly when the socle piece at u = -m fails to
    vanish at some examined q.

    The witnessed m are the union over the corners x of the up-sets
    S_x = {m in sigma_dual cap M : m + x/q in tP}, q the top q, and every
    minimal generator m of S_x has l(m) < t*L + D - l(x)/q, with L the
    largest l over the points G of P (``NewtonPolyhedron.points``) and D
    the sum of the d largest l(r) over the rays r of sigma_dual (``_Lines``).
    Proof: tP = t*conv(G) + sigma_dual (sigma_dual at t = 0), so
    m + x/q - t*h lies in sigma_dual for some h in conv(G).  By
    Caratheodory it is sum lambda_i r_i over at most d extreme rays r_i.
    If some lambda_i >= 1, m - r_i meets the same condition with the same
    h, and on every ray n of sigma <m - r_i, n> >= t*<h, n> - <x, n>/q
    > -1, as h is in sigma_dual and <x, n> <= (q-1)*<w, n> = q - 1 for a
    corner x of (q-1)*w - sigma_dual.  So the integer point m - r_i lies in
    sigma_dual and in S_x, and m is not minimal.  Hence every lambda_i < 1,
    so l(sum lambda_i r_i) < D (also for an empty sum, as D > 0), and
    l(m) < D - l(x)/q + t*l(h) <= t*L + D - l(x)/q.  One bound covers
    every corner: with t = u/v and l(m) an integer, l(m) <= B =
    ceil((u*L*q + (D*q - min_x l(x))*v)/(v*q)) - 1.  The kernel takes B in
    place of the vertex double description of ``enumeration.degree_bound``
    for each corner's pairs.
    """
    tP = _scaled_polyhedron(ring, a, t)
    q = q_sweep(qmax, p)[-1]
    # Dividing the witnesses x at q by q, m is witnessed at q iff some y in
    # M/q has <y, n_i> <= (q-1)/q for every ray n_i and m + y in tP.  From q
    # to p*q the lattice M/q only grows and so does the bound (q-1)/q, so
    # this set only grows: some q <= qmax witnesses m iff the top q does.
    # There m is witnessed iff m + x/q_top lies in tP for some corner x.
    # The witnessed m form the union of one up-set per corner
    # (``enumeration._union``).  At t = 0 tP is sigma_dual, and the
    # corner above the origin witnesses it.
    corners = _corner_inequalities(ring, tP, q)
    lines = enumeration._lines(ring)
    u, v = tP.scale.numerator, tP.scale.denominator
    top = max(pairing(g, lines.ell) for g in tP.points)
    low = min(pairing(x, lines.ell) for x, _ in corners)
    num = u * top * q + (lines.D * q - low) * v
    bound = -(-num // (v * q)) - 1
    (gens, rows), checked = _union(ring, [ineqs for _, ineqs in corners], bound=bound)
    return SocleOracleResult(_derived(ring, gens, rows), checked)


def frobenius_root_tau_oracle(
    ring: ToricRing, a: MonomialIdeal, t, qmax: int = 128, p: int = 2
) -> MonomialIdeal:
    """tau(a^t) as the stabilized value of the chain of trace roots
    C_q = trace_root(a^n, q), n = ceil(t*q), over the admissible q <= qmax:
    the powers of p with (q-1)*w a lattice point, q = 1 mod the Gorenstein
    index (none when p divides it: UnsupportedRingError).  C_q is the
    up-set union (``ideals._upset_union``, as in ``trace_root``) of the
    boxes at the floors floor(rc(g)/q) of the ray coordinates rc of the
    g in a^n.  The chain works on rows: the union hands back the ray
    coordinates of C_q's generators, and the only points made are the
    returned value's (``ideals._from_rows``).  On a smooth sigma
    (``ToricRing.is_smooth``) no point is made before that: every floor is
    the ray coordinates of one lattice point, so every box is realized, and
    the rows are the minimal floors.  Every generator m of C_q must have
    q*rc(m) + q - 1 >= rc(g) for some g in a^n (q*m + (q-1)*w in a^n, as
    <w, n_j> = 1) and the chain must ascend, else InvariantError; both are
    checked on the rows.  The value is accepted once two consecutive q (the
    larger at least 16) agree, else NotStabilizedError.

    The boxes are the floors at q of the sums of the multisets of n of a's
    rows (``ideals._floors(a.rows, q, n)``), and they give the C_q of a^n's
    own floors: every multiset sum is rc(g) for a product g of n
    generators, so g in a^n, and every minimal generator of a^n is such a
    product.  floor(./q) is monotone, so each floor of the one set lies
    above a floor of the other, and the two box sets span one up-set.  Each
    floor comes from some g in a^n, so the per-q check below reads a^n.

    The first check is made on the floors: for integers x, y and q >= 1,
    y <= q*x + q - 1 iff floor(y/q) <= x, since y <= q*x + q - 1 < q*(x + 1)
    gives y/q < x + 1, and floor(y/q) <= x gives y = q*floor(y/q) + (y mod
    q) <= q*x + q - 1.  Applied on every ray, rc(g) <= q*rc(m) + q - 1 iff
    floor(rc(g)/q) <= rc(m), so some g lies below the lift of m iff some
    floor lies below rc(m), and the floors are far fewer than the rows.  A
    row of C_q that is itself a floor, as every row is on a smooth sigma,
    passes with no comparison."""
    t = _check_request(ring, a, t)
    r = ring.gorenstein_index
    qs = [q for q in q_sweep(qmax, p) if (q - 1) % r == 0]
    if r % p == 0:
        raise UnsupportedRingError(f"p = {p} divides the Gorenstein index {r}")
    prev = prev_q = None
    for q in qs:
        floors = _floors(a.rows, q, math.ceil(t * q))
        current = _upset_union(ring, floors)
        if not set(current) <= set(floors) and not _covers(floors, current):
            raise InvariantError(f"a generator m of C_{q} has q*m + (q-1)*w outside a^n")
        if prev is not None and not _covers(current, prev):
            raise InvariantError(f"root chain shrinks from q={prev_q} to q={q}")
        # the rays span, so equal ray coordinates mean equal generators
        if current == prev and q >= 16:
            return _from_rows(ring, current)
        prev, prev_q = current, q
    raise NotStabilizedError(f"root chain did not stabilize over the admissible q {qs}")


def _multiplier_searches(
    ring: ToricRing, zs, cbox: int, qmax: int, p: int, rows
) -> list[Verdict]:
    """One verdict per point z of ``zs``: is there a lattice point c of
    sigma_dual, every ray coordinate at most cbox, with c*z^q*A_q inside B_q
    at every q of the sweep?  ``rows(qs)`` gives the ray-coordinate rows
    (A_q, B_q) per q; c works at q iff each row of rc(c) + q*rc(z) + A_q
    lies above some row of B_q.  The candidates go in (l, lex) order (l sums
    the ray coordinates, so ``lattice_points_upto`` up to cbox * #rays holds
    them all; it reads them off the bottoms of the up-set kernel's lines,
    the ring's one semigroup walk).  The first c that works at every q is
    the witness of holds_up_to_qmax; otherwise the witness of fails_at_q
    lists every c with the first q at which it failed.  Every z and cbox
    are checked, and the sweep and candidates built, before ``rows`` is
    called, once for all zs.
    """
    rzs = _ray_coords(ring, int_vectors(zs))
    if int_scalar("cbox", cbox) < 0:
        raise InputError("empty candidate box")
    qs = q_sweep(qmax, p)
    points = enumeration.lattice_points_upto(ring, cbox * len(ring.sigma.rays))
    coords = zip(*pairing_columns(points, ring.sigma.rays))
    candidates = [(c, rc) for c, rc in zip(points, coords) if max(rc) <= cbox]
    sweep = list(zip(qs, rows(qs)))

    def holds(v, A, B):
        return all(any(all(map(le, b, u)) for b in B) for u in (vec_add(v, g) for g in A))

    def search(rz):
        failures = []
        for c, rc in candidates:
            failing_q = next(
                (q for q, (A, B) in sweep if not holds(vec_add(rc, vec_scale(q, rz)), A, B)),
                None,
            )
            if failing_q is None:
                return Verdict(status=STATUS_HOLDS, witness=c, qmax=qmax, p=p)
            failures.append((c, failing_q))
        return Verdict(status=STATUS_FAILS, witness=tuple(failures), qmax=qmax, p=p)

    return [search(rz) for rz in rzs]


def tight_closure_members_at_q(
    I: MonomialIdeal,
    a: MonomialIdeal,
    t,
    zs,
    qmax: int = 128,
    cbox: int = 8,
    p: int = 2,
) -> list[Verdict]:
    """For each z of ``zs``, in order, search for a multiplier c with
    c*z^q*a^ceil(tq) inside I^[q] for all q (``_multiplier_searches`` with
    A_q the rows of a^ceil(tq) and B_q those of I^[q]).

    cbox bounds every ray coordinate of the candidates c.  Verdict
    holds_up_to_qmax carries the surviving c; fails_at_q carries the first
    failing q for every candidate.  The bracket powers of I and the one
    power chain of a serve every z.
    """
    _check_same_ring(I, a)
    t = exponent(t)

    def rows(qs):
        apowers = powers(a, [math.ceil(t * q) for q in qs])
        return [(A, [vec_scale(q, h) for h in I.rows]) for q, A in zip(qs, apowers)]

    return _multiplier_searches(I.ring, zs, cbox, qmax, p, rows)


def tight_closure_member_at_q(
    I: MonomialIdeal,
    a: MonomialIdeal,
    t,
    z,
    qmax: int = 128,
    cbox: int = 8,
    p: int = 2,
) -> Verdict:
    """``tight_closure_members_at_q`` at the one point z."""
    return tight_closure_members_at_q(I, a, t, [z], qmax, cbox, p)[0]


def tight_integral_closure_members_at_q(
    ideals, zs, qmax: int = 128, cbox: int = 8, p: int = 2
) -> list[Verdict]:
    """For each z of ``zs``, in order, search for c with c*z^q in the sum of
    ordinary q-th powers of the ideals (``_multiplier_searches`` with A_q
    the zero row and B_q the rows of every q-th power): cbox bounds every
    ray coordinate of the candidates c, and one power chain per ideal
    serves every z."""
    ideals = sequence("ideals", ideals)
    if not ideals:
        raise InputError("empty ideal list")
    for J in ideals:
        _check_same_ring(ideals[0], J)
    ring = ideals[0].ring
    zero = [(0,) * len(ring.sigma.rays)]

    def rows(qs):
        at_each_q = zip(*(powers(I, qs) for I in ideals))
        return [(zero, [g for qth in qths for g in qth]) for qths in at_each_q]

    return _multiplier_searches(ring, zs, cbox, qmax, p, rows)


def tight_integral_closure_at_q(
    ideals, z, qmax: int = 128, cbox: int = 8, p: int = 2
) -> Verdict:
    """``tight_integral_closure_members_at_q`` at the one point z."""
    return tight_integral_closure_members_at_q(ideals, [z], qmax, cbox, p)[0]
