"""Finite-q Frobenius-side experiments and oracles.

Everything here works at concrete powers q = p^e of a prime p and reports
verdicts that carry the examined range: stabilization is evidence, not
proof, and the verdict names say so.  The socle route grades the injective
hull by -sigma_dual and tests emptiness of an exact lattice-point
intersection, nonempty iff it holds one of the finitely many
sigma_dual-maximal lattice points ("corners") of (q-1)*w - sigma_dual; so
each q costs one integer facet test (``polyhedra.lattice_inequalities``) per
corner, and the socle oracle needs only the largest q of the sweep.  The
root route climbs the chain of trace roots (``ideals.trace_root``) over the
q with (q-1)*w a lattice point, and reads the rays of sigma and the powers'
generators, never a Newton polyhedron.  It and the tight-closure searches
take their powers over the q-sweep from one lazy ``ideals.powers`` chain.
The searches compare ray coordinates, and their candidate multipliers are
the lattice points of sigma_dual with every ray coordinate at most cbox.
They take a batch of points z: one call builds the bracket powers, one
chain per ideal and the candidates once for every z, and the single-point
forms are batches of one.
Every route runs on every toric ring, on Python ints and Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from operator import le

from .enumeration import degree_bound, inequality_batch, minimal_upset_generators
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
    _check_in_ring,
    _check_same_ring,
    _ray_coords,
    frobenius_root,
    minimalize,
    power,
    powers,
    trace_root,
    unit_ideal,
)
from .lattice import IntVec, ToricRing, basis_inverse, int_vector, pairing_columns
from .lattice import vec_add, vec_neg, vec_scale, vec_sub
from .polyhedra import (
    NewtonPolyhedron,
    exponent,
    lattice_inequalities,
    newton_polyhedron,
    scale,
)

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
    if p < 2 or qmax < p:
        raise InputError(f"need qmax >= p >= 2, got qmax={qmax}, p={p}")
    _check_prime(p)
    qs = []
    q = p
    while q <= qmax:
        qs.append(q)
        q *= p
    return qs


def _check_q(q: int, p: int) -> None:
    _check_prime(p)
    if q < 1:
        raise InputError(f"q must be positive, got {q}")
    r = q
    while r % p == 0:
        r //= p
    if r != 1:
        raise InputError(f"q = {q} is not a power of p = {p}")


def _scaled_polyhedron(ring: ToricRing, a: MonomialIdeal, t) -> NewtonPolyhedron:
    """t*P(a); every socle-side entry point gets a's ring checked here."""
    _check_in_ring(ring, a)
    t = exponent(t)
    return scale(newton_polyhedron(ring, a.gens), t)


@cache
def _corner_offsets(ring: ToricRing, c: int) -> tuple[IntVec, ...]:
    """The minimal generators of {y in sigma_dual cap M : <y, n_i> >= c for
    every ray n_i of sigma}; they depend only on the ring and c, so they are
    enumerated once per residue class of q - 1."""
    ineqs = [(n, c) for n in ring.sigma.rays]
    return tuple(minimal_upset_generators(
        ring, inequality_batch(ineqs), degree_bound(ring, ineqs)
    ))


def _socle_corners(ring: ToricRing, q: int) -> list[IntVec]:
    """The sigma_dual-maximal lattice points of (q-1)*w - sigma_dual.

    With r the Gorenstein index and c = -(q-1) mod r, top = q-1+c is the
    least multiple of r not below q-1, so top*w is a lattice point, and
    x = top*w - y lies in (q-1)*w - sigma_dual iff <y, n_i> >= c for every
    ray n_i of sigma.  Those y form an up-closed set, so the corners are
    top*w minus its minimal generators; for c = 0 (always on Gorenstein
    rings) the only corner is (q-1)*w itself.
    """
    c = (1 - q) % ring.gorenstein_index
    topw = tuple(int((q - 1 + c) * x) for x in ring.w)
    if c == 0:
        return [topw]
    return [vec_sub(topw, y) for y in _corner_offsets(ring, c)]


def _corner_inequalities(ring: ToricRing, tP: NewtonPolyhedron, q: int):
    """(corner x, integer facet pairs of the m with m + x/q in tP) per corner."""
    return [
        (x, lattice_inequalities(tP, [Fraction(xi, q) for xi in x]))
        for x in _socle_corners(ring, q)
    ]


def _socle_witness(ring: ToricRing, tP: NewtonPolyhedron, u: IntVec, q: int):
    """A lattice point of (q*u + q*tP) cap ((q-1)*w - sigma_dual), or None.

    Under sigma_dual cap M, q*u + q*tP is up-closed and (q-1)*w - sigma_dual
    down-closed with every lattice point below a corner, so the intersection
    is nonempty iff it holds a corner.
    """
    m = vec_neg(u)
    return next(
        (x for x, ineqs in _corner_inequalities(ring, tP, q)
         if inequality_batch(ineqs)([m])[0]),
        None,
    )


def _validate_socle_point(ring: ToricRing, u) -> IntVec:
    u = int_vector(u)
    if not ring.in_semigroup(vec_neg(u)):
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
    ideal: MonomialIdeal
    points_checked: int


def tau_socle_oracle(
    ring: ToricRing, a: MonomialIdeal, t, qmax: int = 128, p: int = 2
) -> SocleOracleResult:
    """tau(a^t) via annihilation of the socle closure, point by point.

    x^m enters the ideal exactly when the socle piece at u = -m fails to
    vanish at some examined q.
    """
    if a.is_zero():
        raise InputError("socle oracle needs a nonzero ideal")
    tP = _scaled_polyhedron(ring, a, t)
    qs = q_sweep(qmax, p)
    if tP.scale == 0:
        return SocleOracleResult(unit_ideal(ring), 0)

    # Dividing the witnesses x at q by q, m is witnessed at q iff some y in
    # M/q has <y, n_i> <= (q-1)/q for every ray n_i and m + y in tP.  From q
    # to p*q the lattice M/q only grows and so does the bound (q-1)/q, so
    # this set only grows: some q <= qmax witnesses m iff the top q does.
    # There m is witnessed iff m + x/q_top lies in tP for some corner x.
    # The witnessed m form the union of one up-set per corner, and a minimal
    # generator of a union of up-sets is a minimal generator of one of them,
    # so the largest of the corners' degree bounds bounds them all.
    corner_ineqs = [ineqs for _, ineqs in _corner_inequalities(ring, tP, qs[-1])]
    batches = [inequality_batch(ineqs) for ineqs in corner_ineqs]
    checked = 0

    def member_batch(points):
        nonlocal checked
        checked += len(points)
        return [any(flags) for flags in zip(*(batch(points) for batch in batches))]

    gens = minimal_upset_generators(
        ring, member_batch, max(degree_bound(ring, ineqs) for ineqs in corner_ineqs)
    )
    return SocleOracleResult(MonomialIdeal(ring=ring, gens=tuple(sorted(gens))), checked)


def frobenius_root_tau_oracle(
    ring: ToricRing, a: MonomialIdeal, t, qmax: int = 128, p: int = 2
) -> MonomialIdeal:
    """tau(a^t) as the stabilized value of the chain of trace roots
    C_q = trace_root(a^ceil(t*q), q) over the admissible q <= qmax: the
    powers of p with (q-1)*w a lattice point, q = 1 mod the Gorenstein index
    (none when p divides it: UnsupportedRingError).  Every generator m of C_q
    must have q*m + (q-1)*w in a^ceil(t*q) and the chain must ascend, else
    InvariantError; the value is accepted once two consecutive q (the larger
    at least 16) agree, else NotStabilizedError.  The powers come lazily from
    one ``powers`` chain."""
    _check_in_ring(ring, a)
    if a.is_zero():
        raise InputError("root oracle needs a nonzero ideal")
    t = exponent(t)
    r = ring.gorenstein_index
    rw = tuple(int(r * x) for x in ring.w)
    qs = [q for q in q_sweep(qmax, p) if (q - 1) % r == 0]
    if r % p == 0:
        raise UnsupportedRingError(f"p = {p} divides the Gorenstein index {r}")
    prev = prev_q = None
    for q, an in zip(qs, powers(a, [math.ceil(t * q) for q in qs])):
        current = trace_root(an, q)
        qw = vec_scale((q - 1) // r, rw)
        lift = tuple(vec_add(vec_scale(q, m), qw) for m in current.gens)
        if not MonomialIdeal(ring, lift).is_subideal_of(an):
            raise InvariantError(f"a generator m of C_{q} has q*m + (q-1)*w outside a^n")
        if prev is not None and not prev.is_subideal_of(current):
            raise InvariantError(f"root chain shrinks from q={prev_q} to q={q}")
        if current == prev and q >= 16:
            return current
        prev, prev_q = current, q
    raise NotStabilizedError(f"root chain did not stabilize over the admissible q {qs}")


def _multipliers(ring: ToricRing, cbox: int) -> list[tuple[IntVec, IntVec]]:
    """The lattice points c of sigma_dual with every ray coordinate at most
    cbox, with those coordinates, in (l, lex) order: c = A v / D
    (``lattice.basis_inverse``) for v in [0, cbox]^d on the basis rays, when
    integral and inside the bound on every ray.  On the orthant, [0, cbox]^d."""
    _, inverse, den = basis_inverse(ring.sigma.rays)
    box = list(product(range(cbox + 1), repeat=ring.d))
    points = [
        tuple(x // den for x in m)
        for m in zip(*pairing_columns(box, inverse))
        if not any(x % den for x in m)
    ]
    coords = zip(*pairing_columns(points, ring.sigma.rays))
    kept = [(c, rc) for c, rc in zip(points, coords) if 0 <= min(rc) and max(rc) <= cbox]
    return sorted(kept, key=lambda pair: (sum(pair[1]), pair[0]))


def _multiplier_searches(
    ring: ToricRing, rzs, cbox: int, qmax: int, p: int, holds
) -> list[Verdict]:
    """One verdict per ray-coordinate vector rz of ``rzs``: try each
    multiplier c of ``_multipliers`` at every q of the sweep, where
    ``holds(v, q)``, v = rc(c) + q*rz with rc the ray coordinates of c, says
    whether c works at q.  The first c that works at every q is the witness
    of holds_up_to_qmax; otherwise the witness of fails_at_q lists every c
    with the first q at which it failed.  The sweep and the candidates are
    built once for all of ``rzs``.
    """
    qs = q_sweep(qmax, p)
    candidates = _multipliers(ring, cbox)

    def search(rz):
        failures = []
        for c, rc in candidates:
            failing_q = next(
                (q for q in qs if not holds(vec_add(rc, vec_scale(q, rz)), q)), None
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
    c*z^q*a^ceil(tq) inside I^[q] for all q.

    cbox bounds every ray coordinate rc of the candidates c, and c works at
    q iff each generator g of a^ceil(tq) has rc(c) + q*rc(z) + rc(g) >=
    q*rc(h) for some generator h of I.  Verdict holds_up_to_qmax carries the
    surviving c; fails_at_q carries the first failing q for every candidate.
    Every z and cbox are checked before any power is built; the bracket
    powers of I and the one power chain of a serve every z.
    """
    ring = I.ring
    _check_same_ring(I, a)
    t = exponent(t)
    rzs = _ray_coords(ring, [tuple(z) for z in zs])
    if cbox < 0:
        raise InputError("empty candidate box")
    qs = q_sweep(qmax, p)
    rh = _ray_coords(ring, I.gens)
    brackets = {q: [vec_scale(q, h) for h in rh] for q in qs}
    apowers = {
        q: _ray_coords(ring, aq.gens)
        for q, aq in zip(qs, powers(a, [math.ceil(t * q) for q in qs]))
    }

    def holds(v, q):
        return all(
            any(all(map(le, h, u)) for h in brackets[q])
            for u in (vec_add(v, g) for g in apowers[q])
        )

    return _multiplier_searches(ring, rzs, cbox, qmax, p, holds)


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
    ordinary q-th powers of the ideals: cbox bounds every ray coordinate rc
    of the candidates c, and c works at q iff rc(g) <= rc(c) + q*rc(z) for
    some generator g of some q-th power.  Every z and cbox are checked
    before any power is built; one power chain per ideal serves every z."""
    ideals = list(ideals)
    if not ideals:
        raise InputError("empty ideal list")
    for J in ideals[1:]:
        _check_same_ring(ideals[0], J)
    ring = ideals[0].ring
    rzs = _ray_coords(ring, [tuple(z) for z in zs])
    if cbox < 0:
        raise InputError("empty candidate box")
    qs = q_sweep(qmax, p)
    chains = zip(*(powers(I, qs) for I in ideals))
    qpowers = {
        q: _ray_coords(ring, [g for Iq in row for g in Iq.gens])
        for q, row in zip(qs, chains)
    }

    def holds(v, q):
        return any(all(map(le, g, v)) for g in qpowers[q])

    return _multiplier_searches(ring, rzs, cbox, qmax, p, holds)


def tight_integral_closure_at_q(
    ideals, z, qmax: int = 128, cbox: int = 8, p: int = 2
) -> Verdict:
    """``tight_integral_closure_members_at_q`` at the one point z."""
    return tight_integral_closure_members_at_q(ideals, [z], qmax, cbox, p)[0]
