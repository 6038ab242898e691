"""Finite-q Frobenius-side experiments and oracles.

Everything here works at concrete powers q = p^e of a prime p and reports
verdicts that carry the examined range: stabilization is evidence, not
proof, and the verdict names say so.  The socle route grades the injective
hull by -sigma_dual and tests emptiness of an exact lattice-point
intersection.  That intersection is nonempty iff it holds one of the
finitely many sigma_dual-maximal lattice points ("corners") of
(q-1)*w - sigma_dual, so each q costs one integer facet test
(``polyhedra.lattice_inequalities``) per corner, and the socle oracle needs
only the largest q of the sweep, on every ring.  The root route climbs the
ascending chain of Frobenius roots, and it and the tight-closure searches
take their powers over the q-sweep from one lazy ``ideals.powers`` chain.
All arithmetic is on Python ints and Fractions.
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
    DimensionMismatchError,
    InputError,
    InvariantError,
    NotStabilizedError,
    UnsupportedRingError,
)
# power and minimalize are bound here only for perfbench/layers.py, which
# wraps frobenius.power and frobenius.minimalize
from .ideals import (  # noqa: F401
    MonomialIdeal,
    _check_in_ring,
    _check_same_ring,
    frobenius_root,
    minimalize,
    power,
    powers,
    unit_ideal,
)
from .lattice import IntVec, ToricRing, vec_add, vec_neg, vec_scale, vec_sub
from .polyhedra import NewtonPolyhedron, lattice_inequalities, newton_polyhedron, scale

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


def _is_prime(n: int) -> bool:
    """Miller-Rabin over the primes up to 37: exact for n < 3.18e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
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
    t = Fraction(t)
    if t < 0:
        raise InputError(f"negative exponent t = {t}")
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
    u = tuple(u)
    if not ring.in_semigroup(tuple(-x for x in u)):
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
    if Fraction(t) == 0:
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
    """tau(a^t) as the stabilized value of the Frobenius-root chain.

    Climbs frobenius_root(a^ceil(t*q), q) for q = p, p^2, ...; the chain must
    ascend, and the value is accepted once two consecutive q (with the larger
    at least 16) agree.  Raises NotStabilizedError otherwise.  The powers
    come from one ``powers`` chain, so each is built from the one before
    and none past the accepted q is built.
    """
    _check_in_ring(ring, a)
    if not ring.is_orthant():
        raise UnsupportedRingError("root oracle needs an orthant ring")
    if a.is_zero():
        raise InputError("root oracle needs a nonzero ideal")
    t = Fraction(t)
    if t < 0:
        raise InputError(f"negative exponent t = {t}")
    qs = q_sweep(qmax, p)
    prev = None
    prev_q = None
    for q, an in zip(qs, powers(a, [math.ceil(t * q) for q in qs])):
        current = frobenius_root(an, q)
        if prev is not None:
            if not prev.is_subideal_of(current):
                raise InvariantError(
                    f"root chain not ascending between q={prev_q} and q={q}"
                )
            if current == prev and q >= 16:
                return current
        prev, prev_q = current, q
    raise NotStabilizedError(
        f"Frobenius-root chain did not stabilize up to q = {qmax}"
    )


def _check_length(ring: ToricRing, z) -> IntVec:
    z = tuple(z)
    if len(z) != ring.d:
        raise DimensionMismatchError(f"z has length {len(z)}, ring rank {ring.d}")
    return z


def _multiplier_search(d: int, cbox: int, qmax: int, p: int, holds) -> Verdict:
    """Try each multiplier c in [0, cbox]^d, by (degree, lex), at every q of
    the sweep; ``holds(c, q)`` says whether c works at q.  The first c that
    works at every q is the witness of holds_up_to_qmax; otherwise the
    witness of fails_at_q lists every c with the first q at which it failed.
    """
    qs = q_sweep(qmax, p)
    failures = []
    for c in sorted(product(range(cbox + 1), repeat=d), key=lambda c: (sum(c), c)):
        failing_q = next((q for q in qs if not holds(c, q)), None)
        if failing_q is None:
            return Verdict(status=STATUS_HOLDS, witness=c, qmax=qmax, p=p)
        failures.append((c, failing_q))
    return Verdict(status=STATUS_FAILS, witness=tuple(failures), qmax=qmax, p=p)


def tight_closure_member_at_q(
    I: MonomialIdeal,
    a: MonomialIdeal,
    t,
    z,
    qmax: int = 128,
    cbox: int = 8,
    p: int = 2,
) -> Verdict:
    """Search for a multiplier c with c*z^q*a^ceil(tq) inside I^[q] for all q.

    Verdict holds_up_to_qmax carries the surviving c; fails_at_q carries the
    first failing q for every candidate.
    """
    ring = I.ring
    _check_same_ring(I, a)
    if not ring.is_orthant():
        raise UnsupportedRingError("tight closure search needs an orthant ring")
    t = Fraction(t)
    z = _check_length(ring, z)
    if cbox < 0:
        raise InputError("empty candidate box")
    qs = q_sweep(qmax, p)
    apowers = {
        q: aq.gens for q, aq in zip(qs, powers(a, [math.ceil(t * q) for q in qs]))
    }

    def holds(c, q):
        qz = vec_add(c, vec_scale(q, z))
        return all(
            any(all(q * h_i <= v_i for h_i, v_i in zip(h, v)) for h in I.gens)
            for v in (vec_add(qz, g) for g in apowers[q])
        )

    return _multiplier_search(ring.d, cbox, qmax, p, holds)


def tight_integral_closure_at_q(
    ideals, z, qmax: int = 128, cbox: int = 8, p: int = 2
) -> Verdict:
    """Search for c with c*z^q in the sum of ordinary q-th powers of the ideals."""
    ideals = list(ideals)
    if not ideals:
        raise InputError("empty ideal list")
    for J in ideals[1:]:
        _check_same_ring(ideals[0], J)
    ring = ideals[0].ring
    if not ring.is_orthant():
        raise UnsupportedRingError("tight integral closure needs an orthant ring")
    z = _check_length(ring, z)
    if cbox < 0:
        raise InputError("empty candidate box")
    qs = q_sweep(qmax, p)
    chains = zip(*(powers(I, qs) for I in ideals))
    qpowers = {q: [Iq.gens for Iq in row] for q, row in zip(qs, chains)}

    def holds(c, q):
        v = vec_add(c, vec_scale(q, z))
        return any(all(map(le, g, v)) for gens in qpowers[q] for g in gens)

    return _multiplier_search(ring.d, cbox, qmax, p, holds)
