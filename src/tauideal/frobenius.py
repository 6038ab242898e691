"""Finite-q Frobenius-side experiments and oracles.

Everything here works at concrete powers q = p^e of a prime p and reports
verdicts that carry the examined range: stabilization is evidence, not
proof, and the verdict names say so.  The socle route grades the injective
hull by -sigma_dual and tests emptiness of an exact lattice-point
intersection.  On orthant rings the socle oracle needs only the largest q of
the sweep, which it compiles into integer facet bounds
(``polyhedra.lattice_inequalities``); on other rings it scans a box of
lattice points at every q.  The root route climbs the ascending chain of
Frobenius roots.  All arithmetic is on Python ints and Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .enumeration import inequality_batch, minimal_upset_generators, upper_degree_seed
from .errors import InputError, NotStabilizedError, UnsupportedRingError
from .ideals import MonomialIdeal, frobenius_root, minimalize, power, unit_ideal
from .lattice import IntVec, ToricRing, pairing, vec_add, vec_neg, vec_scale
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
    t = Fraction(t)
    if t < 0:
        raise InputError(f"negative exponent t = {t}")
    return scale(newton_polyhedron(ring, a.gens), t)


def _socle_witness_orthant(tP: NewtonPolyhedron, u: IntVec, q: int):
    # z = x - q*u; x <= (q-1)*1 gives z <= U; facet normals are nonnegative,
    # so the componentwise maximum z* = U decides feasibility alone.
    zstar = tuple(q - 1 - q * ui for ui in u)
    for a_vec, b in tP.inequalities:
        if pairing(zstar, a_vec) * b.denominator < q * b.numerator:
            return None
    return vec_add(zstar, vec_scale(q, u))


def _independent_rows(rows, d):
    from .lattice import matrix_rank

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


def _validate_socle_point(ring: ToricRing, u) -> IntVec:
    u = tuple(u)
    if not ring.in_semigroup(tuple(-x for x in u)):
        raise InputError(f"{u} is not in -sigma_dual cap M")
    return u


def socle_piece_vanishes_at_q(
    ring: ToricRing, a: MonomialIdeal, t, u, q: int, p: int = 2, _tP=None
) -> bool:
    """Emptiness of (q*u + q*t*P(a)) cap ((q-1)*w - sigma_dual) cap M."""
    _check_q(q, p)
    u = _validate_socle_point(ring, u)
    tP = _tP if _tP is not None else _scaled_polyhedron(ring, a, t)
    if ring.is_orthant():
        return _socle_witness_orthant(tP, u, q) is None
    return _socle_witness_general(ring, tP, u, q) is None


def in_star_E(
    ring: ToricRing, a: MonomialIdeal, t, u, qmax: int = 128, p: int = 2
) -> Verdict:
    """Finite-q probe of x^u lying in the a^t-tight closure of zero in E.

    Membership requires the socle piece to vanish at every q; a nonempty
    intersection at any single q refutes it with a concrete witness.
    """
    u = _validate_socle_point(ring, u)
    tP = _scaled_polyhedron(ring, a, t)
    orthant = ring.is_orthant()
    for q in q_sweep(qmax, p):
        if orthant:
            wit = _socle_witness_orthant(tP, u, q)
        else:
            wit = _socle_witness_general(ring, tP, u, q)
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

    if ring.is_orthant():
        # At q the witness candidate is z* = (q-1)*1 + q*m (see
        # _socle_witness_orthant); for a facet <x, a> >= num/den it reads
        # q*(den*(S_a + <m, a>) - num) >= den*S_a, where S_a = <1, a>.
        # Orthant normals are >= 0, so this is linear in q with intercept
        # -den*S_a <= 0: once it holds at some q it holds at every larger q.
        # So some q <= qmax witnesses m iff the top q does, that is iff
        # m + (1 - 1/q_top)*w lies in tP (w = 1 on the orthant).
        shift = tuple((1 - Fraction(1, qs[-1])) * x for x in ring.w)
        test = inequality_batch(lattice_inequalities(tP, shift))
    else:

        def test(points):
            return [
                any(_socle_witness_general(ring, tP, vec_neg(m), q) is not None
                    for q in qs)
                for m in points
            ]

    checked = 0

    def member_batch(points):
        nonlocal checked
        checked += len(points)
        return test(points)

    gens = minimal_upset_generators(
        ring, member_batch, upper_degree_seed(ring, tP.vertices, shift=ring.w)
    )
    return SocleOracleResult(minimalize(ring, gens), checked)


def frobenius_root_tau_oracle(
    ring: ToricRing, a: MonomialIdeal, t, qmax: int = 128, p: int = 2
) -> MonomialIdeal:
    """tau(a^t) as the stabilized value of the Frobenius-root chain.

    Climbs frobenius_root(a^ceil(t*q), q) for q = p, p^2, ...; the chain must
    ascend, and the value is accepted once two consecutive q (with the larger
    at least 16) agree.  Raises NotStabilizedError otherwise.
    """
    if not ring.is_orthant():
        raise UnsupportedRingError("root oracle needs an orthant ring")
    if a.is_zero():
        raise InputError("root oracle needs a nonzero ideal")
    t = Fraction(t)
    if t < 0:
        raise InputError(f"negative exponent t = {t}")
    prev = None
    prev_q = None
    for q in q_sweep(qmax, p):
        n = math.ceil(t * q)
        current = frobenius_root(power(a, n), q)
        if prev is not None:
            if not prev.is_subideal_of(current):
                raise AssertionError(
                    f"root chain not ascending between q={prev_q} and q={q}"
                )
            if current == prev and q >= 16:
                return current
        prev, prev_q = current, q
    raise NotStabilizedError(
        f"Frobenius-root chain did not stabilize up to q = {qmax}"
    )


def _candidate_box(d: int, cbox: int):
    cands = sorted(product(range(cbox + 1), repeat=d), key=lambda c: (sum(c), c))
    return cands


def _in_bracket(v, gens, q: int) -> bool:
    return any(all(q * h_i <= v_i for h_i, v_i in zip(h, v)) for h in gens)


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


def tight_integral_closure_at_q(
    ideals, z, qmax: int = 128, cbox: int = 8, p: int = 2
) -> Verdict:
    """Search for c with c*z^q in the sum of ordinary q-th powers of the ideals."""
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
