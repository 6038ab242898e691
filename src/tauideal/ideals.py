"""Monomial ideals in a toric ring and their arithmetic.

Divisibility is semigroup membership of the difference of exponent vectors,
not componentwise comparison; that keeps Veronese-type rings correct.  The
zero ideal has an empty generator tuple, the unit ideal the single zero
vector.  Operations that only make sense over a polynomial (orthant) ring
refuse other rings loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import le

from .errors import (
    InputError,
    InvariantError,
    RingMismatchError,
    SemigroupMembershipError,
    UnsupportedRingError,
)
from .lattice import IntVec, ToricRing, toric_ring, vec_add, vec_sub

# Above this many vectors, minimal_vectors_orthant compares rows in numpy.
_NUMPY_CUTOFF = 400


@lru_cache(maxsize=None)
def _cached_orthant(d: int) -> ToricRing:
    return toric_ring(
        tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
    )


def _require_orthant(ring: ToricRing, op: str) -> None:
    if not ring.is_orthant():
        raise UnsupportedRingError(f"{op} is only supported over orthant rings")


def minimal_vectors_orthant(vectors) -> list[IntVec]:
    """Componentwise-minimal subset of a collection of nonnegative vectors."""
    vecs = sorted(set(vectors), key=lambda v: (sum(v), v))
    if len(vecs) > _NUMPY_CUTOFF and max(map(max, vecs)) < 2**63:
        # numpy only compares here, never adds, so int64 rows are exact.
        import numpy as np

        arr = np.array(vecs, dtype=np.int64)
        kept_idx: list[int] = []
        kept = np.empty((0, arr.shape[1]), dtype=np.int64)
        for i in range(len(vecs)):
            if kept_idx and bool((kept <= arr[i]).all(axis=1).any()):
                continue
            kept_idx.append(i)
            kept = arr[kept_idx]
        return [vecs[i] for i in kept_idx]
    kept_list: list[IntVec] = []
    for v in vecs:
        if not any(all(map(le, k, v)) for k in kept_list):
            kept_list.append(v)
    return kept_list


@dataclass(frozen=True)
class MonomialIdeal:
    ring: ToricRing
    gens: tuple[IntVec, ...]

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return self.gens == (tuple(0 for _ in range(self.ring.d)),)

    def contains_monomial(self, m) -> bool:
        """True iff some generator divides x^m in the semigroup sense."""
        m = tuple(m)
        if not self.ring.in_semigroup(m):
            raise SemigroupMembershipError(f"{m} is outside the semigroup")
        return any(
            self.ring.in_semigroup(vec_sub(m, g)) for g in self.gens
        )

    def is_subideal_of(self, other: "MonomialIdeal") -> bool:
        _check_same_ring(self, other)
        return all(other.contains_monomial(g) for g in self.gens)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return multiply(self, other)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return ideal_sum(self, other)

    def __pow__(self, n: int) -> "MonomialIdeal":
        return power(self, n)


def _check_same_ring(I: MonomialIdeal, J: MonomialIdeal) -> None:
    if I.ring != J.ring:
        raise RingMismatchError("ideals live in different rings")


def minimalize(ring: ToricRing, raw_gens) -> MonomialIdeal:
    """Divisibility-minimal generating set; the unit ideal normalizes to {0}."""
    gens = sorted({tuple(g) for g in raw_gens})
    for g in gens:
        if not ring.in_semigroup(g):
            raise SemigroupMembershipError(f"generator {g} outside the semigroup")
    zero = tuple(0 for _ in range(ring.d))
    if zero in gens:
        return MonomialIdeal(ring=ring, gens=(zero,))
    if ring.is_orthant():
        minimal = minimal_vectors_orthant(gens)
    else:
        minimal = []
        for g in gens:
            dominated = any(
                h != g and ring.in_semigroup(vec_sub(g, h)) for h in gens
            )
            if not dominated:
                minimal.append(g)
    return MonomialIdeal(ring=ring, gens=tuple(sorted(minimal)))


def unit_ideal(ring: ToricRing) -> MonomialIdeal:
    return MonomialIdeal(ring=ring, gens=(tuple(0 for _ in range(ring.d)),))


def zero_ideal(ring: ToricRing) -> MonomialIdeal:
    return MonomialIdeal(ring=ring, gens=())


def multiply(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_same_ring(I, J)
    if I.is_zero() or J.is_zero():
        return zero_ideal(I.ring)
    return minimalize(
        I.ring, {vec_add(g, h) for g in I.gens for h in J.gens}
    )


def ideal_sum(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _check_same_ring(I, J)
    return minimalize(I.ring, I.gens + J.gens)


def power(I: MonomialIdeal, n: int) -> MonomialIdeal:
    if n < 0:
        raise InputError(f"negative power {n}")
    if n == 0:
        return unit_ideal(I.ring)
    result = None
    base = I
    k = n
    while k:
        if k & 1:
            result = base if result is None else multiply(result, base)
        k >>= 1
        if k:
            base = multiply(base, base)
    return result


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Intersection via componentwise maxima (orthant rings only)."""
    _check_same_ring(I, J)
    _require_orthant(I.ring, "intersect")
    if I.is_zero() or J.is_zero():
        return zero_ideal(I.ring)
    return minimalize(
        I.ring,
        {
            tuple(max(a, b) for a, b in zip(g, h))
            for g in I.gens
            for h in J.gens
        },
    )


def colon(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """The largest K with K*J contained in I (orthant rings only)."""
    _check_same_ring(I, J)
    _require_orthant(I.ring, "colon")
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
        result = piece if result is None else intersect(result, piece)
    return result


def bracket_power(I: MonomialIdeal, q: int) -> MonomialIdeal:
    """Generators scaled by q (the q-th Frobenius bracket power)."""
    if q < 1:
        raise InputError(f"bracket power needs q >= 1, got {q}")
    return MonomialIdeal(
        ring=I.ring, gens=tuple(sorted(tuple(q * x for x in g) for g in I.gens))
    )


def frobenius_root(I: MonomialIdeal, q: int) -> MonomialIdeal:
    """Smallest monomial J with bracket_power(J, q) containing I.

    Orthant rings only: componentwise floor division of the generators.
    """
    _require_orthant(I.ring, "frobenius_root")
    if q < 1:
        raise InputError(f"frobenius root needs q >= 1, got {q}")
    root = minimalize(I.ring, {tuple(x // q for x in g) for g in I.gens})
    if not I.is_subideal_of(bracket_power(root, q)):
        raise InvariantError(f"the q = {q} root of {I.gens} does not cover it")
    return root


def kill_variable(I: MonomialIdeal, axis: int) -> MonomialIdeal:
    """Image of I in the orthant ring with variable ``axis`` (0-based) killed."""
    _require_orthant(I.ring, "kill_variable")
    d = I.ring.d
    if d < 2:
        raise InputError("cannot kill the only variable")
    if not 0 <= axis < d:
        raise InputError(f"axis {axis} out of range for rank {d}")
    small = _cached_orthant(d - 1)
    survivors = [
        g[:axis] + g[axis + 1:] for g in I.gens if g[axis] == 0
    ]
    if not survivors:
        return zero_ideal(small)
    return minimalize(small, survivors)


def integral_closure(I: MonomialIdeal) -> MonomialIdeal:
    """Monomials whose exponents lie in the Newton polyhedron of I."""
    from .enumeration import inequality_batch, minimal_upset_generators, upper_degree_seed
    from .polyhedra import lattice_inequalities, newton_polyhedron

    if I.is_zero():
        raise InputError("integral closure of the zero ideal is undefined")
    if I.is_unit():
        return I
    P = newton_polyhedron(I.ring, I.gens)
    gens = minimal_upset_generators(
        I.ring,
        inequality_batch(lattice_inequalities(P)),
        upper_degree_seed(I.ring, P.vertices),
    )
    return MonomialIdeal(ring=I.ring, gens=tuple(sorted(gens)))
