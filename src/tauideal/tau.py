"""Generalized test ideals of monomial ideals via the interior criterion.

x^m lies in tau(a^t) exactly when m + w is in the interior of t*P(a), where
P(a) is the Newton polyhedron and w the Q-Gorenstein vector.  That test is
compiled once into integer facet bounds <m, a> >= c
(``polyhedra.lattice_inequalities``), so every point costs only Python-int
dot products; generators are found by one graded lattice-point enumeration
up to a proven degree bound (``enumeration.upset_union``).  ``tau_is_unit``
reads the same compile.  Every t, 0 included, takes this one path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .enumeration import shared, upset_union
# minimal_upset_generators is bound here only for perfbench/layers.py
from .enumeration import minimal_upset_generators  # noqa: F401
from .errors import InputError
from .ideals import MonomialIdeal, _check_in_ring, minimalize
from .lattice import ToricRing, toric_ring
from .polyhedra import exponent, lattice_inequalities, newton_polyhedron, scale


def _check_request(ring: ToricRing, a: MonomialIdeal, t) -> Fraction:
    """t as a Fraction, after checking a request to any route to tau(a^t)
    (the socle and root oracles too): InputError for an ideal of another
    ring, the zero ideal or an unreadable or negative t."""
    _check_in_ring(ring, a)
    if a.is_zero():
        raise InputError("tau of the zero ideal is undefined")
    return exponent(t)


def _tau_inequalities(ring: ToricRing, a: MonomialIdeal, t):
    """The bounds (a, c), c > 0, cutting tau(a^t) out of sigma_dual cap M; none
    at t = 0, where t*P(a) is sigma_dual and <m + w, n> > 0 as <w, n> = 1."""
    t = _check_request(ring, a, t)
    P = shared(("newton", ring, a.gens), lambda: newton_polyhedron(ring, a.gens))
    return lattice_inequalities(scale(P, t), ring.w, strict=True)


def tau(ring: ToricRing, a: MonomialIdeal, t) -> MonomialIdeal:
    """The generalized test ideal tau(a^t) as a monomial ideal."""
    gens, _ = upset_union(ring, [_tau_inequalities(ring, a, t)])
    return MonomialIdeal(ring=ring, gens=gens)


def tau_is_unit(ring: ToricRing, a: MonomialIdeal, t) -> bool:
    """Is the origin in tau(a^t)?  It meets every dropped bound c <= 0."""
    return not _tau_inequalities(ring, a, t)


def tau_veronese(d: int, r: int, l: int) -> int:
    """Closed-form exponent e with tau(m^l) = m^e in the r-th Veronese ring."""
    if d < 1 or r < 1 or l < 1:
        raise InputError("tau_veronese needs positive parameters")
    return max(math.ceil(Fraction(l) - Fraction(d - 1, r)), 0)


def veronese_ring(d: int, r: int) -> ToricRing:
    """The r-th Veronese of k[x_1..x_d] in adapted lattice coordinates.

    The first adapted coordinate is total degree divided by r; the others are
    the original exponents of x_2..x_d.
    """
    if d < 1 or r < 1:
        raise InputError("veronese_ring needs positive parameters")
    gens = [(r,) + tuple(-1 for _ in range(d - 1))]
    for i in range(1, d):
        gens.append(tuple(1 if j == i else 0 for j in range(d)))
    return toric_ring(gens)


def veronese_maximal_ideal(ring: ToricRing, d: int, r: int) -> MonomialIdeal:
    """The irrelevant maximal ideal of the Veronese ring in adapted coordinates.

    Its generators correspond to the degree-r monomials of the polynomial
    ring: (1, c_2, ..., c_d) for the exponents c of x_2..x_d, of sum <= r.
    """
    tails = product(range(r + 1), repeat=d - 1)
    return minimalize(ring, [(1,) + c for c in tails if sum(c) <= r])
