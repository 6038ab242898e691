"""Generalized test ideals of monomial ideals via the interior criterion.

x^m lies in tau(a^t) exactly when m + w is in the interior of t*P(a), where
P(a) is the Newton polyhedron, built from the canonical ideal a itself
(``polyhedra.newton_polyhedron``), and w the Q-Gorenstein vector.  That
test is compiled once into integer facet bounds <m, a> >= c by the core
``polyhedra._compile``, from the ring's own r*w over its Gorenstein index
r; generators are found by one scan of
the lines of sigma_dual cap M along a ray up to a proven degree bound, at
one floor division per pair and line (``enumeration._union``).
``tau_is_unit`` reads the same compile.  Every t, 0 included, takes this
one path.  A request (ring, a, t) is checked once, by ``_check_request``:
t is read only there, and a carries its own check.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .enumeration import _union, shared
from .errors import InputError
from .ideals import MonomialIdeal, _check_ideal, _derived, maximal_ideal
# minimal_upset_generators and minimalize are bound here only for perfbench/layers.py
from .enumeration import minimal_upset_generators  # noqa: F401
from .ideals import minimalize  # noqa: F401
from .lattice import IntVec, ToricRing, check_ring, int_scalar, primitivize, rank, toric_ring
from .lattice import unit_vectors
from .polyhedra import _compile, _scaled, exponent, newton_polyhedron


def _check_request(ring: ToricRing, a: MonomialIdeal, t) -> Fraction:
    """t as a Fraction, after checking a request to any route to tau(a^t)
    (the socle and root oracles too): InputError for an a that is not an
    ideal of the ring, the zero ideal or an unreadable or negative t.  a
    carries its own check (``MonomialIdeal``), and t is read only here."""
    _check_ideal(a)
    if a.ring != ring:
        raise InputError("ideal does not belong to the given ring")
    if a.is_zero():
        raise InputError("tau of the zero ideal is undefined")
    return exponent(t)


def _scaled_polyhedron(ring: ToricRing, a: MonomialIdeal, t):
    """t*P(a), after ``_check_request``: the one builder of a route's
    polyhedron (tau's, and the socle route's in ``frobenius``), with P(a)
    shared on (ring, a.gens) inside a ``sharing`` block."""
    t = _check_request(ring, a, t)
    P = shared(("newton", ring, a.gens), lambda: newton_polyhedron(ring, a))
    return _scaled(P, t)


def _tau_inequalities(ring: ToricRing, a: MonomialIdeal, t):
    """The bounds (a, c), c > 0, cutting tau(a^t) out of sigma_dual cap M; none
    at t = 0, where t*P(a) is sigma_dual and <m + w, n> > 0 as <w, n> = 1.
    The shift w is the ring's own, r*w over r (``ToricRing.index_w``), so
    the compile core ``polyhedra._compile`` reads it with no check."""
    tP = _scaled_polyhedron(ring, a, t)
    return _compile(tP, ring.index_w(), ring.gorenstein_index, strict=True)


def tau(ring: ToricRing, a: MonomialIdeal, t) -> MonomialIdeal:
    """The generalized test ideal tau(a^t) as a monomial ideal."""
    return _derived(ring, *_union(ring, [_tau_inequalities(ring, a, t)])[0])


def tau_is_unit(ring: ToricRing, a: MonomialIdeal, t) -> bool:
    """Is the origin in tau(a^t)?  It meets every dropped bound c <= 0."""
    return not _tau_inequalities(ring, a, t)


def tau_veronese(d: int, r: int, l: int) -> int:
    """Closed-form exponent e with tau(m^l) = m^e in the r-th Veronese ring."""
    if min(int_scalar("d", d), int_scalar("r", r), int_scalar("l", l)) < 1:
        raise InputError("tau_veronese needs positive parameters")
    return max(math.ceil(Fraction(l) - Fraction(d - 1, r)), 0)


def veronese_ring(d: int, r: int) -> ToricRing:
    """The r-th Veronese of k[x_1..x_d] in adapted lattice coordinates.

    The first adapted coordinate is total degree divided by r; the others are
    the original exponents of x_2..x_d.
    """
    if min(rank(d), int_scalar("r", r)) < 1:
        raise InputError("veronese_ring needs positive parameters")
    return toric_ring(_veronese_rays(d, r))


def _veronese_rays(d: int, r: int) -> list[IntVec]:
    """The generators of sigma for ``veronese_ring(d, r)``: (r, -1, ..., -1)
    and the unit vectors e_2..e_d, linearly independent, so primitivized
    they are its extreme rays."""
    return [(r,) + (-1,) * (d - 1), *unit_vectors(d)[1:]]


def veronese_maximal_ideal(ring: ToricRing, d: int, r: int) -> MonomialIdeal:
    """The irrelevant maximal ideal of ``veronese_ring(d, r)``: its
    ``maximal_ideal``, whose Hilbert basis generators are the degree-r
    monomials of the polynomial ring, (1, c_2, ..., c_d) in adapted
    coordinates for the exponents c of x_2..x_d of sum <= r.  Any other
    ring is an InputError, as (d, r) name the ring.  Rings are equal iff
    their sigma's extreme rays are, so no cone is built to compare.
    """
    if min(rank(d), int_scalar("r", r)) < 1:
        raise InputError("veronese_maximal_ideal needs positive parameters")
    if set(check_ring(ring).sigma.rays) != set(map(primitivize, _veronese_rays(d, r))):
        raise InputError(f"the ring is not veronese_ring({d}, {r})")
    return maximal_ideal(ring)
