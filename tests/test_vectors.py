"""Vector arguments that are not sequences of ints raise InputError."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tauideal.errors import InputError, TauIdealError
from tauideal.frobenius import (
    in_star_E,
    socle_piece_vanishes_at_q,
    tight_closure_member_at_q,
    tight_closure_members_at_q,
    tight_integral_closure_at_q,
    tight_integral_closure_members_at_q,
)
from tauideal.ideals import minimalize
from tauideal.lattice import cone_from_rays, dual_extreme_rays, orthant_ring, toric_ring
from tauideal.polyhedra import lattice_inequalities, newton_polyhedron

R = orthant_ring(2)
A = minimalize(R, [(2, 0), (0, 3)])
P = newton_polyhedron(R, A.gens)

# each of these raised a bare TypeError from tuple() or gcd()
NOT_INT_VECTORS = {
    "toric_ring float": lambda: toric_ring([(1.5, 0), (0, 1)]),
    "toric_ring str": lambda: toric_ring([("a", 0), (0, 1)]),
    "toric_ring None": lambda: toric_ring([None, (0, 1)]),
    "cone_from_rays float": lambda: cone_from_rays([(1.0, 0), (0, 1)]),
    "newton_polyhedron None": lambda: newton_polyhedron(R, [None]),
    "minimalize None": lambda: minimalize(R, [None]),
    "minimalize int": lambda: minimalize(R, [5]),
    "contains_monomial": lambda: A.contains_monomial(None),
    "in_semigroup": lambda: R.in_semigroup(None),
    "in_star_E": lambda: in_star_E(R, A, 1, None),
    "socle_piece_vanishes_at_q": lambda: socle_piece_vanishes_at_q(R, A, 1, 7, 4),
    "tight_closure_members_at_q": lambda: tight_closure_members_at_q(A, A, 1, [None]),
    "tight_closure_member_at_q": lambda: tight_closure_member_at_q(A, A, 1, 3),
    "tight_integral_closure_at_q": lambda: tight_integral_closure_at_q([A], None),
    # these raised a bare TypeError or AttributeError from tuple(), len(),
    # x.denominator, a pairing or gcd()
    "lattice_inequalities int": lambda: lattice_inequalities(P, 5),
    "lattice_inequalities None": lambda: lattice_inequalities(P, (None, 0)),
    "contains None": lambda: P.contains(None),
    "contains str": lambda: P.contains(("a", 0)),
    "dual_extreme_rays None": lambda: dual_extreme_rays([None]),
    "dual_extreme_rays float": lambda: dual_extreme_rays([(1.5, 0), (0, 1)]),
}


@pytest.mark.parametrize("name", sorted(NOT_INT_VECTORS))
def test_a_vector_that_is_not_an_int_sequence_is_an_input_error(name):
    with pytest.raises(InputError):
        NOT_INT_VECTORS[name]()


SCALARS = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.booleans(),
    st.floats(),
    st.fractions(max_denominator=4),
    st.text(max_size=2),
)
VECTORS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)

# entry points that take a vector from outside, with v in its place
ENTRY_POINTS = [
    lambda v: toric_ring([v, (0, 1)]),
    lambda v: minimalize(R, [v, (1, 1)]),
    lambda v: newton_polyhedron(R, [v, (1, 1)]),
    lambda v: A.contains_monomial(v),
    lambda v: R.in_semigroup(v),
    lambda v: in_star_E(R, A, Fraction(1, 2), v, qmax=4),
    lambda v: socle_piece_vanishes_at_q(R, A, 1, v, 4),
    lambda v: tight_closure_members_at_q(A, A, 1, [v], qmax=4, cbox=1),
    lambda v: tight_integral_closure_members_at_q([A], [(1, 1), v], qmax=4, cbox=1),
]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(VECTORS)
def test_only_package_errors_escape_from_a_vector_argument(v):
    for call in ENTRY_POINTS:
        try:
            call(v)
        except TauIdealError:
            pass


def test_rational_shifts_and_points_are_still_accepted():
    # the checks refuse what is not exact, not the Fractions the socle side passes
    half = (Fraction(1, 2), Fraction(1, 2))
    assert lattice_inequalities(P, half) == lattice_inequalities(P, [Fraction(1, 2)] * 2)
    assert lattice_inequalities(P, (0, 0)) == lattice_inequalities(P)
    assert P.contains((Fraction(2), Fraction(1, 3)))
    assert not P.contains((Fraction(1, 2), 0))
    assert dual_extreme_rays([(1, 0), (0, 1)]) == [(0, 1), (1, 0)]
