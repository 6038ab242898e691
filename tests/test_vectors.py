"""Vector arguments that are not sequences of ints, and collections of
them that are not sequences, raise InputError."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from tauideal.campaigns import random_monomial_ideal, run_crosscheck
from tauideal.enumeration import degree_bound, lattice_points_upto, upset_union
from tauideal.errors import (
    DimensionMismatchError,
    InputError,
    SemigroupMembershipError,
    TauIdealError,
)
from tauideal.frobenius import (
    in_star_E,
    socle_piece_vanishes_at_q,
    tight_closure_member_at_q,
    tight_closure_members_at_q,
    tight_integral_closure_at_q,
    tight_integral_closure_members_at_q,
)
from tauideal.ideals import (
    MonomialIdeal,
    bracket_power,
    colon,
    frobenius_root,
    integral_closure,
    kill_variable,
    maximal_ideal,
    minimalize,
    multiply,
    power,
    trace_root,
    unit_ideal,
)
from tauideal.lattice import cone_from_rays, dual_cone, dual_extreme_rays, gorenstein_vector
from tauideal.lattice import orthant_ring, toric_ring
from tauideal.polyhedra import exponent, lattice_inequalities, newton_polyhedron, scale
from tauideal.tau import tau, veronese_maximal_ideal

R = orthant_ring(2)
A = minimalize(R, [(2, 0), (0, 3)])
P = newton_polyhedron(R, A.gens)
NAMED = [("A", A)]

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
    # collections that are not sequences raised a bare TypeError from
    # iterating them, and a name and ideal that are not a pair a ValueError
    "minimalize None collection": lambda: minimalize(R, None),
    "minimalize int collection": lambda: minimalize(R, 5),
    "newton_polyhedron None collection": lambda: newton_polyhedron(R, None),
    "newton_polyhedron int collection": lambda: newton_polyhedron(R, 5),
    "cone_from_rays None collection": lambda: cone_from_rays(None),
    "toric_ring int collection": lambda: toric_ring(5),
    "dual_extreme_rays None collection": lambda: dual_extreme_rays(None),
    "tight_closure_members_at_q None zs": lambda: tight_closure_members_at_q(A, A, 1, None),
    "tight_integral_closure_members_at_q None ideals":
        lambda: tight_integral_closure_members_at_q(None, [(1, 1)]),
    "tight_integral_closure_members_at_q int zs":
        lambda: tight_integral_closure_members_at_q([A], 5),
    "run_crosscheck None ideals": lambda: run_crosscheck(R, None, [1], qmax=4),
    "run_crosscheck None ts": lambda: run_crosscheck(R, NAMED, None, qmax=4),
    "run_crosscheck int primes": lambda: run_crosscheck(R, NAMED, [1], qmax=4, primes=2),
    "run_crosscheck no ideal": lambda: run_crosscheck(R, [("x",)], [1], qmax=4),
    # a str of exponents was split into its characters and ran t = 1 and 2
    "run_crosscheck str ts": lambda: run_crosscheck(R, NAMED, "12", qmax=4),
    # a bool exponent was read as t = 0 or 1
    "tau bool exponent": lambda: tau(R, A, True),
    # these raised an AttributeError from reading a None ideal's fields
    "integral_closure None": lambda: integral_closure(None),
    "power None": lambda: power(None, 2),
    "trace_root None": lambda: trace_root(None, 2),
    "bracket_power None": lambda: bracket_power(None, 2),
    "kill_variable None": lambda: kill_variable(None, 0),
    "frobenius_root None": lambda: frobenius_root(None, 2),
    # a list raised a TypeError from the ring cache's hash
    "orthant_ring list": lambda: orthant_ring([1]),
    # ideals built directly with fields of the wrong type raised a TypeError
    # or an AttributeError in the calls that read them, and a list generator
    # an unhashable-type TypeError in run_crosscheck's sharing key
    "MonomialIdeal None gens": lambda: MonomialIdeal(R, None).is_subideal_of(A),
    "MonomialIdeal None ring": lambda: multiply(MonomialIdeal(None, A.gens), A),
    "MonomialIdeal list gens": lambda: colon(A, MonomialIdeal(R, [(1, 0)])),
    "MonomialIdeal list generator":
        lambda: run_crosscheck(R, [("x", MonomialIdeal(R, ([1, 0],)))], [1], qmax=4),
    # the enumeration read a None ring's fields (AttributeError), a float or
    # str bound in range() (TypeError), and a pair's right-hand side in a
    # box (AttributeError), a floor division or the double description
    "lattice_points_upto None ring": lambda: lattice_points_upto(None, 3),
    "lattice_points_upto float bound": lambda: lattice_points_upto(R, 2.5),
    "lattice_points_upto str bound": lambda: lattice_points_upto(R, "3"),
    "upset_union None": lambda: upset_union(None, []),
    "upset_union float box pair": lambda: upset_union(R, [[((1, 0), 1.5)]]),
    "upset_union float pair": lambda: upset_union(R, [[((1, 1), 1.5)]]),
    "degree_bound str pair": lambda: degree_bound(R, [((1, 0), "x")]),
    # a polyhedron that is not one raised an AttributeError from its fields
    "lattice_inequalities None": lambda: lattice_inequalities(None),
    # a dict was read by its keys and a set in its iteration order, so
    # {0: 5, 1: 0} became (0, 1) and {7, 3} became (3, 7)
    "minimalize dict": lambda: minimalize(R, [{0: 5, 1: 0}]),
    "minimalize set": lambda: minimalize(R, [{7, 3}]),
    "minimalize frozenset": lambda: minimalize(R, [frozenset({7, 3})]),
    "contains_monomial dict": lambda: A.contains_monomial({0: 5, 1: 0}),
    "contains_monomial set": lambda: A.contains_monomial({7, 3}),
    "newton_polyhedron dict": lambda: newton_polyhedron(R, [{0: 1, 1: 1}]),
    "contains set": lambda: P.contains({1, 2}),
    "lattice_inequalities dict": lambda: lattice_inequalities(P, {0: 1, 1: 0}),
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
    # and with v in place of the whole collection
    lambda v: minimalize(R, v),
    lambda v: newton_polyhedron(R, v),
    lambda v: cone_from_rays(v),
    lambda v: toric_ring(v),
    lambda v: dual_extreme_rays(v),
    lambda v: tight_closure_members_at_q(A, A, 1, v, qmax=4, cbox=1),
    lambda v: tight_integral_closure_members_at_q(v, [(1, 1)], qmax=4, cbox=1),
    lambda v: tight_integral_closure_members_at_q([A], v, qmax=4, cbox=1),
    lambda v: run_crosscheck(R, v, [1], qmax=4),
    # the unit ideal's tau is the unit ideal at every t, so a float t such
    # as 1e308 is read and checked without an enumeration up to its degree
    lambda v: run_crosscheck(R, [("1", unit_ideal(R))], v, qmax=4),
    lambda v: run_crosscheck(R, NAMED, [1], qmax=4, primes=v),
    # with v in place of an enumeration's ring, bound or right-hand side
    lambda v: lattice_points_upto(v, 2),
    lambda v: lattice_points_upto(R, v),
    lambda v: upset_union(v, []),
    # a box, as a scan would run up to the degree of a huge Fraction v
    lambda v: upset_union(R, [[((1, 0), v)]]),
    lambda v: degree_bound(R, [((1, 1), v)]),
    lambda v: lattice_inequalities(v),
    # with v in place of an ideal, of its ring or of its generators
    lambda v: power(v, 2),
    lambda v: integral_closure(v),
    lambda v: trace_root(v, 3),
    lambda v: MonomialIdeal(v, A.gens).is_unit(),
    lambda v: MonomialIdeal(R, v).is_subideal_of(A),
    lambda v: colon(A, MonomialIdeal(R, v)),
    lambda v: power(MonomialIdeal(R, v), 2),
    lambda v: run_crosscheck(R, [("v", MonomialIdeal(R, v))], [1], qmax=4),
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
    # the checks refuse what is not exact, and take Fractions where a value
    # is rational by nature: a shift of lattice_inequalities or a point
    half = (Fraction(1, 2), Fraction(1, 2))
    assert lattice_inequalities(P, half) == lattice_inequalities(P, [Fraction(1, 2)] * 2)
    assert lattice_inequalities(P, (0, 0)) == lattice_inequalities(P)
    assert P.contains((Fraction(2), Fraction(1, 3)))
    assert not P.contains((Fraction(1, 2), 0))
    assert dual_extreme_rays([(1, 0), (0, 1)]) == [(0, 1), (1, 0)]
    # a pair's right-hand side is an int, as the compile core makes it: a
    # Fraction is refused, not read as its ceiling
    for c in (Fraction(3, 2), Fraction(2)):
        with pytest.raises(InputError):
            upset_union(R, [[((1, 1), c)]])
        with pytest.raises(InputError):
            degree_bound(R, [((1, 1), c)])
    # an exponent may still be a float or a string, as exponent's docstring says
    assert exponent(0.5) == exponent("1/2") == Fraction(1, 2)


# each of these but MonomialIdeal raised an AttributeError from reading the
# ring's fields, maximal_ideal of a list a TypeError from the Hilbert
# basis cache's hash, and run_crosscheck with no ideals returned an empty
# report
NOT_RINGS = {
    "run_crosscheck": lambda ring: run_crosscheck(ring, [], [1], qmax=4),
    "minimalize": lambda ring: minimalize(ring, [(1, 0)]),
    "newton_polyhedron": lambda ring: newton_polyhedron(ring, [(1, 0)]),
    "unit_ideal": lambda ring: unit_ideal(ring),
    "maximal_ideal": lambda ring: maximal_ideal(ring),
    "veronese_maximal_ideal": lambda ring: veronese_maximal_ideal(ring, 2, 2),
    "random_monomial_ideal": lambda ring: random_monomial_ideal(Random(0), ring),
    "MonomialIdeal": lambda ring: MonomialIdeal(ring, ((1, 0),)),
    "in_star_E": lambda ring: in_star_E(ring, A, 1, (0, 0), qmax=4),
    "socle_piece_vanishes_at_q": lambda ring: socle_piece_vanishes_at_q(ring, A, 1, (0, 0), 4),
}


@pytest.mark.parametrize("ring", [None, [1], R.sigma], ids=["None", "list", "cone"])
@pytest.mark.parametrize("name", sorted(NOT_RINGS))
def test_a_ring_that_is_not_a_toric_ring_is_an_input_error(name, ring):
    with pytest.raises(InputError):
        NOT_RINGS[name](ring)


# each of these raised an AttributeError from reading its argument's fields
NOT_CONES_OR_POLYHEDRA = {
    "dual_cone": dual_cone,
    "gorenstein_vector": gorenstein_vector,
    "scale": lambda P: scale(P, 1),
}


@pytest.mark.parametrize("value", [None, "x", R], ids=["None", "str", "ring"])
@pytest.mark.parametrize("name", sorted(NOT_CONES_OR_POLYHEDRA))
def test_a_cone_or_polyhedron_of_the_wrong_type_is_an_input_error(name, value):
    with pytest.raises(InputError):
        NOT_CONES_OR_POLYHEDRA[name](value)


# bracket_power scaled each of these generators unread, and kill_variable
# dropped them unread
BAD_GENERATORS = {
    "str entry": ((("a", 0),), InputError),
    "short": (((1,),), DimensionMismatchError),
    "outside": (((-1, 0),), SemigroupMembershipError),
}


@pytest.mark.parametrize("case", sorted(BAD_GENERATORS))
@pytest.mark.parametrize(
    "op", [lambda I: bracket_power(I, 2), lambda I: kill_variable(I, 0)],
    ids=["bracket_power", "kill_variable"],
)
def test_bracket_power_and_kill_variable_check_their_generators(op, case):
    gens, error = BAD_GENERATORS[case]
    with pytest.raises(error):
        op(MonomialIdeal(R, gens))
