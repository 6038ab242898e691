"""Theorem test campaigns and the oracle crosscheck.

Six campaigns draw seeded random instances through one driver, ``_seeded``,
five run fixed instances, and ``colon_formula`` mixes both.  Failure records
replay, and reports are deterministic given the seed.  Records are JSON-ready
as recorded: ``jsonable``, which the CLI also prints through, makes them."""

from __future__ import annotations

import inspect
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import product
from operator import add, le
from random import Random

from . import ideals as idl
from .enumeration import sharing
from .errors import InputError, NotStabilizedError, UnsupportedRingError
from .frobenius import (
    STATUS_HOLDS,
    frobenius_root_tau_oracle,
    q_sweep,
    tau_socle_oracle,
    tight_closure_member_at_q,
    tight_closure_members_at_q,
    tight_integral_closure_members_at_q,
)
# tight_integral_closure_at_q is bound here only for perfbench/layers.py,
# which wraps campaigns.tight_integral_closure_at_q
from .frobenius import tight_integral_closure_at_q  # noqa: F401
from .ideals import MonomialIdeal
from .lattice import ToricRing, check_ring, int_scalar, orthant_ring, sequence, unit_vectors
from .lattice import vec_scale
from .polyhedra import exponent, newton_polyhedron
from .tau import tau, tau_is_unit, tau_veronese, veronese_maximal_ideal, veronese_ring


@dataclass
class CampaignReport:
    campaign: str
    instances: int = 0
    passes: int = 0
    failures: list = field(default_factory=list)
    inconclusive: list = field(default_factory=list)
    wall_ms: int = 0

    def record(self, ok: bool, replay: dict) -> None:
        self.instances += 1
        if ok:
            self.passes += 1
        else:
            self.failures.append(replay)

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def ok(self) -> bool:
        return not self.failures and self.instances == self.passes


def random_monomial_ideal(
    rng: Random, ring: ToricRing, max_gens: int = 5, max_exp: int = 6
) -> MonomialIdeal:
    """Uniform exponent box, 1..max_gens generators, minimalized.

    Degenerate draws (the unit ideal) are kept, not resampled.
    """
    d = check_ring(ring).d
    k = rng.randint(1, max_gens)
    gens = [tuple(rng.randint(0, max_exp) for _ in range(d)) for _ in range(k)]
    return idl.minimalize(ring, gens)


def brute_force_colon(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Independent colon: box enumeration of monomials m with m*J inside I.

    Orthant rings only: elsewhere the members need not lie in the box.  On
    the orthant x^h divides x^v iff h <= v componentwise, so m is a member
    iff every m + g, g a generator of J, is above some generator of I."""
    ring = I.ring
    if not ring.is_orthant():
        raise UnsupportedRingError("brute_force_colon needs an orthant ring")
    hi = [max((g[k] for g in I.gens), default=0) for k in range(ring.d)]
    members = [
        m
        for m in product(*(range(h + 1) for h in hi))
        if all(
            any(all(map(le, h, map(add, m, g))) for h in I.gens)
            for g in J.gens
        )
    ]
    return idl.minimalize(ring, members)


def vertex_reduction(ring: ToricRing, a: MonomialIdeal) -> MonomialIdeal:
    """Subideal generated by the vertex generators; same Newton polyhedron.
    P's points are sorted, and no vertex is a multiple of another point."""
    return MonomialIdeal(ring=ring, gens=newton_polyhedron(ring, a.gens).points)


def jsonable(obj):
    """Recursive conversion to JSON-safe values: an ideal becomes its list of
    generator lists, a rational its 'num/den' string ('3' when integral)."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, MonomialIdeal):
        return [list(g) for g in obj.gens]
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    return obj


def _replay(**kw) -> dict:
    return jsonable(kw)


def _seeded(name: str, check, count: int, dims=(1, 2, 3)):
    """A campaign of count seeded random instances.  Each instance draws its
    rank d from dims, then check(rng, orthant_ring(d)) draws the rest and
    returns (ok, fields); the record replays as seed, index, d and fields."""

    def campaign(seed: int = 0, count: int = count) -> CampaignReport:
        rep = CampaignReport(name)
        rng = Random(seed)
        for i in range(count):
            d = rng.choice(dims)
            ok, fields = check(rng, orthant_ring(d))
            rep.record(ok, _replay(seed=seed, index=i, d=d, **fields))
        return rep

    return campaign


def _briancon_skoda(rng: Random, ring: ToricRing):
    a = random_monomial_ideal(rng, ring, max_gens=4, max_exp=4)
    r = len(a.gens)
    for n in range(0, 4):
        rhs = idl.power(a, n)
        if not (rhs.is_unit() or tau(ring, idl.power(a, n + r - 1), 1).is_subideal_of(rhs)):
            return False, {"a": a, "n": n}
    return True, {"a": a, "n": None}


def _subadditivity(rng: Random, ring: ToricRing):
    a = random_monomial_ideal(rng, ring, max_exp=5)
    b = random_monomial_ideal(rng, ring, max_exp=5)
    ok = tau(ring, a * b, 1).is_subideal_of(tau(ring, a, 1) * tau(ring, b, 1))
    return ok, {"a": a, "b": b}


def _restriction(rng: Random, ring: ToricRing):
    a = random_monomial_ideal(rng, ring)
    axis = rng.randrange(ring.d)
    image = idl.kill_variable(a, axis)
    rhs = idl.kill_variable(tau(ring, a, 1), axis)
    ok = image.is_zero() or tau(image.ring, image, 1).is_subideal_of(rhs)  # tau(0) = 0
    return ok, {"a": a, "axis": axis}


def _reduction_invariance(rng: Random, ring: ToricRing):
    a = random_monomial_ideal(rng, ring)
    b = vertex_reduction(ring, a)
    ok = all(tau(ring, b, t) == tau(ring, a, t) for t in (Fraction(1, 2), Fraction(1)))
    return ok, {"a": a, "b": b}


def _power_scaling(rng: Random, ring: ToricRing):
    a = random_monomial_ideal(rng, ring, max_exp=4)
    n = rng.randint(2, 4)
    t = rng.choice([Fraction(1, 2), Fraction(1), Fraction(3, 2)])
    ok = tau(ring, idl.power(a, n), t) == tau(ring, a, n * t)
    return ok, {"a": a, "n": n, "t": t}


def _tau_times_ideal(rng: Random, ring: ToricRing):
    a = random_monomial_ideal(rng, ring, max_exp=5)
    b = random_monomial_ideal(rng, ring, max_exp=5)
    ok = (tau(ring, a, 1) * b).is_subideal_of(tau(ring, a * b, 1))
    return ok, {"a": a, "b": b}


def campaign_regular_powers(seed: int = 0) -> CampaignReport:
    rep = CampaignReport("regular_powers")
    for d in range(1, 6):
        ring = orthant_ring(d)
        m = idl.maximal_ideal(ring)
        for n in range(1, 9):
            got = tau(ring, idl.power(m, n), 1)
            want = idl.power(m, max(n - d + 1, 0))
            rep.record(got == want, _replay(d=d, n=n, got=got, want=want))
    return rep


def campaign_veronese(seed: int = 0) -> CampaignReport:
    rep = CampaignReport("veronese")
    for d, r in [(2, 2), (2, 3), (3, 2)]:
        ring = veronese_ring(d, r)
        m = veronese_maximal_ideal(ring, d, r)
        for l in range(1, 6):
            e = tau_veronese(d, r, l)
            got = tau(ring, idl.power(m, l), 1)
            want = idl.power(m, e)  # m**0 is the unit ideal
            rep.record(got == want, _replay(d=d, r=r, l=l, e=e, got=got, want=want))
    return rep


def campaign_colon_formula(seed: int = 0) -> CampaignReport:
    rep = CampaignReport("colon_formula")
    rng = Random(seed)
    cases = []
    for d in (2, 3):
        for l in range(1, 5):
            cases.append((d, (l,) * d))
        for _ in range(3):
            cases.append((d, tuple(rng.randint(1, 4) for _ in range(d))))
    for d, ls in cases:
        ring = orthant_ring(d)
        J = idl.maximal_ideal(ring)
        Jl = idl.minimalize(ring, [vec_scale(l, e) for l, e in zip(ls, unit_vectors(d))])
        total = sum(ls)
        for r in range(1, total - d + 2):
            Jr = idl.power(J, r)
            got = idl.colon(Jl, Jr)
            want = idl.ideal_sum(idl.power(J, max(total - r - d + 1, 0)), Jl)
            brute = brute_force_colon(Jl, Jr)
            rep.record(
                got == want == brute,
                _replay(d=d, ls=ls, r=r, got=got, want=want, brute=brute),
            )
    return rep


def campaign_regularity(seed: int = 0) -> CampaignReport:
    rep = CampaignReport("regularity")
    for d in range(2, 6):
        ring = orthant_ring(d)
        m = idl.maximal_ideal(ring)
        ok = tau_is_unit(ring, idl.power(m, d - 1), 1)
        rep.record(ok, _replay(d=d))
    ring = orthant_ring(2)
    m = idl.maximal_ideal(ring)
    I = idl.bracket_power(m, 2)
    verdict = tight_closure_member_at_q(I, m, 1, (1, 1), qmax=128, cbox=6)
    witnessed = verdict.status != STATUS_HOLDS and all(
        q is not None for _, q in verdict.witness
    )
    rep.record(witnessed, _replay(test="xy_not_in_x2y2_star_m", status=verdict.status))
    return rep


def campaign_tic_vs_star(seed: int = 0) -> CampaignReport:
    """Tight integral closure vs a-tight closure on the d=2, l=2, r=1 instance."""
    rep = CampaignReport("tic_vs_star")
    ring = orthant_ring(2)
    J = idl.maximal_ideal(ring)
    Jl = idl.bracket_power(J, 2)
    family = [idl.power(J, 3), idl.minimalize(ring, [(2, 0)]),
              idl.minimalize(ring, [(0, 2)])]
    zs = [(x, total - x) for total in range(0, 7) for x in range(total + 1)]
    tics = tight_integral_closure_members_at_q(family, zs, qmax=128, cbox=6)
    stars = tight_closure_members_at_q(Jl, J, 1, zs, qmax=128, cbox=6)
    for z, tic, star in zip(zs, tics, stars):
        ok = (tic.status == STATUS_HOLDS) == (star.status == STATUS_HOLDS)
        rep.record(ok, _replay(z=z, tic=tic.status, star=star.status))
    return rep


def campaign_bs_integral(seed: int = 0) -> CampaignReport:
    """Containment of J^[l] + closure(J^(dl-r)) in the finite-q closure (J^[l])^*J^r."""
    rep = CampaignReport("bs_integral")
    ring = orthant_ring(2)
    J = idl.maximal_ideal(ring)
    d = 2
    for l in (1, 2):
        Jl = idl.bracket_power(J, l)
        for r in range(1, d * l):
            lhs = idl.ideal_sum(Jl, idl.integral_closure(idl.power(J, d * l - r)))
            verdicts = tight_closure_members_at_q(
                Jl, idl.power(J, r), 1, lhs.gens, qmax=128, cbox=6
            )
            for z, verdict in zip(lhs.gens, verdicts):
                rep.record(
                    verdict.status == STATUS_HOLDS,
                    _replay(l=l, r=r, z=z, status=verdict.status),
                )
    return rep


CAMPAIGNS = {
    "regular_powers": campaign_regular_powers,
    "veronese": campaign_veronese,
    "briancon_skoda": _seeded("briancon_skoda", _briancon_skoda, 100),
    "subadditivity": _seeded("subadditivity", _subadditivity, 100),
    "restriction": _seeded("restriction", _restriction, 100, dims=(2, 3)),
    "colon_formula": campaign_colon_formula,
    "regularity": campaign_regularity,
    "reduction_invariance": _seeded("reduction_invariance", _reduction_invariance, 50),
    "power_scaling": _seeded("power_scaling", _power_scaling, 50),
    "tau_times_ideal": _seeded("tau_times_ideal", _tau_times_ideal, 50),
    "tic_vs_star": campaign_tic_vs_star,
    "bs_integral": campaign_bs_integral,
}


def run_campaign(name: str, seed: int = 0, count: int | None = None) -> CampaignReport:
    """Run one campaign; a campaign whose function takes no count refuses one."""
    if name not in CAMPAIGNS:
        raise InputError(
            f"unknown campaign {name!r}; known: {', '.join(sorted(CAMPAIGNS))}"
        )
    fn = CAMPAIGNS[name]
    int_scalar("seed", seed)  # Random(None) seeds from the OS; a record must replay
    if count is not None:
        if "count" not in inspect.signature(fn).parameters:
            raise InputError(f"campaign {name!r} takes no count")
        if int_scalar("count", count) < 1:
            raise InputError(f"campaign {name!r} needs count >= 1, got {count}")
    start = time.monotonic()
    rep = fn(seed=seed) if count is None else fn(seed=seed, count=count)
    rep.wall_ms = int((time.monotonic() - start) * 1000)
    return rep


def run_crosscheck(
    ring: ToricRing, named_ideals, ts, qmax: int = 128, primes=(2, 3)
) -> CampaignReport:
    """Polyhedral vs socle (at each of primes) vs root (at the first of
    primes, skipped when it divides the Gorenstein index) on every (ideal, t).
    Each ideal's polyhedral and socle routes share P(a) and equal-pair
    enumerations in one ``sharing`` block, whose docstring says why that is
    sound and why it is a scope; the root route runs outside it."""
    primes = sequence("primes", primes)
    if not primes:
        raise InputError("crosscheck needs at least one prime")
    for p in primes:  # every prime and qmax is checked before any instance runs
        q_sweep(qmax, p)
    named = [sequence("a named ideal", pair) for pair in sequence("named_ideals", named_ideals)]
    if any(len(pair) != 2 for pair in named):
        raise InputError("each named ideal must be a (name, ideal) pair")
    root_p = primes[0]
    # the oracle gets p only off its default 2, so that a stand-in oracle
    # taking (ring, a, t, qmax), as in perfbench's gate tests, still fits
    extra = () if root_p == 2 else (root_p,)
    rep = CampaignReport("crosscheck")
    start = time.monotonic()
    ts = [exponent(t) for t in sequence("ts", ts)]
    for name, a in named:
        with sharing():
            routes = [{"polyhedral": tau(ring, a, t)} for t in ts]
            for t, results in zip(ts, routes):
                for p in primes:
                    results[f"socle_p{p}"] = tau_socle_oracle(ring, a, t, qmax, p).ideal
        for t, results in zip(ts, routes):
            if ring.gorenstein_index % root_p:
                try:
                    results["root"] = frobenius_root_tau_oracle(ring, a, t, qmax, *extra)
                except NotStabilizedError:
                    replay = _replay(ideal=name, t=t, oracle="root", qmax=qmax)
                    rep.inconclusive.append(replay)
            agree = all(v == results["polyhedral"] for v in results.values())
            rep.record(agree, _replay(ideal=name, t=t, **results))
    rep.wall_ms = int((time.monotonic() - start) * 1000)
    return rep
