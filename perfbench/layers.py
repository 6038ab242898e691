"""Which tauideal functions the traced run wraps, and the per-layer metrics.

Only module-boundary functions are wrapped.  Per-element helpers such as
``pairing`` or ``ToricRing.in_semigroup`` run millions of times per workload,
so wrapping them would make the traced run measure the tracer.
"""

from __future__ import annotations

from collections.abc import Sized

from tauideal.campaigns import CAMPAIGNS

from tracer import Tracer
from workloads import module


def _count(key: str, size):
    def after(tracer, args, kwargs, result):
        tracer.counts[key] += size(result)

    return after


def _traced_predicate(tracer: Tracer, member_batch):
    def predicate(points):
        tracer.counts["points_tested"] += len(points)
        idx = tracer.open("enumeration.predicate")
        try:
            return member_batch(points)
        finally:
            tracer.close(idx)

    return predicate


def _wrap_member_batch(tracer, args, kwargs):
    if "member_batch" in kwargs:
        kwargs = dict(kwargs, member_batch=_traced_predicate(tracer, kwargs["member_batch"]))
    else:
        args = (args[0], _traced_predicate(tracer, args[1]), *args[2:])
    return args, kwargs


def _materialize_gens(tracer, args, kwargs):
    # minimalize accepts any iterable; count it without consuming a generator
    raw = kwargs["raw_gens"] if "raw_gens" in kwargs else args[1]
    if not isinstance(raw, Sized):
        raw = list(raw)
        if "raw_gens" in kwargs:
            kwargs = dict(kwargs, raw_gens=raw)
        else:
            args = (args[0], raw, *args[2:])
    tracer.counts["minimalize_in"] += len(raw)
    return args, kwargs


def _nonzero_exit(tracer, args, kwargs, result):
    if result != 0:
        tracer.counts["nonzero_exits"] += 1


def _campaign_span(args, kwargs):
    name = args[0] if args else kwargs["name"]
    return f"campaigns.run.{name}"


def install(tracer: Tracer) -> None:
    """Wrap every listed function at each module that binds it."""
    lattice, polyhedra, enumeration = map(module, ("lattice", "polyhedra", "enumeration"))
    ideals, tau, frobenius = map(module, ("ideals", "tau", "frobenius"))
    campaigns, cli = map(module, ("campaigns", "cli"))

    dd_out = _count("dd_rays_out", len)
    for owner in (lattice, polyhedra):
        tracer.wrap(owner, "dual_extreme_rays", "lattice.dd", after=dd_out)
    tracer.wrap(lattice, "matrix_rank", "lattice.rank")
    for owner in (lattice, tau, ideals, cli):
        tracer.wrap(owner, "toric_ring", "lattice.toric_ring")

    def newton_sizes(tr, args, kwargs, P):
        tr.counts["facets_total"] += len(P.inequalities)
        tr.counts["vertices_total"] += len(P.vertices)

    for owner in (polyhedra, tau, frobenius, campaigns, cli):
        tracer.wrap(owner, "newton_polyhedron", "polyhedra.newton", after=newton_sizes)

    gens_found = _count("gens_found", len)
    for owner in (enumeration, tau, frobenius):
        tracer.wrap(
            owner,
            "minimal_upset_generators",
            "enumeration.upset",
            after=gens_found,
            wrap_args=_wrap_member_batch,
        )
    tracer.wrap(enumeration, "lattice_points_upto", "enumeration.points_upto")

    power_out = _count("power_gens_out", lambda I: len(I.gens))
    for owner in (ideals, frobenius):
        tracer.wrap(owner, "power", "ideals.power", after=power_out)
    tracer.wrap(ideals, "multiply", "ideals.multiply")
    minimalize_out = _count("minimalize_out", lambda I: len(I.gens))
    for owner in (ideals, tau, frobenius):
        tracer.wrap(
            owner,
            "minimalize",
            "ideals.minimalize",
            after=minimalize_out,
            wrap_args=_materialize_gens,
        )
    for owner in (ideals, frobenius):
        tracer.wrap(owner, "frobenius_root", "ideals.frobenius_root")
    tracer.wrap(ideals, "colon", "ideals.colon")
    tracer.wrap(ideals, "integral_closure", "ideals.integral_closure")

    for owner in (tau, campaigns, cli):
        tracer.wrap(owner, "tau", "tau.tau")

    socle_points = _count("socle_points_checked", lambda r: r.points_checked)
    for owner in (frobenius, campaigns, cli):
        tracer.wrap(owner, "frobenius_root_tau_oracle", "frobenius.root")
        tracer.wrap(owner, "tau_socle_oracle", "frobenius.socle", after=socle_points)
    for owner in (frobenius, campaigns):
        tracer.wrap(owner, "tight_closure_member_at_q", "frobenius.tight")
        tracer.wrap(owner, "tight_integral_closure_at_q", "frobenius.tight")

    for owner in (campaigns, cli):
        tracer.wrap(owner, "run_crosscheck", "campaigns.crosscheck")
        tracer.wrap(owner, "run_campaign", _campaign_span)
    tracer.wrap(cli, "main", "cli.main", after=_nonzero_exit)


# Per-layer timings are reported as a share of the traced pass's wall time:
# a workload that never enters a layer then reads 0 %, not a constant time.
# The seconds behind each share are in the run's summary lines.
TIMES = {
    "lattice.dd_self_pct": lambda tr, s: s.self_s("lattice.dd"),
    "lattice.rank_self_pct": lambda tr, s: s.self_s("lattice.rank"),
    "lattice.toric_ring_pct": lambda tr, s: s.incl_s("lattice.toric_ring"),
    "polyhedra.newton_self_pct": lambda tr, s: s.self_s("polyhedra.newton"),
    "enumeration.upset_self_pct": lambda tr, s: s.self_s("enumeration.upset"),
    "enumeration.points_upto_pct": lambda tr, s: s.incl_s("enumeration.points_upto"),
    "enumeration.predicate_pct": lambda tr, s: s.incl_s("enumeration.predicate"),
    "ideals.power_pct": lambda tr, s: s.incl_s("ideals.power"),
    "ideals.minimalize_self_pct": lambda tr, s: s.self_s("ideals.minimalize"),
    "ideals.frobenius_root_self_pct": lambda tr, s: s.self_s("ideals.frobenius_root"),
    "ideals.colon_pct": lambda tr, s: s.incl_s("ideals.colon"),
    "ideals.integral_closure_pct": lambda tr, s: s.incl_s("ideals.integral_closure"),
    "tau.self_pct": lambda tr, s: s.self_s("tau.tau"),
    "frobenius.root_self_pct": lambda tr, s: s.self_s("frobenius.root"),
    "frobenius.root_power_pct": lambda tr, s: tr.time_under("ideals.power", "frobenius.root"),
    "frobenius.socle_self_pct": lambda tr, s: s.self_s("frobenius.socle"),
    "frobenius.socle_pct": lambda tr, s: s.incl_s("frobenius.socle"),
    "frobenius.tight_self_pct": lambda tr, s: s.self_s("frobenius.tight"),
    "frobenius.tight_power_pct": lambda tr, s: tr.time_under("ideals.power", "frobenius.tight"),
    "campaigns.crosscheck_self_pct": lambda tr, s: s.self_s("campaigns.crosscheck"),
    **{
        f"campaigns.run_pct.{name}": (lambda tr, s, n=name: s.incl_s(f"campaigns.run.{n}"))
        for name in CAMPAIGNS
    },
}

# Deterministic for a fixed instance list; two traced passes must agree.
COUNTS = {
    "lattice.dd_calls": lambda tr, s: s.calls("lattice.dd"),
    "lattice.dd_rays_out": lambda tr, s: tr.counts["dd_rays_out"],
    "lattice.rank_calls": lambda tr, s: s.calls("lattice.rank"),
    "polyhedra.newton_calls": lambda tr, s: s.calls("polyhedra.newton"),
    "polyhedra.facets_total": lambda tr, s: tr.counts["facets_total"],
    "polyhedra.vertices_total": lambda tr, s: tr.counts["vertices_total"],
    "enumeration.upset_calls": lambda tr, s: s.calls("enumeration.upset"),
    "enumeration.rounds": lambda tr, s: s.calls("enumeration.points_upto"),
    "enumeration.points_tested": lambda tr, s: tr.counts["points_tested"],
    "enumeration.gens_found": lambda tr, s: tr.counts["gens_found"],
    "ideals.power_calls": lambda tr, s: s.calls("ideals.power"),
    "ideals.power_gens_out": lambda tr, s: tr.counts["power_gens_out"],
    "ideals.multiply_calls": lambda tr, s: s.calls("ideals.multiply"),
    "ideals.minimalize_calls": lambda tr, s: s.calls("ideals.minimalize"),
    "ideals.minimalize_in": lambda tr, s: tr.counts["minimalize_in"],
    "ideals.minimalize_out": lambda tr, s: tr.counts["minimalize_out"],
    "tau.calls": lambda tr, s: s.calls("tau.tau"),
    "frobenius.root_calls": lambda tr, s: s.calls("frobenius.root"),
    "frobenius.root_q_steps": lambda tr, s: tr.count_under("ideals.frobenius_root", "frobenius.root"),
    "frobenius.socle_calls": lambda tr, s: s.calls("frobenius.socle"),
    "frobenius.socle_points_checked": lambda tr, s: tr.counts["socle_points_checked"],
    "frobenius.tight_calls": lambda tr, s: s.calls("frobenius.tight"),
    "cli.main_calls": lambda tr, s: s.calls("cli.main"),
    "cli.nonzero_exits": lambda tr, s: tr.counts["nonzero_exits"],
}

# Tallied by the workload's own correctness check, not by the spans.
OUTCOMES = ("frobenius.root_disagree", "frobenius.root_inconclusive", "frobenius.socle_disagree")

PER_LAYER = {
    **{name: "%" for name in TIMES},
    **{name: "count" for name in (*COUNTS, *OUTCOMES)},
    "enumeration.useful_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


class _Summary:
    def __init__(self, tracer: Tracer):
        self.rows = tracer.summary()

    def calls(self, name):
        return self.rows.get(name, {}).get("calls", 0)

    def self_s(self, name):
        return self.rows.get(name, {}).get("self_s", 0.0)

    def incl_s(self, name):
        return self.rows.get(name, {}).get("incl_s", 0.0)


def counters(tracer: Tracer, outcomes: dict[str, int]) -> dict:
    """The deterministic part of the per-layer metrics."""
    s = _Summary(tracer)
    values = {name: fn(tracer, s) for name, fn in COUNTS.items()}
    values.update({name: outcomes.get(name, 0) for name in OUTCOMES})
    tested = values["enumeration.points_tested"]
    values["enumeration.useful_ratio"] = (
        values["enumeration.gens_found"] / tested if tested else 0.0
    )
    return values


def seconds(tracer: Tracer) -> dict:
    """Seconds behind each share in TIMES."""
    s = _Summary(tracer)
    return {name: fn(tracer, s) for name, fn in TIMES.items()}


def per_layer(tracer: Tracer, outcomes: dict[str, int], wall_s: float, overhead: float) -> dict:
    """Every PER_LAYER value from one traced pass."""
    values = {
        name: 100.0 * secs / wall_s for name, secs in seconds(tracer).items()
    }
    values.update(counters(tracer, outcomes))
    values["trace.wall_s"] = wall_s
    values["trace.overhead_frac"] = overhead
    return values
