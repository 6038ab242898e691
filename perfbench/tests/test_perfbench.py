"""Tests of the benchmark harness itself (not of tauideal).

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_p90_needs_ten_samples_beyond_it():
    assert run.p90_with_tail(list(range(1, 101))) == (90.9, 10)
    assert run.p90_with_tail(list(range(1, 100))) is None
    assert run.p90_with_tail([1.0] * 5 + [2.0] * 7) is None


def test_reference_samples_are_subtracted_and_scale_by_their_mean():
    speed = run.Speed()
    speed.starts = [0.0, 0.5, 1.0, 1.5, 3.0]
    speed.times = [0.004, 0.008, 0.004, 0.004, 0.002]
    assert speed.stolen(0.4, 1.2) == 0.012
    assert speed.factor(0.45, 1.1) == run.REF_S / ((0.008 + 0.004) / 2)
    # no sample near: the next one
    assert speed.factor(2.4, 2.5) == run.REF_S / 0.002
    tally = run.Tally()
    tally.spans = [(0.4, 1.2)]
    tally.scale(speed)
    assert abs(tally.latencies[0] - 0.788) < 1e-12
    assert abs(tally.scaled[0] - 0.788 * run.REF_S / ((0.008 + 0.004) / 2)) < 1e-12


def test_sampling_takes_reference_samples_and_restores_the_handler():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    with run.Speed() as speed:
        end = perf_counter() + 2.5 * run.SAMPLE_S
        while perf_counter() < end:
            pass
    assert len(speed.times) >= 3 and speed.starts == sorted(speed.starts)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_subtracts_what_children_cover():
    tr = Tracer()
    tr.spans = [
        ["outer", 0.0, 10.0, -1, "i"],
        ["child", 1.0, 3.0, 0, "i"],
        ["grandchild", 1.5, 2.5, 1, "i"],
        ["child", 2.0, 4.0, 0, "i"],  # overlaps the first child: union is 1..4
        ["child", 6.0, 7.0, 0, "i"],
    ]
    assert tr.self_times() == [6.0, 1.0, 1.0, 2.0, 1.0]
    rows = tr.summary()
    assert rows["child"] == {"calls": 3, "self_s": 4.0, "incl_s": 5.0}
    assert tr.time_under("grandchild", "outer") == 1.0


def test_open_close_nest_through_wrappers():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Owner.inner(x) * 2

    tr = Tracer()
    tr.wrap(Owner, "inner", "inner")
    tr.wrap(Owner, "outer", "outer")
    assert Owner.outer(1) == 4
    assert [(s[0], s[3]) for s in tr.spans] == [("outer", -1), ("inner", 0)]
    tr.enabled = False
    assert Owner.outer(1) == 4 and len(tr.spans) == 2
    tr.restore()
    assert tr.installed == 0


def test_restore_puts_back_the_package_function_objects():
    names = ("lattice", "polyhedra", "enumeration", "ideals", "tau", "frobenius", "campaigns", "cli")
    mods = [workloads.module(n) for n in names]
    before = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    tr = Tracer()
    layers.install(tr)
    assert tr.installed > 30
    frobenius = workloads.module("frobenius")
    assert frobenius.power is not before[("tauideal.frobenius", "power")]
    tr.restore()
    after = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _crosscheck_batch(n):
    w = workloads.CrosscheckOrthant()
    return w, next(w.rounds(5))[:n]


def test_counts_repeat_exactly_across_traced_passes():
    w, batch = _crosscheck_batch(8)
    tr = Tracer()
    layers.install(tr)
    try:
        seen = []
        for _ in range(2):
            tr.reset()
            tally = run.Tally()
            for inst in batch:
                run.run_instance(w, inst, tally, tr)
            seen.append(layers.counters(tr, tally.kinds))
    finally:
        tr.restore()
    assert seen[0] == seen[1]
    assert seen[0]["frobenius.root_calls"] == len(batch)
    assert set(layers.PER_LAYER) >= set(seen[0])


def test_replay_instances_hit_the_root_plateau_defect():
    w, batch = _crosscheck_batch(2)
    assert [inst.label for inst in batch] == ["replay0", "replay1"]
    assert [w.check(inst, w.run(inst)) for inst in batch] == ["frobenius.root_disagree"] * 2


def test_gate_fires_on_a_planted_mismatch(monkeypatch):
    w, batch = _crosscheck_batch(3)
    inst = batch[2]
    campaigns = workloads.module("campaigns")
    ideals = workloads.module("ideals")
    # polyhedral tau made strictly smaller than the truth: the oracles'
    # answers then lie outside it
    monkeypatch.setattr(
        campaigns, "tau", lambda ring, a, t: ideals.power(workloads.maximal(ring), 20)
    )
    tally = run.Tally()
    run.run_instance(w, inst, tally)
    assert tally.kinds == {"gate": 1}
    assert "not inside tau" in tally.gate_errors[0]


def _run_one(w, inst):
    tally = run.Tally()
    run.run_instance(w, inst, tally)
    return tally


def _conclusive_instance(w, batch):
    """The first random instance on which every oracle agrees with tau."""
    for inst in batch[2:]:
        rep = w.run(inst)
        if not rep.failures and not rep.inconclusive and len(inst.ideal.gens) > 1:
            return inst
    raise AssertionError("no conclusive instance")


def test_gate_fires_on_a_root_answer_below_the_plateau(monkeypatch):
    w, batch = _crosscheck_batch(40)
    inst = _conclusive_instance(w, batch)
    assert not inst.label.startswith("replay")
    campaigns = workloads.module("campaigns")
    ideals = workloads.module("ideals")
    real = campaigns.frobenius_root_tau_oracle
    # a strict subideal of the true answer, as a wrong power() could give
    monkeypatch.setattr(
        campaigns, "frobenius_root_tau_oracle",
        lambda ring, a, t, qmax: ideals.multiply(real(ring, a, t, qmax), workloads.maximal(ring)),
    )
    tally = _run_one(w, inst)
    assert tally.kinds == {"gate": 1}
    assert "not the plateau value" in tally.gate_errors[0]


def test_gate_fires_on_a_socle_answer_below_tau(monkeypatch):
    w, batch = _crosscheck_batch(40)
    inst = _conclusive_instance(w, batch)
    campaigns = workloads.module("campaigns")
    ideals = workloads.module("ideals")
    real = campaigns.tau_socle_oracle
    monkeypatch.setattr(
        campaigns, "tau_socle_oracle",
        lambda ring, a, t, qmax, p: SimpleNamespace(
            ideal=ideals.multiply(real(ring, a, t, qmax, p).ideal, workloads.maximal(ring))
        ),
    )
    tally = _run_one(w, inst)
    assert tally.kinds == {"gate": 1}
    assert "socle_p2" in tally.gate_errors[0]


def test_root_chain_reference_matches_the_definition():
    ideals = workloads.module("ideals")
    w, batch = _crosscheck_batch(12)
    for inst in batch:
        for q in (2, 4, 8):
            n = -(-inst.t.numerator * q // inst.t.denominator)
            want = ideals.frobenius_root(ideals.power(inst.ideal, n), q)
            assert workloads.root_chain_value(inst.ideal.gens, inst.t, q) == want.gens


def test_brute_force_facets_match_the_newton_polyhedron():
    from random import Random

    polyhedra = workloads.module("polyhedra")
    ring = workloads.square_cone_ring()
    assert ring.w == workloads.SQUARE_W
    rng = Random(3)
    for _ in range(5):
        a = workloads.random_semigroup_ideal(rng, ring, 3, 3)
        P = polyhedra.newton_polyhedron(ring, a.gens)
        planes = workloads.supporting_planes(a.gens, workloads.SQUARE_RAYS)
        for m in workloads.square_cone_points(5):
            for strict in (False, True):
                assert P.contains(m, strict=strict) == workloads.in_scaled(planes, m, 1, strict)


def test_square_cone_gate_fires_on_a_wrong_tau():
    w = workloads.TauHighdim()
    ideals = workloads.module("ideals")
    inst = next(i for i in next(w.rounds(1)) if i.label.startswith("square r") and i.kind == "tau")
    got = w.run(inst)
    assert w.check(inst, got) is None
    for wrong in (ideals.multiply(got, got), ideals.unit_ideal(inst.ring)):
        with pytest.raises(workloads.GateError):
            w.check(inst, wrong)


def test_socle_gate_accepts_only_the_recorded_misses():
    w = workloads.SocleToric()
    ideals = workloads.module("ideals")
    tau_mod = workloads.module("tau")
    ring = w.rings[0]
    m = tau_mod.veronese_maximal_ideal(ring, 2, 2)
    inst = workloads.Instance("planted", ring, ideals.power(m, 3), Fraction(1))
    # tau(m^3) = m^3 in the second Veronese of k[x, y]
    assert w.check(inst, SimpleNamespace(ideal=ideals.power(m, 3))) is None
    for wrong in (ideals.power(m, 4), ideals.unit_ideal(ring)):
        with pytest.raises(workloads.GateError):
            w.check(inst, SimpleNamespace(ideal=wrong))
    (index, gens, t), answer = next(iter(w.MISSES.items()))
    ring = next(r for r in w.rings if r.gorenstein_index == index)
    inst = workloads.Instance("recorded", ring, ideals.minimalize(ring, gens), t)
    assert w.check(inst, w.run(inst)) == "frobenius.socle_disagree"
    assert w.run(inst).ideal.gens == answer
    smaller = ideals.multiply(ideals.minimalize(ring, answer), ideals.minimalize(ring, gens))
    with pytest.raises(workloads.GateError):
        w.check(inst, SimpleNamespace(ideal=smaller))
