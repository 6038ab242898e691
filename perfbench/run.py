"""tauideal benchmark: one workload, one process, no threads.

    python3 perfbench/run.py --workload crosscheck_orthant --seed 2024 --seconds 15 --trace 0

Run from the repository root; tauideal is imported from ``src/`` next to this
directory.  ``--trace 0`` measures the end-to-end metrics over a number of
whole rounds of instances fixed by ``--seconds`` (default: ``run_seconds`` of
BENCHMARK.json).  ``--trace 1`` runs a fixed
instance list three times (untraced, traced, traced again), reports the
per-layer metrics of the first traced pass, compares every count between the
two traced passes and writes the spans to ``perfbench/out/``.

End-to-end times are scaled to the speed of a reference loop timed in the
same run (see REF_S); the unscaled values are printed beside them.  Every
metric is printed with its name and unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "inst_per_s": "1/s",
    "latency_p50_ms": "ms",
    "pass_frac": "frac",
}
# Time of one reference_work() call on the 2-core shared Xeon machine at its fastest.
# The machine's speed swings by up to 2x within minutes as other tenants come
# and go, so every SAMPLE_S seconds of a timed pass a SIGALRM handler runs
# reference_work() once (no thread is started), and an instance's time,
# less the samples taken inside it, is scaled by REF_S over the mean sample
# time within WINDOW_S of it.  Five same-seed crosscheck runs read 62-100/s
# unscaled and 99-113/s scaled.
REF_S = 0.004
SAMPLE_S = 0.2
WINDOW_S = 0.2
SETUP_REPEATS = 9
# Wall time of a fresh ``python3 -c "import numpy"`` on the same machine.
# Each set-up process is timed right after such a process and scaled by
# REF_IMPORT_S over its time: process start and imports drift together with
# the machine's file and memory traffic, which the CPU loop above does not
# follow.
REF_IMPORT_S = 0.15
REF_IMPORT = "import numpy"
# one thread per process: numpy's BLAS would otherwise start one per core
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_CHILD = """
import sys
sys.path[:0] = {paths!r}
import workloads
next(workloads.WORKLOADS[{name!r}]().rounds({seed}))
"""


def reference_work():
    """Fixed pure-Python work shaped like tauideal's inner loops."""
    acc = {}
    for i in range(3000):
        v = (i % 7, i % 11, i % 13)
        acc[v] = acc.get(v, 0) + sum(x * y for x, y in zip(v, (3, 5, 7)))
    return sorted(acc.items())


class Speed:
    """Reference samples taken from a SIGALRM handler while the context is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def sample(self, *_):
        t0 = perf_counter()
        reference_work()
        self.starts.append(t0)
        self.times.append(perf_counter() - t0)

    def __enter__(self):
        self.sample()
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.sample()

    def _within(self, t0: float, t1: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, t0)
        return self.times[lo:bisect.bisect_right(self.starts, t1)]

    def stolen(self, t0: float, t1: float) -> float:
        """Time the samples that started in [t0, t1] took."""
        return sum(self._within(t0, t1))

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the mean sample time near [t0, t1]."""
        near = self._within(t0 - WINDOW_S, t1 + WINDOW_S)
        if not near:
            i = min(bisect.bisect_left(self.starts, t0), len(self.starts) - 1)
            near = [self.times[i]]
        return REF_S / statistics.fmean(near)


def p90_with_tail(samples, min_beyond: int = 10):
    """(p90, samples beyond it), or None when fewer than ``min_beyond`` lie beyond."""
    if len(samples) < 2:
        return None
    p90 = statistics.quantiles(samples, n=10)[8]
    beyond = sum(1 for x in samples if x > p90)
    return (p90, beyond) if beyond >= min_beyond else None


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def time_child(code: str) -> float:
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, check=True, stdout=subprocess.DEVNULL
    )
    return perf_counter() - t0


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median, scaled and unscaled, of the wall time of SETUP_REPEATS fresh
    processes that import tauideal and build the workload's first round of
    inputs; each is scaled by a reference process timed just before it."""
    code = SETUP_CHILD.format(paths=[str(SRC), str(HERE)], name=name, seed=seed)
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        ref = time_child(REF_IMPORT)
        raw.append(time_child(code))
        scaled.append(raw[-1] * REF_IMPORT_S / ref)
    return statistics.median(scaled), statistics.median(raw)


class Tally:
    """Timings and outcomes of the instances of one pass."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []  # wall-clock start and end
        self.latencies: list[float] = []  # less the reference samples inside
        self.scaled: list[float] = []  # latencies at the reference speed
        self.kinds: Counter = Counter()
        self.gate_errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.spans)

    @property
    def failed(self) -> int:
        return sum(self.kinds.values())

    def scale(self, speed: Speed) -> None:
        self.latencies = [t1 - t0 - speed.stolen(t0, t1) for t0, t1 in self.spans]
        self.scaled = [
            lat * speed.factor(t0, t1) for lat, (t0, t1) in zip(self.latencies, self.spans)
        ]


def run_instance(workload, inst, tally: Tally, tracer=None) -> None:
    from workloads import GateError, KNOWN_FAILURES

    if tracer is not None:
        tracer.instance = inst.label
        tracer.enabled = True
    t0 = perf_counter()
    try:
        result = workload.run(inst)
    except Exception as exc:  # a raise is a failed instance, not a crash
        tally.spans.append((t0, perf_counter()))
        tally.kinds["raised"] += 1
        tally.gate_errors.append(f"{inst.label}: raised {exc!r}")
        return
    finally:
        if tracer is not None:
            tracer.enabled = False
    tally.spans.append((t0, perf_counter()))
    try:
        kind = workload.check(inst, result)
    except GateError as exc:
        tally.kinds["gate"] += 1
        tally.gate_errors.append(str(exc))
        return
    if kind is not None:
        if kind not in KNOWN_FAILURES:  # pragma: no cover - workloads return known kinds
            raise ValueError(f"unknown failure kind {kind}")
        tally.kinds[kind] += 1


def run_pass(workload, batch, tracer=None) -> Tally:
    """One instance after another, timed under reference sampling."""
    tally = Tally()
    with Speed() as speed:
        for inst in batch:
            run_instance(workload, inst, tally, tracer)
    tally.scale(speed)
    return tally


def timed_run(workload, seed: int, seconds: float) -> tuple[Tally, int]:
    """A fixed number of rounds that takes about ``seconds`` on the 2-core
    shared Xeon machine the round lengths were measured on.  It depends on
    ``seconds`` only, so runs of one seed do the same work at any speed."""
    rounds = workload.rounds(seed)
    n_rounds = max(1, round(seconds / workload.round_s))
    batch = [inst for _ in range(n_rounds) for inst in next(rounds)]
    return run_pass(workload, batch), n_rounds


def traced_run(workload, seed: int) -> dict:
    """Untraced pass, traced pass, traced pass again over one fixed list."""
    import layers
    from tracer import Tracer

    rounds = workload.rounds(seed)
    batch = [inst for _ in range(workload.trace_rounds) for inst in next(rounds)]
    plain = run_pass(workload, batch)
    tracer = Tracer()
    layers.install(tracer)
    try:
        first = run_pass(workload, batch, tracer)
        # spans include the reference samples taken inside them; so does this
        wall = sum(t1 - t0 for t0, t1 in first.spans)
        overhead = sum(first.scaled) / sum(plain.scaled) - 1
        report = {
            "tally": first,
            "values": layers.per_layer(tracer, first.kinds, wall, overhead),
            "seconds": layers.seconds(tracer),
            "paths": tracer.heaviest_paths(),
            "spans_file": OUT / f"trace-{workload.name}-seed{seed}.jsonl.gz",
        }
        counts = layers.counters(tracer, first.kinds)
        OUT.mkdir(exist_ok=True)
        tracer.write(report["spans_file"])
        tracer.reset()
        second = run_pass(workload, batch, tracer)
        again = layers.counters(tracer, second.kinds)
    finally:
        tracer.restore()
    report["diffs"] = {k: (v, again[k]) for k, v in counts.items() if again[k] != v}
    report["gate_errors"] = plain.gate_errors + first.gate_errors + second.gate_errors
    return report


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    if not (SRC / "tauideal" / "__init__.py").is_file():
        print(f"perfbench: no tauideal sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path[:0] = [str(SRC), str(HERE)]
    import tauideal
    import workloads

    if not Path(tauideal.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported tauideal from {tauideal.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload; known: {', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed

    info = machine()
    print("machine: " + " ".join(f"{k}={v!r}" for k, v in info.items()))
    workload = cls()

    if args.trace:
        from layers import PER_LAYER, TIMES

        res = traced_run(workload, seed)
        tally = res["tally"]
        print(f"workload {cls.name} seed {seed}: traced pass of {tally.attempted} instances")
        for name, unit in PER_LAYER.items():
            extra = f"  ({res['seconds'][name]:.4f} s)" if name in TIMES else ""
            print(f"  {name} = {res['values'][name]:.6g} {unit}{extra}")
        for path, secs in res["paths"]:
            print(f"  heaviest self time: {secs:.3f} s in {path}")
        for name, (b, c) in res["diffs"].items():
            print(f"  COUNT DIFFERS between traced passes: {name} {b} != {c}")
        for err in res["gate_errors"]:
            print(f"  GATE: {err}")
        print(f"  spans written to {res['spans_file'].relative_to(ROOT)}")
        correct = not res["gate_errors"] and not res["diffs"]
        emit(correct, tally.attempted, tally.failed, res["values"], PER_LAYER)
        return 0

    setup_s, setup_raw = measure_setup(cls.name, seed)
    tally, n_rounds = timed_run(workload, seed, args.seconds)
    lat, raw = tally.scaled, tally.latencies
    values = {
        "setup_s": setup_s,
        "inst_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000 * statistics.median(lat),
        "pass_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    unscaled = {
        "setup_s": setup_raw,
        "inst_per_s": len(raw) / sum(raw),
        "latency_p50_ms": 1000 * statistics.median(raw),
    }
    print(
        f"workload {cls.name} seed {seed}: {tally.attempted} instances in "
        f"{n_rounds} rounds, {sum(raw):.2f} s inside tauideal"
    )
    for name, unit in END_TO_END.items():
        extra = f"  (unscaled {unscaled[name]:.6g})" if name in unscaled else ""
        print(f"  {name} = {values[name]:.6g} {unit}{extra}")
    # Not in BENCHMARK.json: on campaigns the peak is set by the largest
    # seeded instance and moved 45-64 MB between seeds.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"  peak_rss_mb = {rss:.6g} MB")
    tail = p90_with_tail(lat)
    if tail is None:
        print(f"  latency_p90_ms omitted: fewer than 10 of {len(lat)} samples lie beyond p90")
    else:
        print(f"  latency_p90_ms = {1000 * tail[0]:.6g} ms (n={len(lat)}, {tail[1]} beyond)")
    kinds = ", ".join(f"{k} {v}" for k, v in sorted(tally.kinds.items())) or "none"
    print(f"  failed {tally.failed} of {tally.attempted}: {kinds}")
    for err in tally.gate_errors:
        print(f"  GATE: {err}")
    emit(not tally.gate_errors, tally.attempted, tally.failed, values, END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())
