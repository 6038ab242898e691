"""Run every workload through run.py and print every metric with its unit.

    python3 perfbench/report.py                      # default seed of each workload
    python3 perfbench/report.py --seeds 1 2 3 4 5    # spread over seeds
    python3 perfbench/report.py --workload socle_toric --seeds 1 2 3 --no-trace

For each workload: one untraced run per seed (median and quartile spread of
each end-to-end metric over the seeds, the spread as a share of the median
as the acceptance rule computes it), then two traced runs in separate
processes on the first seed, whose counts must be identical.  ``--out``
writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int | None, seconds: float, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = args.seeds or [None]
    results = {}
    ok = True
    for workload in args.workload or names:
        runs = []
        for seed in seeds:
            res, lines = run_once(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, **res})
            if not results and len(runs) == 1:
                print(lines[0])
                results["machine"] = lines[0].split(": ", 1)[1]
            print(lines[1])
            ok &= res["correct"]
        print(f"== {workload}: end-to-end over seeds {seeds}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            line = f"  {name} = {statistics.median(vals):.6g} {unit}  [{' '.join(f'{v:.4g}' for v in vals)}]"
            if len(vals) >= 2:
                s = spread(vals)
                line += f"  spread {s:.3f} (bound {bound})"
                if s > bound:
                    line += "  TOO WIDE"
            print(line)
        fail = [r["failed"] for r in runs]
        att = [r["attempted"] for r in runs]
        print(f"  failed {fail} of {att}; correct {[r['correct'] for r in runs]}")
        entry = {"untraced": runs}
        if not args.no_trace:
            traced = [run_once(workload, seeds[0], args.seconds, 1) for _ in range(2)]
            (a, lines_a), (b, _) = traced
            print(f"== {workload}: per-layer, traced run")
            for line in lines_a[2:]:
                print(line)
            diff = [
                k for k, v in a["metrics"].items()
                if v["unit"] == "count" and v["value"] != b["metrics"][k]["value"]
            ]
            print(f"  counts identical across two traced processes: {not diff} {diff or ''}")
            ok &= a["correct"] and b["correct"] and not diff
            entry["traced"] = a
        results[workload] = entry
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
