"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/sweep.py --tag NAME --seeds 1-10 [--trace 0|1]

Runs bench/run.py once per seed on every workload of BENCHMARK.json, one
run at a time, with the run length from BENCHMARK.json, and writes bench/BENCH_<NAME>.json: per
workload and metric the values, median, quartiles
(``statistics.quantiles(values, n=4)``) and spread (interquartile
distance over the median) next to the metric's bound, plus the run
record of every run.  Compare two files made on the same machine to check
a change against its parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    summary = {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        summary.update(bound=bound, within_bound=spread <= bound)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="first-last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    report = {"tag": args.tag, "seeds": args.seeds, "trace": args.trace,
              "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        results, records = [], []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            out = BENCH / "out" / f"{name}-seed{seed}-trace{args.trace}.json"
            records.append(json.loads(out.read_text(encoding="utf-8"))["record"])
            results.append(result)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                m["name"]: dict(unit=m["unit"], **summarise(
                    [r["metrics"][m["name"]]["value"] for r in results], m.get("bound")))
                for m in metrics
            },
            "records": records,
        }
    path = BENCH / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, data in report["workloads"].items():
        for metric, s in data["metrics"].items():
            flag = "" if s.get("within_bound", True) else "  OUTSIDE BOUND"
            print(f"{name:12s} {metric:40s} median {s['median']:12.4f} spread {s['spread']:.4f}{flag}")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
