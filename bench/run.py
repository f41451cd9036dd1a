"""diagnoscope benchmark: one command that prints every metric with its unit.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every job of a workload runs in a fresh child interpreter, one at a time
and with ``--jobs 1``, because the package keeps process-wide
``lru_cache``s: a second run inside one process would time cache hits.
One iteration runs the workload's jobs once; iterations repeat until the
next one would end after S seconds (at least one always runs).

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json
(medians over iterations; set-up also over extra set-up-only children).
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones; ``trace.overhead_s`` is the median
over pairs of the traced minus the untraced ``wall_s`` on the same inputs.
Every output is checked against the goldens in bench/goldens (recorded at
the seed commit by bench/record_goldens.py); a mismatch counts in
``failed``.

Times, the traced spans' too, are in reference seconds: each child times
its work at the speed of a calibration loop it samples while it runs
(bench/child.py, ``SpeedClock``), so that a host whose speed drifts does
not move them.  The raw seconds of every child's timed region go to the
result file.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with a run
record (commit, source digest, Python, nproc, CPU model, load average,
seed), goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 170


class HarnessError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DIAGNOSCOPE_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(job: dict, traced: bool, spans_path: Path) -> dict:
    """Run one job in a fresh interpreter and return its JSON report."""
    spawned = time.monotonic()
    argv = [sys.executable, str(BENCH / "child.py"), json.dumps(job), repr(spawned),
            "1" if traced else "0", str(spans_path)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"job {job['op']} exceeded {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise HarnessError(f"job {job['op']} exited {proc.returncode}: " + " | ".join(tail))
    return json.loads(lines[-1])


def run_iteration(jobs, traced: bool, workload: str, out_dir: Path) -> dict:
    """Run one iteration's jobs, each in its own cold child, in order."""
    start = time.monotonic()
    it = {"traced": traced, "wall_s": 0.0, "pmc_s": 0.0, "mm_s": 0.0, "peak_rss_mb": 0.0,
          "timed_raw_s": 0.0, "timed_ref_s": 0.0, "setups": [], "attempted": 0, "failed": 0,
          "totals": {}}
    for index, job in enumerate(jobs):
        report = spawn(job, traced, out_dir / f"spans-{workload}-{index}.jsonl")
        it["setups"].append(report["setup_s"])
        it["peak_rss_mb"] = max(it["peak_rss_mb"], report["rss_mb"])
        it["timed_raw_s"] += report["timed_raw_s"]
        it["timed_ref_s"] += report["timed_ref_s"]
        for op in report["ops"]:
            it["wall_s"] += op["s"]
            it["pmc_s"] += op["model_s"].get("pmc", 0.0)
            it["mm_s"] += op["model_s"].get("mm", 0.0)
            it["attempted"] += 1
            it["failed"] += not op["ok"]
        for key, value in report["totals"].items():
            it["totals"][key] = it["totals"].get(key, 0) + value
    it["duration_s"] = time.monotonic() - start
    return it


def measure(make_jobs, seed: int, seconds: float, trace: bool, workload: str, out_dir: Path):
    """Run iterations (alternating untraced and traced ones with ``trace``)
    until the next would end after ``seconds``."""
    start = time.monotonic()
    probe = dict(make_jobs(seed, 0)[0], probe=True)
    setups = [] if trace else [spawn(probe, False, Path(os.devnull))["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    while True:
        want_traced = trace and len(traced) < len(plain)
        # a traced iteration reruns the inputs of the untraced one before it
        jobs = make_jobs(seed, len(plain) - want_traced)
        (traced if want_traced else plain).append(run_iteration(jobs, want_traced, workload, out_dir))
        if trace and not traced:
            continue
        pool = traced if trace and len(traced) < len(plain) else plain
        next_s = statistics.median(i["duration_s"] for i in pool)
        if time.monotonic() - start + next_s > seconds:
            break
    for it in plain + traced:
        setups += it["setups"]
    return plain, traced, setups


def end_to_end(plain, setups) -> dict:
    metrics = {key: statistics.median(it[key] for it in plain)
               for key in ("wall_s", "pmc_s", "mm_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setups)
    return metrics


def per_layer(plain, traced) -> dict:
    rows = [tracing.layer_metrics(it["totals"]) for it in traced]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for t, p in zip(traced, plain))
    return metrics


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_before": list(os.getloadavg()),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def declared_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=WORKLOADS, out_dir: Path = OUT) -> int:
    args = parse_args(argv, workloads)
    if not (ROOT / "src" / "diagnoscope" / "__init__.py").is_file():
        print(f"error: no diagnoscope sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    declared = declared_metrics(trace)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = run_record(args)
    try:
        plain, traced, setups = measure(workloads[args.workload], args.seed, args.seconds, trace,
                                        args.workload, out_dir)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["loadavg_after"] = list(os.getloadavg())
    record["iterations"] = {"untraced": len(plain), "traced": len(traced), "setup_samples": len(setups)}

    computed = per_layer(plain, traced) if trace else end_to_end(plain, setups)
    if set(computed) != set(declared):
        print(f"error: computed metrics {sorted(computed)} differ from BENCHMARK.json {sorted(declared)}",
              file=sys.stderr)
        return 1
    attempted = sum(it["attempted"] for it in plain + traced)
    failed = sum(it["failed"] for it in plain + traced)
    metrics = {name: {"value": computed[name], "unit": unit} for name, unit in declared.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    samples = f"{len(traced)} traced / {len(plain)} untraced" if trace else f"{len(plain)}"
    print(f"# {args.workload} seed={args.seed} iterations={samples} setup samples={len(setups)}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:14.6f} {metric['unit']}")
    print(f"{'error_rate':40s} {failed / attempted:14.6f} ({failed}/{attempted} outputs differ from golden)")
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"record": record, "result": result, "iterations": plain + traced}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
