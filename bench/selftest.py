"""Self-test of the benchmark harness on tiny inputs (Q3 and Petersen).

    python3 bench/selftest.py

Runs every workload through bench/run.py with the tiny jobs of
``workloads.TINY``, untraced and traced, and checks that

* every metric BENCHMARK.json names is emitted with its unit;
* every output matches its golden, and a changed output does not;
* a traced run leaves no wrapper in place, and the cold-start guard
  rejects a warm cache.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import TINY  # noqa: E402

FAILURES = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_runs(out_dir: Path) -> None:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check(sorted(TINY) == sorted(w["name"] for w in spec["workloads"]),
          "tiny workloads cover every workload of BENCHMARK.json")
    for name in sorted(TINY):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run.main(["--workload", name, "--seed", "1", "--seconds", "1",
                                 "--trace", str(trace)], workloads=TINY, out_dir=out_dir)
            label = f"{name} --trace {trace}"
            check(code == 0, f"{label}: exit code 0")
            if code != 0:
                continue
            result = json.loads(stdout.getvalue().strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{label}: result keys")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {n: m["unit"] for n, m in result["metrics"].items()}
            check(emitted == expected, f"{label}: every {key} metric emitted with its unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{label}: outputs match the goldens ({result['attempted']} checked)")


def check_golden_detects_change() -> None:
    job = TINY["analyze-q4"](1, 0)[0]
    setup, run_op = child.OPS[job["op"]]
    (record,) = run_op(job, setup(job))
    child.check_golden(job, record)
    check(record["ok"], "shuffled edge list reproduces the analyze golden byte for byte")
    changed = dict(record, output=record["output"].replace('"value": 3', '"value": 2', 1))
    child.check_golden(job, changed)
    check(not changed["ok"], "a changed analyze output fails the golden check")


def check_wrappers_restored() -> None:
    before = {m.__name__: dict(vars(m)) for m in tracing.package_modules()}
    tracer = tracing.Tracer()
    tracer.install()
    bindings = [child.diagnosis.is_t_diagnosable, child.tolerance.is_t_diagnosable,
                child.verification.diagnosability, child.cli.decode, child.cli.recognize_exceptional]
    check(all(getattr(b, tracing.MARK, False) for b in bindings),
          "install patches the re-bound names in tolerance, verification and cli")
    code, _ = child.call_cli(["analyze", "-", "--method", "brute", "--h-max", "1"],
                             child.emit_edge_list(child.build_graph(["hypercube", 3])))
    tracer.uninstall()
    check(code == 0 and len(tracer.spans) > 0, f"traced analyze recorded {len(tracer.spans)} spans")
    after = {m.__name__: dict(vars(m)) for m in tracing.package_modules()}
    restored = all(after[name].get(k) is v for name, attrs in before.items() for k, v in attrs.items())
    check(restored and not tracing.leftover_wrappers(), "uninstall restores every binding")


def check_cold_guard() -> None:
    child.diagnosis.diagnosability(child.build_graph(["petersen"]), child.diagnosis.DiagModel.PMC)
    try:
        child.assert_cold()
        rejected = False
    except child.HarnessError:
        rejected = True
    check(rejected, "the cold-start guard rejects a warm cache")


def main() -> int:
    out_dir = HERE / "out" / "selftest"
    check_runs(out_dir)
    check_golden_detects_change()
    check_wrappers_restored()
    check_cold_guard()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    os.chdir(HERE.parent)
    sys.exit(main())
