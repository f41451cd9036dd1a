"""Run one benchmark job in a fresh interpreter and report it as JSON.

Usage: python3 bench/child.py JOB_JSON SPAWN_TIME TRACE SPANS_PATH

JOB_JSON is a job from bench/workloads.py; SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process, so set-up
covers interpreter start, ``import diagnoscope`` and the input build.
The child then checks that the package's process-wide caches are empty
(a warm cache would time cache hits), runs the timed operations, checks
each output against its golden, and prints one JSON line.  With TRACE 1
the layer entry points are wrapped (bench/tracing.py) and the spans are
written to SPANS_PATH.

Times are reported in reference seconds (see ``SpeedClock``): raw seconds
rescaled by the speed of a fixed calibration loop sampled on the same
thread while the job runs.  The raw seconds of set-up and of the timed
region are reported next to them.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "goldens")

import tracing  # noqa: E402  (bench/ is sys.path[0] when run as a script)
from workloads import graph_label  # noqa: E402

import diagnoscope  # noqa: E402
from diagnoscope import cli, diagnosis, tolerance, verification  # noqa: E402
from diagnoscope.families import generate_standard  # noqa: E402
from diagnoscope.formats import emit_edge_list, parse_edge_list  # noqa: E402

CACHES = {
    "diagnosability": diagnosis._diagnosability_cached,
    "tolerance": tolerance._tolerance_cached,
    "pmc_table": tolerance._pmc_break_table,
}


class HarnessError(RuntimeError):
    pass


def assert_cold() -> None:
    """Fail unless every process-wide cache of the package is empty."""
    busy = {name: c.cache_info().currsize for name, c in CACHES.items() if c.cache_info().currsize}
    if busy:
        raise HarnessError(f"caches not empty before the timed region: {busy}")


# -- speed-normalised timing --------------------------------------------------
#
# The cores of a shared host change speed by up to 1.5x for seconds to
# minutes at a time, which moves raw seconds between runs of the same code
# by more than the benchmark's bounds.  So while a job runs, SIGALRM every
# SAMPLE_EVERY_S runs one calibration sample (a fixed pure-Python loop of
# integer and tuple operations, like the decision engine's) on the same
# thread, and the job's clock runs in reference seconds: the work time
# after each sample counts at the speed sampled so far (smoothed), scaled
# to a reference speed at which a sample takes REFERENCE_SAMPLE_S.  Time
# spent in samples does not count.  A program change that does less work
# lowers reference seconds as much as raw seconds; a slower or busier host
# does not.

CALIBRATION_STEPS = 5000
SAMPLE_EVERY_S = 0.02
SMOOTHING = 0.5  # weight of the newest sample in the smoothed sample time
REFERENCE_SAMPLE_S = 0.001
BURST = 10  # samples that set the speed before a timed region or after set-up
_CALIBRATION_TABLE = tuple((i * 0x9E3779B97F4A7C15) & (2**64 - 1) for i in range(64))


def calibration_loop() -> int:
    table, acc = _CALIBRATION_TABLE, 0
    for i in range(CALIBRATION_STEPS):
        x = table[i & 63] ^ acc
        acc = (acc + (x & (x >> 3)).bit_count()) & 0xFFFF
    return acc


def _time_sample() -> float:
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


class SpeedClock:
    """A clock in reference seconds; it reads raw seconds until the first
    ``burst``, and excludes the time spent in samples."""

    def __init__(self):
        self.sample_s = None  # smoothed seconds per calibration sample
        self.samples = 0
        self.raw_s = 0.0  # work seconds the clock has counted, unscaled
        self._mark = time.perf_counter()  # end of the last sample
        self.ref_s = 0.0  # reference seconds counted up to _mark

    def scale(self) -> float:
        """Reference seconds per raw second at the speed sampled last."""
        return 1.0 if self.sample_s is None else REFERENCE_SAMPLE_S / self.sample_s

    def now(self) -> float:
        return self.ref_s + (time.perf_counter() - self._mark) * self.scale()

    def _close_segment(self, until: float) -> None:
        self.raw_s += until - self._mark
        self.ref_s += (until - self._mark) * self.scale()

    def burst(self) -> None:
        start = time.perf_counter()
        self._close_segment(start)
        self.sample_s = statistics.fmean(_time_sample() for _ in range(BURST))
        self.samples += BURST
        self._mark = time.perf_counter()

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self._close_segment(start)
        spent = _time_sample()
        self.sample_s += SMOOTHING * (spent - self.sample_s)
        self.samples += 1
        self._mark = time.perf_counter()

    @contextlib.contextmanager
    def sampling(self):
        self.burst()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._close_segment(time.perf_counter())
            self._mark = time.perf_counter()


CLOCK = SpeedClock()


def read_golden(name: str) -> bytes:
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        data = fh.read()
    return gzip.decompress(data) if name.endswith(".gz") else data


def build_graph(spec):
    return generate_standard(spec[0], *spec[1:])


def shuffled_edge_list(g, seed):
    """The graph's edge list with its edge lines (and each line's endpoint
    order) permuted by ``seed``; ``None`` keeps the canonical text."""
    lines = emit_edge_list(g).splitlines()
    if seed is None:
        return "\n".join(lines) + "\n"
    rng = random.Random(seed)
    edges = [line.split() for line in lines[1:]]
    rng.shuffle(edges)
    body = [" ".join(pair if rng.random() < 0.5 else pair[::-1]) for pair in edges]
    return "\n".join([lines[0]] + body) + "\n"


def call_cli(argv, stdin_text=""):
    """Run the CLI in this process; returns (exit code, stdout text)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


# -- per-operation set-up and timed runs ------------------------------------
#
# setup_<op>(job, canonical) builds the inputs; run_<op>(job, inputs) runs
# the timed operations, on ``CLOCK``, and returns one record per operation:
# {"s": seconds, "model_s": {model: seconds}, "ok": bool, "output": text}.
# ``canonical`` skips the seeded permutations (used to record goldens).


def setup_analyze(job, canonical=False):
    g = build_graph(job["graph"])
    return shuffled_edge_list(g, None if canonical else job["shuffle"])


def run_analyze(job, text):
    argv = ["analyze", "-", "--method", "brute", "--h-max", str(job["h_max"]),
            "--model", job["model"], "--jobs", "1",
            "--name", graph_label(job["graph"])]
    start = CLOCK.now()
    code, out = call_cli(argv, text)
    seconds = CLOCK.now() - start
    return [{"s": seconds, "model_s": {job["model"]: seconds}, "ok": code == 0, "output": out}]


def setup_verify(job, canonical=False):
    if job["corpus"] is not None:
        entries = tuple(
            verification.CorpusEntry(graph_label(spec), build_graph(spec)) for spec in job["corpus"]
        )
        verification.default_corpus = lambda: entries
    argv = ["verify", "--format", "json", "--h-max", str(job["h_max"]), "--jobs", "1"]
    if not canonical:
        argv += ["--seed", str(job["trial_seed"])]
    return argv


def _time_by_model(fn, model_arg, totals):
    def timed(*args, **kwargs):
        start = CLOCK.now()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[args[model_arg].value] += CLOCK.now() - start
    return timed


def run_verify(job, argv):
    # pmc_s / mm_s on verify: the time of the per-model oracle calls the
    # suite makes (at most one per verdict row, so the timers cost about 1 ms).
    totals = {"pmc": 0.0, "mm": 0.0}
    saved = verification.edge_tolerable_diagnosability, verification.diagnosability
    verification.edge_tolerable_diagnosability = _time_by_model(saved[0], 2, totals)
    verification.diagnosability = _time_by_model(saved[1], 1, totals)
    try:
        start = CLOCK.now()
        code, out = call_cli(argv)
        seconds = CLOCK.now() - start
    finally:
        verification.edge_tolerable_diagnosability, verification.diagnosability = saved
    return [{"s": seconds, "model_s": totals, "ok": code == 0, "output": out}]


def setup_syndrome(job, canonical=False):
    g = build_graph(job["graph"])
    rng = random.Random(job["case_seed"])
    firsts = list(range(g.n))
    rng.shuffle(firsts)
    cases = []
    for first in firsts:
        others = rng.sample([v for v in range(g.n) if v != first], job["t"] - 1)
        cases.append((sorted([first] + others), rng.randrange(2**31)))
    return shuffled_edge_list(g, None if canonical else job["shuffle"]), cases


def run_syndrome(job, inputs):
    text, cases = inputs
    records = []
    for faults, policy_seed in cases:
        argv = ["syndrome", "-", "--faults", ",".join(map(str, faults)), "--model", job["model"],
                "--policy", "random", "--seed", str(policy_seed), "--t", str(job["t"])]
        start = CLOCK.now()
        code, out = call_cli(argv, text)
        seconds = CLOCK.now() - start
        ok = code == 0
        if ok:
            report = json.loads(out)
            ok = report["faults"] == faults and report["candidates"] == [faults] and report["unique"]
        records.append({"s": seconds, "model_s": {job["model"]: seconds}, "ok": ok, "output": out})
    return records


def setup_engine(job, canonical=False):
    g = build_graph(job["graph"])
    return parse_edge_list(shuffled_edge_list(g, None if canonical else job["shuffle"]))


def run_engine(job, g):
    start = CLOCK.now()
    decision = diagnosis.is_t_diagnosable(g, job["t"], diagnosis.DiagModel(job["model"]))
    seconds = CLOCK.now() - start
    witness = decision.witness
    verdict = {
        "diagnosable": decision.diagnosable,
        "witness": None if witness is None else [sorted(witness.f1), sorted(witness.f2)],
    }
    out = json.dumps(verdict, sort_keys=True) + "\n"
    return [{"s": seconds, "model_s": {job["model"]: seconds}, "ok": True, "output": out}]


OPS = {
    "analyze": (setup_analyze, run_analyze),
    "engine": (setup_engine, run_engine),
    "verify": (setup_verify, run_verify),
    "syndrome": (setup_syndrome, run_syndrome),
}


def check_golden(job, record) -> None:
    """Byte comparison with the job's golden; syndrome jobs carry their
    own check (decoding must return the injected fault set)."""
    if record["ok"] and "golden" in job:
        record["ok"] = record["output"].encode("utf-8") == read_golden(job["golden"])


def verdict_counts(job, records):
    if job["op"] != "verify" or not records[0]["ok"]:
        return {}
    report = json.loads(records[0]["output"])
    return {"rows": len(report["rows"]), **report["summary"]}


def main(argv) -> int:
    job = json.loads(argv[1])
    spawned = float(argv[2])
    traced = argv[3] == "1"
    spans_path = argv[4]

    src = os.path.realpath(os.path.join(HERE, os.pardir, "src"))
    if not os.path.realpath(diagnoscope.__file__).startswith(src + os.sep):
        raise HarnessError(f"diagnoscope imported from {diagnoscope.__file__}, not from {src}")
    setup, run = OPS[job["op"]]
    inputs = setup(job)
    setup_raw_s = time.monotonic() - spawned
    setup_clock = SpeedClock()
    setup_clock.burst()
    setup_s = setup_raw_s * setup_clock.scale()

    assert_cold()
    if job.get("probe"):
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    tracer = tracing.Tracer(CLOCK.now) if traced else None
    if tracer:
        tracer.install()
    try:
        with CLOCK.sampling():
            records = run(job, inputs)
    finally:
        if tracer:
            tracer.uninstall()
    left = tracing.leftover_wrappers()
    if left:
        raise HarnessError(f"tracing wrappers left in place: {left}")
    for record in records:
        check_golden(job, record)

    totals = {}
    for name, cache in CACHES.items():
        info = cache.cache_info()
        totals[f"{name}_hits"] = info.hits
        totals[f"{name}_misses"] = info.misses
    totals.update(dict.fromkeys(("rows", "pass", "fail", "hypothesis_not_met", "budget_exceeded"), 0))
    totals.update(verdict_counts(job, records))
    if tracer:
        totals.update(tracing.span_totals(tracer.spans))
        tracer.write(spans_path, f"{job['op']}-{job.get('model', 'both')}")

    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "timed_raw_s": CLOCK.raw_s,
        "timed_ref_s": CLOCK.ref_s,
        "speed_samples": CLOCK.samples,
        "ops": [{k: r[k] for k in ("s", "model_s", "ok")} for r in records],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "totals": totals,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except HarnessError as exc:
        print(f"child: {exc}", file=sys.stderr)
        sys.exit(3)
