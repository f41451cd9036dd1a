"""Record the goldens that bench/run.py checks every output against.

    python3 bench/record_goldens.py

Goldens pin the behaviour of the commit they were recorded at (the
benchmark's seed commit).  Inputs are the canonical ones: no edge-line
shuffle and verify's default trial seed; the measured
jobs use seeded variants that must give byte-identical outputs.  The
script writes only goldens that do not exist yet: never re-record one to
hide a difference, which is a change in behaviour to be explained.
"""

from __future__ import annotations

import gzip
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import child  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402


def main() -> int:
    jobs = {job["golden"]: job for table in (WORKLOADS, TINY) for make in table.values()
            for job in make(0, 0) if "golden" in job}
    os.makedirs(child.GOLDEN_DIR, exist_ok=True)
    for name, job in sorted(jobs.items()):
        path = os.path.join(child.GOLDEN_DIR, name)
        if os.path.exists(path):
            print(f"kept     {name}")
            continue
        setup, run = child.OPS[job["op"]]
        saved_corpus = child.verification.default_corpus
        try:
            (record,) = run(job, setup(job, canonical=True))
        finally:
            child.verification.default_corpus = saved_corpus
        if not record["ok"]:
            print(f"error: {name}: the command failed", file=sys.stderr)
            return 1
        data = record["output"].encode("utf-8")
        if name.endswith(".gz"):
            data = gzip.compress(data, mtime=0)
        with open(path, "wb") as fh:
            fh.write(data)
        print(f"recorded {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
