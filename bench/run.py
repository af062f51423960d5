"""Benchmark for quandlehom: four workloads driven through ``quandlehom.cli.main``.

    python3 bench/run.py --workload chain-h2 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the package is imported from its
``src/``.  One client calls ``cli.main(argv)`` in-process with stdout
captured, in a closed loop on one thread: each request starts when the
previous one has returned and its report has been checked against
``reference.py``.  Whole rounds of the workload's batch are replayed until
``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median
over fresh interpreters of the time to import ``quandlehom.cli``.
``--trace 1`` runs exactly one round with every public function of the
package wrapped (see tracing.py) and prints the per-layer metrics of that
round; its spans go to ``bench/out/``.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_SAMPLES = 21
SETUP_CHILD = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import quandlehom.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "assert quandlehom.cli.__file__.startswith(sys.argv[1])\n"
    "print(elapsed)\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup():
    """Median wall time of ``import quandlehom.cli`` in fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, SRC],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        if child.returncode != 0:
            _fail(f"importing quandlehom failed:\n{child.stderr}")
        samples.append(float(child.stdout))
    return statistics.median(samples)


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(samples, q):
    """Linear interpolation between closest ranks (the 'inclusive' method)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Session:
    """One workload's closed loop: issue, time and check requests."""

    def __init__(self, cli, tracer):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.samples = []
        self._verified = {}  # argv -> (exit code, digest) of a report that passed

    def call(self, request):
        self.attempted += 1
        buffer = io.StringIO()
        if self.tracer is not None:
            self.tracer.request_index = self.attempted - 1
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(buffer):
                code = self.cli.main(request.argv)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # the program must answer every request with a report
            self.failed += 1
            print(f"bench: {request.argv[0]} raised {exc!r}", file=sys.stderr)
            return 0.0
        text = buffer.getvalue()
        if self.tracer is not None:
            self.tracer.counts["cli.report_bytes"] += len(text.encode())
        self._check(request, code, text)
        self.samples.append(elapsed)
        return elapsed

    def _check(self, request, code, text):
        key = tuple(request.argv)
        digest = (code, hashlib.sha256(text.encode()).digest())
        if self._verified.get(key) == digest:
            return  # byte-identical to a report that already passed its check
        problem = request.problem(code, text)
        if problem:
            self.wrong += 1
            print(f"bench: wrong answer to {' '.join(request.argv)[:200]}: {problem}", file=sys.stderr)
        else:
            self._verified[key] = digest


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "quandlehom", "cli.py")):
        _fail(f"no quandlehom sources under {SRC}; run from a source checkout")
    setup_s = None if args.trace else measure_setup()

    sys.path.insert(0, SRC)
    import quandlehom.cli as cli

    if not cli.__file__.startswith(SRC):
        _fail(f"imported {cli.__file__}, not the checkout's copy")
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid():08d}")  # fixed length: report bytes repeat
    build = corpus.BUILDERS[args.workload]
    session = Session(cli, tracer)
    round_seconds = []
    rss = None
    try:
        deadline = time.perf_counter() + args.seconds
        round_index = 0
        while True:
            requests = build(args.seed, round_index, workdir)
            round_seconds.append(sum(session.call(r) for r in requests))
            if rss is None:
                rss = peak_rss_mib()  # after one round, whatever the run length
            round_index += 1
            if args.trace or time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = tracer.metrics()
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(round_seconds),
            "op_p50_ms": percentile(session.samples, 50) * 1e3,
            "op_p90_ms": percentile(session.samples, 90) * 1e3,
            "peak_rss_mib": rss,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": session.wrong == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump(dict(result, rounds=len(round_seconds), round_seconds=round_seconds), handle, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own fresh interpreter, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in corpus.WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            _fail(f"workload {workload} exited with {child.returncode}")
        result = json.loads(child.stdout.splitlines()[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}")
            merged["metrics"][f"{workload}.{name}"] = metric
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
