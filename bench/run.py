"""Benchmark qmg end to end (``--trace 0``) or layer by layer (``--trace 1``).

    python3 bench/run.py --workload market --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; qmg is imported from its ``src/``.
The load is a closed loop: one process, one caller, each operation
starting when the previous one ends.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; progress and failures go to standard error.

Untraced runs repeat whole passes until ``--seconds`` have gone by and
report the median pass time, the process's peak resident memory, and
the median set-up time of several fresh processes.  Traced runs make a
fixed number of passes, each once untraced and once traced, so every
count repeats exactly for a seed.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

MIN_PASSES = 3
TRACE_PASSES = 3
SETUP_PROBES = 5
WORKLOAD_NAMES = ("phase-space", "market", "risk-dynamics", "scenario-deck")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_workloads():
    """Import the benchmark's workloads against this checkout's qmg source."""
    # one BLAS thread: the load is one caller on one core, and a second
    # thread that waits on a busy neighbour core makes times jump
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "qmg", "__init__.py")):
        raise SystemExit(f"error: no qmg source at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import workloads
    import qmg

    if os.path.dirname(os.path.dirname(os.path.abspath(qmg.__file__))) != SRC:
        raise SystemExit(f"error: imported qmg from {qmg.__file__}, not from {SRC}")
    return workloads


class Runner:
    def __init__(self, make_pass, seed, work):
        self.make_pass = make_pass
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0

    def build(self, k):
        d = os.path.join(self.work, f"pass-{k}")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        return self.make_pass(self.seed, k, d), d

    def run(self, ops, pass_dir, tracer=None):
        """Time each operation, then check it untimed; return the pass time."""
        from checks import CheckFailed  # imported after the BLAS thread count is fixed

        elapsed = 0.0
        for op in ops:
            self.attempted += 1
            if tracer is not None:
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a raising operation is a failed one; keep measuring
                elapsed += time.perf_counter() - t0
                self._fail(op, f"raised {type(exc).__name__}: {exc}")
                continue
            finally:
                if tracer is not None:
                    tracer.recording = False
            elapsed += time.perf_counter() - t0
            try:
                op.check(result)
            except CheckFailed as exc:
                self._fail(op, str(exc))
            except Exception as exc:  # an output the check cannot read is wrong too
                self._fail(op, f"check raised {type(exc).__name__}: {exc}")
        shutil.rmtree(pass_dir, ignore_errors=True)
        return elapsed

    def _fail(self, op, message):
        self.failed += 1
        print(f"FAILED {op.name}: {message}", file=sys.stderr)


def setup_seconds(args):
    """Median wall time from launching a fresh process to its first operation being ready."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe failed (exit {code})")
        times.append(t1 - t0)
    return statistics.median(times)


def main(argv=None):
    args = parse_args(argv)
    workloads = import_workloads()
    make_pass = workloads.WORKLOADS[args.workload]
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    runner = Runner(make_pass, args.seed, work)
    try:
        if args.setup_probe:
            runner.build(0)
            print("ready", flush=True)
            return 0
        if args.trace:
            metrics = traced(runner, args)
        else:
            metrics = untraced(runner, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def untraced(runner, args):
    ops, d = runner.build(0)
    deadline = time.perf_counter() + args.seconds
    times = []
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        if times:
            ops, d = runner.build(len(times))
        times.append(runner.run(ops, d))
    print(f"{args.workload}: {len(times)} passes, median {statistics.median(times):.4f} s", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return {
        "setup_s": {"value": setup_seconds(args), "unit": "s"},
        "pass_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def traced(runner, args):
    import tracing

    tracer = tracing.Tracer()
    plain, with_spans, emitted = [], [], 0
    for k in range(TRACE_PASSES):
        ops, d = runner.build(k)
        plain.append(runner.run(ops, d))
        ops, d = runner.build(k)
        with tracer.installed():
            with_spans.append(runner.run(ops, d, tracer))
        emitted += sum(op.emitted for op in ops)
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
    overhead = statistics.median(with_spans) / statistics.median(plain)
    return tracer.metrics(overhead, emitted)


if __name__ == "__main__":
    sys.exit(main())
