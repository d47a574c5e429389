"""Benchmark ledger: the working tree against HEAD, written as ``BENCH_<pr>.json``.

    python3 tools/ledger.py PR [--change TEXT]

The parent is HEAD and the change is the working tree ("."), so the
ledger is taken before the change is committed.  Each side is extracted
(``src`` and ``bench``) with ``tools/drift.py``'s ``source_tree``, so both
run from fresh directories.  Then, per workload:

- ``PAIRS`` untraced pairs of ``bench/run.py --seed 1 --seconds S``, with S
  the ``run_seconds`` of ``BENCHMARK.json``, the parent first in even pairs
  (0, 2, ...) and the change first in odd ones;
- one traced run per side (``--trace 1``), for the per-layer metrics.

It also times cold start, the median over ``COLD`` fresh processes per
side, alternating, of ``python -c "import qmg"`` and of a three-count Zeno
``qmg run``, and runs ``tools/drift.py``'s deck on the two extracted trees.

For every end-to-end metric the file records each side's runs, median and
quartiles, the pairs the change won, the metric's bound from
``BENCHMARK.json`` and a verdict: "unresolved" where either side's
quartiles spread wider than the bound allows, else "worse beyond bound"
or "within bound".  Exits 1 when an operation failed or a scenario did not
run on either side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from drift import ROOT, drift, source_tree  # noqa: E402

WORKLOADS = ("phase-space", "market", "risk-dynamics", "scenario-deck")
SIDES = ("parent", "change")
REVS = {"parent": "HEAD", "change": "."}
PAIRS = 10  # untraced pairs per workload
SEED = 1  # bench/run.py --seed, and the drift deck's seed
COLD = 9  # fresh processes per side for cold start
ZENO = {"kind": "zeno", "parameters": {"initial": "hermite(1)", "total_time": 0.37, "n_values": [1, 2, 5]}}
QMG_RUN = "import sys, qmg.cli; sys.exit(qmg.cli.main(sys.argv[1:]))"


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run from ``tree``: its closing JSON object."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} exited {done.returncode} in {tree}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": statistics.median(runs), "q1": q1, "q3": q3}


def compared(parent: list[float], change: list[float], better: str, bound: float | None) -> dict:
    """Both sides' summaries, the pairs the change won and, given a bound, the verdict."""
    sign = 1.0 if better == "lower" else -1.0
    entry = {
        "parent": summary(parent),
        "change": summary(change),
        "change_won_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
    }
    if bound is not None:
        base = entry["parent"]["median"]
        spread = max((entry[s]["q3"] - entry[s]["q1"]) / base for s in SIDES) if base else 0.0
        worse = sign * (entry["change"]["median"] - base) / base if base else 0.0
        entry["bound"] = bound
        entry["verdict"] = (
            "unresolved" if spread > bound else "worse beyond bound" if worse > bound else "within bound"
        )
    return entry


def cold_start(trees: dict[str, Path], work: Path) -> dict:
    """Fresh-process wall times per side, alternating: ``import qmg`` and a small ``qmg run``."""
    scenario = work / "zeno.json"
    scenario.write_text(json.dumps(ZENO))
    times = {name: {side: [] for side in SIDES} for name in ("import_qmg_s", "qmg_run_s")}
    for k in range(-1, COLD):  # round -1 warms the file cache and is not kept
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            env = {**os.environ, "PYTHONPATH": str(trees[side] / "src")}
            out = work / f"cold-{side}"
            for name, args in (
                ("import_qmg_s", ["-c", "import qmg"]),
                ("qmg_run_s", ["-c", QMG_RUN, "run", str(scenario), "--out", str(out), "--seed", "1"]),
            ):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True)
                if k >= 0:
                    times[name][side].append(time.perf_counter() - t0)
    return {name: compared(sides["parent"], sides["change"], "lower", None) for name, sides in times.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pr", type=int, help="the number in BENCH_<pr>.json")
    parser.add_argument("--change", default="", help="one line saying what the change does")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["better"] for m in spec["per_layer"]}
    started = time.perf_counter()
    work = Path(tempfile.mkdtemp(prefix="qmg-ledger-"))
    try:
        trees = {side: source_tree(rev, work / side, ("src", "bench")) for side, rev in REVS.items()}
        end_to_end, layers, failed = {}, {}, 0
        for workload in WORKLOADS:
            runs = {side: [] for side in SIDES}
            for k in range(PAIRS):
                for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                    runs[side].append(bench(trees[side], workload, SEED, seconds, 0))
                    print(f"{workload} pair {k} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)
            entry = {"failed": {side: [r["failed"] for r in runs[side]] for side in SIDES}}
            for name, (better, bound) in bounds.items():
                series = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
                entry[name] = compared(series["parent"], series["change"], better, bound)
            end_to_end[workload] = entry
            traced = {side: bench(trees[side], workload, SEED, seconds, 1) for side in SIDES}
            layers[workload] = {
                name: {side: traced[side]["metrics"].get(name, {}).get("value") for side in SIDES}
                | {"better": better}
                for name, better in per_layer.items()
            }
            failed += sum(sum(entry["failed"][side]) + traced[side]["failed"] for side in SIDES)
        cold = cold_start(trees, work)
        ran, drifted = drift(trees["parent"], trees["change"], SEED, work / "drift")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger = {
        "change": args.change,
        "parent": subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", REVS["parent"]],
                                 check=True, capture_output=True, text=True).stdout.strip(),
        "head": REVS["change"],
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "harness": {
            "command": f"python3 bench/run.py --workload W --seed {SEED} --seconds {seconds:g}",
            "seed": SEED,
            "seconds": seconds,
            "pairs": PAIRS,
            "order": "parent first in even pairs (0, 2, ...), change first in odd ones; runs in pair order",
            "verdict": "unresolved where either side's quartile spread over the parent's median exceeds the bound",
            "cold_processes": COLD,
            "cold_run": ZENO,
            "wall_s": round(time.perf_counter() - started, 1),
        },
        "end_to_end": end_to_end,
        "per_layer": layers,
        "cold_start": cold,
        "drift": drifted,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if failed == 0 and ran else 1


if __name__ == "__main__":
    sys.exit(main())
