"""Output drift between two revisions of qmg.

Runs one fixed deck of scenarios, every kind once with analytic
strategies and curves, zeno, clearing and auction once more with an
off-centre sampled table (zeno's quadrature), zeno once more from one
displaced, sloped Gaussian and once from a superposition of two
Gaussians (both expanded by the Gaussian recurrence), and zeno, curves,
clearing and auction once more with oscillator levels
under a non-unit risk record (zeno's exact path; clearing with a
supply-side trader, so levels are transformed at that record's hbar),
under each revision, then prints for every output file "identical" or the
largest absolute difference between the two runs' numbers.

    python3 tools/drift.py [BASE] [HEAD] [--seed N] [--keep DIR]

A revision is anything ``git archive`` takes, or "." for the working
tree, whose files are copied as they are on disk; BASE defaults to HEAD
and HEAD to ".".  ``tools/drift.py . .``
checks that a rerun with the same seed is identical.  Exits 1 when a
scenario fails on either side.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TABLE = "offcentre.csv"
SAMPLED = f"sampled(@{TABLE})"
RISK = {"hbar_e": 0.7, "theta": 2.5, "m": 1.3, "theta_nc": 0.4}

DECK = {
    "fixed-point": ("fixed-point", {"sigmas": [0.5, 1.0, 2.0]}),
    "thermal": ("thermal", {"betas": [0.5, 1.0, 2.0], "series_terms": 50}),
    "risk-spectrum": ("risk-spectrum", {"levels": 8}),
    "curves": ("curves", {"family": "strategy", "strategy": "gaussian(0.3, 0.8, 1.5)"}),
    "curves-sampled": ("curves", {"family": "strategy", "strategy": SAMPLED}),
    "curves-levels": ("curves", {"family": "strategy", "risk": RISK, "strategy": "hermite(3)"}),
    "zeno": ("zeno", {"initial": ["hermite(0)", "hermite(1)"], "total_time": 0.37, "n_values": [1, 2, 5, 10, 100]}),
    "zeno-sampled": ("zeno", {"initial": SAMPLED, "total_time": 0.37, "n_values": [1, 2, 5, 10, 100]}),
    "zeno-coherent": ("zeno", {
        "initial": "gaussian(0.8, 0.7071067811865476, 0.6)", "total_time": 0.37, "n_values": [1, 2, 5, 10, 100],
    }),
    "zeno-gaussians": ("zeno", {
        "initial": ["gaussian(-1, 0.7, 0.4)", "gaussian(1.2, 0.9)"], "total_time": 0.37, "n_values": [1, 2, 5, 10, 100],
    }),
    "zeno-levels": ("zeno", {
        "risk": {"hbar_e": 0.7, "theta": 2.5, "m": 1.3},
        "initial": ["hermite(2)", "hermite(3)"], "total_time": 0.37, "n_values": [1, 2, 5, 10, 100],
    }),
    "clearing": ("clearing", {"traders": ["gaussian(0, 1)", "gaussian(0.5, 0.8, 0.3)", "hermite(2)"], "rounds": 20}),
    "clearing-sampled": ("clearing", {
        "traders": [SAMPLED, {"strategy": SAMPLED, "rep": "supply"}, "gaussian(0, 1)"], "rounds": 20,
    }),
    "clearing-risk": ("clearing", {
        "risk": RISK, "traders": ["hermite(0)", "hermite(2)", {"strategy": "hermite(1)", "rep": "supply"}], "rounds": 20,
    }),
    "auction": ("auction", {
        "buyers": ["gaussian(0, 1)", "hermite(1)"], "seller": "gaussian(0.2, 0.5)",
        "pricing": "mixed", "weight": 0.5, "samples": 20000,
    }),
    "auction-sampled": ("auction", {
        "buyers": [SAMPLED, "hermite(1)"], "seller": "gaussian(0.2, 0.5)",
        "pricing": "mixed", "weight": 0.5, "samples": 20000,
    }),
    "auction-risk": ("auction", {
        "risk": RISK, "buyers": ["hermite(1)", "hermite(2)"], "seller": "hermite(0)",
        "pricing": "mixed", "weight": 0.5, "samples": 20000,
    }),
}

# argv: the seed, then scenario and output directory pairs
RUN_DECK = """
import sys
import qmg.cli
seed, pairs = sys.argv[1], sys.argv[2:]
codes = [qmg.cli.main(["run", s, "--out", out, "--seed", seed]) for s, out in zip(pairs[::2], pairs[1::2])]
sys.exit(1 if any(codes) else 0)
"""


def write_deck(directory: Path) -> None:
    """The scenarios and the table they read: a skewed packet about 1.5 on [-4, 7]."""
    x = np.linspace(-4.0, 7.0, 221)
    amps = np.exp(-((x - 1.5) ** 2) / (4 * 0.7**2) + 0.8j * x) * (1.0 + 0.3 * (x - 1.5))
    rows = [f"{a!r},{b.real!r},{b.imag!r}" for a, b in zip(x.tolist(), amps.tolist())]
    (directory / TABLE).write_text("\n".join(["x,re,im", *rows]) + "\n")
    for name, (kind, params) in DECK.items():
        (directory / f"{name}.json").write_text(json.dumps({"kind": kind, "parameters": params}))


def source_tree(rev: str, dest: Path, paths: tuple[str, ...] = ("src",)) -> Path:
    """``paths`` of ``rev`` extracted under ``dest``: the working tree's copy for ".", else ``git archive``'s.

    The working tree's copy holds the files git tracks or would track, as they are on disk.
    """
    if rev == ".":
        listed = subprocess.run(
            ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard", "--", *paths],
            check=True, capture_output=True, text=True,
        ).stdout
        for name in filter(None, listed.split("\0")):
            if (ROOT / name).is_file():  # a tracked file deleted on disk is left out
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
        return dest
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, *paths], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_side(tree: Path, deck: Path, out: Path, seed: int) -> bool:
    argv = [str(seed)]
    for name in DECK:
        argv += [str(deck / f"{name}.json"), str(out / name)]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    result = subprocess.run([sys.executable, "-c", RUN_DECK, *argv], env=env, capture_output=True, text=True)
    sys.stderr.write(result.stderr)
    return result.returncode == 0


def _value(cell: str) -> float | str:
    try:
        return float(cell)
    except ValueError:
        return cell


def values(path: Path) -> list[float | str] | None:
    """Every cell or leaf of a CSV or JSON output, in file order, as a number where
    it reads as one; None for other files."""
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return [_value(c) for row in csv.reader(fh) for c in row]
    if path.suffix == ".json":
        found: list[float | str] = []

        def walk(v):
            if isinstance(v, dict):
                for item in v.values():
                    walk(item)
            elif isinstance(v, list):
                for item in v:
                    walk(item)
            else:
                found.append(float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else str(v))

        walk(json.loads(path.read_text()))
        return found
    return None


def compare(a: Path, b: Path) -> str:
    if not b.exists():
        return "missing on the second side"
    if a.read_bytes() == b.read_bytes():
        return "identical"
    va, vb = values(a), values(b)
    if va is None or vb is None or len(va) != len(vb):
        return "differs (not comparable cell by cell)"
    largest = 0.0
    for x, y in zip(va, vb):
        if isinstance(x, float) and isinstance(y, float) and math.isfinite(x) and math.isfinite(y):
            largest = max(largest, abs(x - y))
        elif x != y:
            return f"differs: {x!r} against {y!r}"
    return f"largest absolute difference {largest:.3g}"


def drift(base: Path, head: Path, seed: int, work: Path) -> tuple[bool, dict[str, str]]:
    """Run the deck under ``work`` from two extracted trees (see ``source_tree``):
    whether every scenario ran on both sides, and per output file of the base
    side "identical" or how it differs."""
    deck = work / "deck"
    deck.mkdir(parents=True, exist_ok=True)
    write_deck(deck)
    outs, ok = [], True
    for side, tree in (("base", base), ("head", head)):
        out = work / f"out-{side}"
        shutil.rmtree(out, ignore_errors=True)
        ok &= run_side(tree, deck, out, seed)
        outs.append(out)
    found = {}
    for name in DECK:
        for path in sorted((outs[0] / name).glob("*")):
            if path.name != "manifest.json":  # names versions, not results
                found[f"{name}/{path.name}"] = compare(path, outs[1] / name / path.name)
    return ok, found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", default="HEAD", help='git revision, or "." for the working tree')
    parser.add_argument("head", nargs="?", default=".", help='git revision, or "." for the working tree')
    parser.add_argument("--seed", type=int, default=1, help="seed every scenario runs with (default 1)")
    parser.add_argument("--keep", help="work in this directory and keep it, instead of a temporary one")
    args = parser.parse_args(argv)
    work = Path(args.keep) if args.keep else Path(tempfile.mkdtemp(prefix="qmg-drift-"))
    try:
        trees = []
        for side, rev in (("base", args.base), ("head", args.head)):
            shutil.rmtree(work / f"tree-{side}", ignore_errors=True)
            trees.append(source_tree(rev, work / f"tree-{side}"))
        ok, found = drift(*trees, args.seed, work)
        print(f"drift of {args.head} against {args.base}, seed {args.seed}")
        for output, result in found.items():
            print(f"  {output}: {result}")
        return 0 if ok else 1
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
