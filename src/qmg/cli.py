"""Scenario runner and plot-data emitter.

``qmg run scenario.json [--out DIR] [--seed N]`` executes one batch
experiment described by a JSON document and writes CSV/JSON outputs
plus a manifest; ``qmg plotdata file.csv --x col --y col1,col2`` turns
any output CSV into a self-describing plot-data JSON for external
plotting frontends.

Exit codes: 0 success, 2 scenario parse error (with line/column),
3 validation error (with field path), 4 numerical failure (with the
originating diagnostic).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .auction import PRICINGS, AuctionInstance, run_auction
from .clearing import MarketState, clear_round, cooling_experiment, round_log_to_csv
from .errors import MarketModelError, ParameterRangeError
from .numerics import Grid, RandomSource
from .risk import spectrum, thermal_energy
from .strategy import Representation, RiskParams, Strategy, UNIT_RISK, parse_strategy
from .wigner import (
    EXCITED_MAX_LEVEL,
    CoherentParams,
    coherent_wigner,
    dominant_curves,
    excited_wigner,
    thermal_wigner,
    wigner_transform,
)
from .zeno import ZenoRun, freeze_experiment, freeze_table_to_csv

KINDS = (
    "curves",
    "fixed-point",
    "auction",
    "zeno",
    "thermal",
    "risk-spectrum",
    "clearing",
)


class ScenarioInvalid(Exception):
    """Validation failure carrying the offending field path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(message)
        self.path = path


def _fail(path: str, message: str) -> "ScenarioInvalid":
    return ScenarioInvalid(path, message)


def _get(params: dict, field: str, kinds, path: str, required: bool = True, default=None):
    if field not in params:
        if required:
            raise _fail(f"{path}.{field}", "required field missing")
        return default
    value = params[field]
    # bool passes isinstance(int) checks; scenarios never want that
    if kinds is not None and (isinstance(value, bool) or not isinstance(value, kinds)):
        raise _fail(f"{path}.{field}", f"unexpected type {type(value).__name__}")
    return value


def _refuse_unknown(doc: dict, known, path: str) -> None:
    """Refuse the first field of ``doc`` that is not in ``known``: nothing is ignored."""
    for field in doc:
        if field not in known:
            raise _fail(f"{path}.{field}", f"unknown field; expected {', '.join(known)}")


def _number(params: dict, field: str, path: str, required: bool = True, default=None, positive: bool = False):
    value = _get(params, field, (int, float), path, required, default)
    if value is None:
        return None
    value = float(value)
    if not math.isfinite(value):
        raise _fail(f"{path}.{field}", "must be finite")
    if positive and value <= 0:
        raise _fail(f"{path}.{field}", f"must be positive, got {value}")
    return value


def _parse_risk(params: dict, path: str) -> RiskParams:
    doc = _get(params, "risk", dict, path, required=False)
    if doc is None:
        return UNIT_RISK
    rpath = f"{path}.risk"
    _refuse_unknown(doc, ("hbar_e", "theta", "omega", "m", "theta_nc"), rpath)
    hbar_e = _number(doc, "hbar_e", rpath, positive=True)
    m = _number(doc, "m", rpath, required=False, default=1.0, positive=True)
    theta_nc = _number(doc, "theta_nc", rpath, required=False, default=0.0)
    if theta_nc < 0:
        raise _fail(f"{rpath}.theta_nc", "must be >= 0")
    if "theta" in doc and "omega" in doc:
        raise _fail(rpath, "give either theta or omega, not both")
    if "omega" in doc:
        omega = _number(doc, "omega", rpath, positive=True)
        return RiskParams.from_omega(hbar_e, omega, m=m, theta_nc=theta_nc)
    theta = _number(doc, "theta", rpath, required=False, default=None, positive=True)
    if theta is None:
        raise _fail(f"{rpath}.theta", "required field missing (or give omega)")
    return RiskParams(hbar_e=hbar_e, theta=theta, m=m, theta_nc=theta_nc)


def _parse_literal(text, path: str, rep: Representation, base_dir: Path, risk: RiskParams) -> Strategy:
    if not isinstance(text, str):
        raise _fail(path, "strategy literal must be a string")
    try:
        return parse_strategy(text, rep=rep, base_dir=base_dir, risk=risk)
    except (MarketModelError, ValueError, OSError) as exc:
        raise _fail(path, str(exc))


# a JSON string, or a bare token outside strings: a number, or a constant
# Python's json accepts but JSON does not
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|(-?Infinity|NaN|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)')


def _refuse_token(text: str, token: str, reason: str):
    """Raise a decode error at the first place ``token`` stands outside a string.

    json's parse hooks are not told where their token sits.  Everything
    before the first offending token parsed, so its first bare occurrence
    is it.
    """
    match = next(m for m in _TOKEN.finditer(text) if m.group(1) == token)
    raise json.JSONDecodeError(reason, text, match.start(1))


def _parse_int(text: str, token: str) -> int:
    """parse_int hook: an integer too long for int() is a parse error, not a crash."""
    try:
        return int(token)
    except ValueError:
        _refuse_token(text, token, f"integer literal of {len(token.lstrip('-'))} digits is too long")


def _parse_float(text: str, token: str) -> float:
    """parse_float hook: a literal that overflows to inf is a parse error."""
    value = float(token)
    if not math.isfinite(value):
        _refuse_token(text, token, f"number {token} overflows a double")
    return value


class Emitter:
    """Collects output files under one directory for the manifest."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.names: list[str] = []

    def path(self, name: str) -> Path:
        self.names.append(name)
        return self.out_dir / name

    def write_csv(self, name: str, header: str, rows) -> None:
        with open(self.path(name), "w", newline="\n") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(_cell(v) for v in row) + "\n")


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# ---------------------------------------------------------------------------
# kind handlers


_CURVE_FIELDS = {
    "coherent": ("r", "eta", "p0", "q0"),
    "thermal": ("beta",),
    "excited": ("n",),
    "strategy": ("strategy",),
}

def _run_curves(params: dict, seed: int, emit: Emitter, base_dir: Path) -> None:
    path = "parameters"
    family = _get(params, "family", str, path)
    if family not in _CURVE_FIELDS:
        raise _fail(f"{path}.family", f"unknown family {family!r}")
    _refuse_unknown(params, ("family", "risk") + _CURVE_FIELDS[family], path)
    risk = _parse_risk(params, path)
    if family == "coherent":
        cp = CoherentParams(
            r=_number(params, "r", path),
            eta=_number(params, "eta", path, positive=True),
            p0=_number(params, "p0", path, required=False, default=0.0),
            q0=_number(params, "q0", path, required=False, default=0.0),
        )
        density = coherent_wigner(cp, hbar=risk.hbar_eff)
    elif family == "thermal":
        beta = _number(params, "beta", path, positive=True)
        try:
            density = thermal_wigner(beta, risk)
        except ParameterRangeError as exc:
            raise _fail(f"{path}.beta", str(exc))
    elif family == "excited":
        n = _get(params, "n", int, path)
        if not 0 <= n <= EXCITED_MAX_LEVEL:
            raise _fail(f"{path}.n", f"must lie in 0..{EXCITED_MAX_LEVEL}, got {n}")
        try:
            density = excited_wigner(n, risk)
        except ParameterRangeError as exc:  # H overflows on the risk's own grid
            raise _fail(f"{path}.risk", str(exc))
    elif family == "strategy":
        s = _parse_literal(
            params.get("strategy"), f"{path}.strategy", Representation.DEMAND, base_dir, risk
        )
        if s.is_improper:
            raise _fail(f"{path}.strategy", "point strategies have no Wigner density")
        density = wigner_transform(s, hbar=risk.hbar_eff)
    try:
        curves = dominant_curves(density)
    except ParameterRangeError as exc:
        if family != "thermal":
            raise
        # the widest thermal grids overflow the slice integral
        raise _fail(f"{path}.beta", str(exc))
    density.to_csv(emit.path("density.csv"))
    curves.to_csv(emit.path("curves.csv"))


def _run_fixed_point(params: dict, seed: int, emit: Emitter, base_dir: Path) -> None:
    # the profit-intensity fixed point does not involve the risk operator
    _refuse_unknown(params, ("sigmas",), "parameters")
    sigmas = _get(params, "sigmas", list, "parameters")
    if len(sigmas) == 0:
        raise _fail("parameters.sigmas", "must be a nonempty list")
    for i, s in enumerate(sigmas):
        if not isinstance(s, (int, float)) or isinstance(s, bool) or s <= 0:
            raise _fail(f"parameters.sigmas[{i}]", f"must be a positive number, got {s!r}")
    rows = cooling_experiment([float(s) for s in sigmas])
    emit.write_csv(
        "cooling.csv",
        "sigma,fixed_point,max_intensity",
        ((r.sigma, r.fixed_point, r.max_intensity) for r in rows),
    )


def _run_auction(params: dict, seed: int, emit: Emitter, base_dir: Path) -> None:
    path = "parameters"
    _refuse_unknown(params, ("buyers", "seller", "pricing", "weight", "samples", "seed", "risk"), path)
    risk = _parse_risk(params, path)
    raw = _get(params, "buyers", list, path)
    if not raw:
        raise _fail(f"{path}.buyers", "must be a nonempty list")
    buyers = tuple(
        _parse_literal(lit, f"{path}.buyers[{i}]", Representation.DEMAND, base_dir, risk)
        for i, lit in enumerate(raw)
    )
    seller = _parse_literal(
        _get(params, "seller", None, path), f"{path}.seller", Representation.SUPPLY, base_dir, risk
    )
    pricing = _get(params, "pricing", str, path)
    if pricing not in PRICINGS:
        raise _fail(f"{path}.pricing", f"must be one of {', '.join(PRICINGS)}, got {pricing!r}")
    weight = _number(params, "weight", path, required=False, default=1.0)
    if not 0.0 <= weight <= 1.0:
        raise _fail(f"{path}.weight", f"must lie in [0, 1], got {weight}")
    samples = _get(params, "samples", int, path, required=False, default=100_000)
    if samples < 1:
        raise _fail(f"{path}.samples", f"must be >= 1, got {samples}")
    seed = _get(params, "seed", int, path, required=False, default=seed)
    if not 0 <= seed < 2**64:  # the seeds a RandomSource takes
        raise _fail(f"{path}.seed", f"must lie in 0..2**64 - 1, got {seed}")
    outcome = run_auction(
        AuctionInstance(buyers, seller, pricing, weight, samples, RandomSource(seed), risk)
    )
    doc = {
        "pricing": outcome.pricing,
        "weight": outcome.weight,
        "samples": outcome.n_samples,
        "winner_freq": list(outcome.winner_freq),
        "revenue_mean": outcome.revenue_mean,
        "revenue_se": outcome.revenue_se,
        "p_no_trade": outcome.p_no_trade,
    }
    with open(emit.path("results.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    edges = outcome.price_bin_edges
    emit.write_csv(
        "price_histogram.csv",
        "bin_lo,bin_hi,count",
        (
            (edges[i], edges[i + 1], outcome.price_counts[i])
            for i in range(len(outcome.price_counts))
        ),
    )


def _run_zeno(params: dict, seed: int, emit: Emitter, base_dir: Path) -> None:
    path = "parameters"
    _refuse_unknown(params, ("initial", "total_time", "n_values", "risk"), path)
    risk = _parse_risk(params, path)
    raw = params.get("initial")
    if isinstance(raw, str):
        initial = _parse_literal(raw, f"{path}.initial", Representation.DEMAND, base_dir, risk)
    elif isinstance(raw, list) and raw:
        parts = [
            _parse_literal(t, f"{path}.initial[{i}]", Representation.DEMAND, base_dir, risk)
            for i, t in enumerate(raw)
        ]
        try:
            initial = Strategy.superpose(parts, [1.0] * len(parts))
        except MarketModelError as exc:
            raise _fail(f"{path}.initial", str(exc))
    else:
        raise _fail(f"{path}.initial", "must be a strategy literal or nonempty list of them")
    total_time = _number(params, "total_time", path)
    n_values = _get(params, "n_values", list, path)
    if not n_values or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in n_values
    ):
        raise _fail(f"{path}.n_values", "must be a nonempty list of integers >= 1")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise _fail(f"{path}.n_values", "must be strictly ascending")
    run = ZenoRun(initial, total_time, n_values[0], risk=risk)
    rows = freeze_experiment(run, n_values)
    freeze_table_to_csv(rows, emit.path("zeno.csv"))


def _run_thermal(params: dict, seed: int, emit: Emitter, base_dir: Path) -> None:
    path = "parameters"
    _refuse_unknown(params, ("betas", "series_terms", "risk"), path)
    risk = _parse_risk(params, path)
    betas = _get(params, "betas", list, path)
    if len(betas) == 0:
        raise _fail(f"{path}.betas", "must be a nonempty list")
    for i, b in enumerate(betas):
        if not isinstance(b, (int, float)) or isinstance(b, bool) or b <= 0:
            raise _fail(f"{path}.betas[{i}]", f"must be a positive number, got {b!r}")
    terms = _get(params, "series_terms", int, path, required=False, default=200)
    if terms < 1:
        raise _fail(f"{path}.series_terms", "must be >= 1")
    rows = []
    for i, beta in enumerate(betas):
        try:
            rows.append(_thermal_row(float(beta), risk, terms))
        except ParameterRangeError as exc:
            raise _fail(f"{path}.betas[{i}]", str(exc))
    emit.write_csv("thermal.csv", "beta,temperature,energy,series_max_abs_diff", rows)


def _thermal_row(beta: float, risk: RiskParams, terms: int) -> tuple:
    energy = thermal_energy(beta, risk)  # refuses a beta whose energy overflows
    hw = 0.5 * beta * risk.hbar_eff * risk.omega
    t = math.tanh(hw)
    # rounded in another order than thermal_energy's argument, hw can
    # underflow to 0 where that one does not (a tiny hbar_e, a large omega)
    if t == 0:
        raise ParameterRangeError(f"beta {beta} is too small: the thermal spread overflows")
    spread = 1.0 / t  # coth, thermal variance factor
    sq = math.sqrt(0.5 * risk.hbar_eff / (risk.m * risk.omega) * spread)
    sp = math.sqrt(0.5 * risk.hbar_eff * risk.m * risk.omega * spread)
    q_grid = Grid(-6 * sq, 6 * sq, 201)
    p_grid = Grid(-6 * sp, 6 * sp, 201)
    closed = thermal_wigner(beta, risk, p_grid, q_grid, mode="closed")
    series = thermal_wigner(beta, risk, p_grid, q_grid, mode="series", series_terms=terms)
    diff = float(np.max(np.abs(closed.values - series.values)))
    return beta, 1.0 / beta, energy, diff


def _run_risk_spectrum(params: dict, seed: int, emit: Emitter, base_dir: Path) -> None:
    path = "parameters"
    _refuse_unknown(params, ("levels", "risk"), path)
    risk = _parse_risk(params, path)
    levels = _get(params, "levels", int, path)
    if levels < 1:
        raise _fail(f"{path}.levels", "must be >= 1")
    spec = spectrum(risk, levels)
    emit.write_csv(
        "spectrum.csv",
        "level,eigenvalue",
        ((k, e) for k, e in enumerate(spec.eigenvalues)),
    )


def _run_clearing(params: dict, seed: int, emit: Emitter, base_dir: Path) -> None:
    path = "parameters"
    _refuse_unknown(params, ("traders", "rounds", "risk"), path)
    risk = _parse_risk(params, path)
    raw = _get(params, "traders", list, path)
    if len(raw) < 2:
        raise _fail(f"{path}.traders", "need at least two traders")
    traders = []
    for i, entry in enumerate(raw):
        epath = f"{path}.traders[{i}]"
        rep = Representation.DEMAND
        if isinstance(entry, dict):
            _refuse_unknown(entry, ("strategy", "rep"), epath)
            rep_name = _get(entry, "rep", str, epath, required=False, default="demand")
            if rep_name not in ("demand", "supply"):
                raise _fail(f"{epath}.rep", f"must be demand or supply, got {rep_name!r}")
            rep = Representation[rep_name.upper()]
            entry = _get(entry, "strategy", str, epath)
        traders.append(_parse_literal(entry, epath, rep, base_dir, risk))
    rounds = _get(params, "rounds", int, path)
    if rounds < 1:
        raise _fail(f"{path}.rounds", "must be >= 1")
    market = MarketState(tuple(traders))
    gen = RandomSource(seed).rng
    outcomes = [clear_round(market, gen, risk=risk) for _ in range(rounds)]
    round_log_to_csv(outcomes, emit.path("rounds.csv"))


_HANDLERS = {
    "curves": _run_curves,
    "fixed-point": _run_fixed_point,
    "auction": _run_auction,
    "zeno": _run_zeno,
    "thermal": _run_thermal,
    "risk-spectrum": _run_risk_spectrum,
    "clearing": _run_clearing,
}


# ---------------------------------------------------------------------------
# commands


def _cmd_run(args: argparse.Namespace) -> int:
    scenario_path = Path(args.scenario)
    try:
        text = scenario_path.read_text()
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    try:
        doc = json.loads(
            text,
            parse_constant=lambda token: _refuse_token(text, token, f"{token} is not a JSON value"),
            parse_int=lambda token: _parse_int(text, token),
            parse_float=lambda token: _parse_float(text, token),
        )
    except json.JSONDecodeError as exc:
        print(
            f"error: scenario parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2

    try:
        if not isinstance(doc, dict):
            raise _fail("$", "scenario must be a JSON object")
        _refuse_unknown(doc, ("kind", "seed", "parameters", "output"), "scenario")
        kind = _get(doc, "kind", str, "scenario")
        if kind not in KINDS:
            raise _fail("scenario.kind", f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
        params = _get(doc, "parameters", dict, "scenario")
        seed = _get(doc, "seed", int, "scenario", required=False, default=0)
        if args.seed is not None:
            seed = args.seed
            if kind == "auction":
                params = dict(params)
                params["seed"] = seed
        if not 0 <= seed < 2**64:  # the seeds a RandomSource takes
            raise _fail("scenario.seed", f"must lie in 0..2**64 - 1, got {seed}")
        out_field = _get(doc, "output", str, "scenario", required=False)
        out_dir = Path(args.out) if args.out else (
            Path(out_field) if out_field else scenario_path.parent
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        emit = Emitter(out_dir)
        _HANDLERS[kind](params, seed, emit, scenario_path.parent)
    except ScenarioInvalid as exc:
        print(f"error: invalid scenario at {exc.path}: {exc}", file=sys.stderr)
        return 3
    except MarketModelError as exc:
        print(
            f"error: numerical failure in {doc.get('kind', '?')} scenario "
            f"({type(exc).__name__}): {exc}",
            file=sys.stderr,
        )
        return 4

    manifest = {
        "kind": kind,
        "parameters": params,
        "seed": seed,
        "outputs": emit.names,
        "versions": {
            "qmg": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name in emit.names:
        print(out_dir / name)
    print(out_dir / "manifest.json")
    return 0


_COLUMN_META = {
    "lnc": ("log price ln c", "log price"),
    "Fd": ("demand curve F_d", "probability"),
    "Fs": ("supply curve F_s", "probability"),
    "p": ("log selling price", "log price"),
    "q": ("log buying price", "log price"),
    "w": ("phase-space density", "1 / (log price)^2"),
    "n": ("measurement count", "count"),
    "survival": ("survival probability", "probability"),
    "sigma": ("RW spread", "log price"),
    "fixed_point": ("profit intensity fixed point", "log price"),
    "max_intensity": ("maximal self-consistent intensity", "log price"),
    "beta": ("inverse temperature", "1 / risk"),
    "temperature": ("temperature", "risk"),
    "energy": ("mean thermal risk", "risk"),
    "series_max_abs_diff": ("closed vs series deviation", "1 / (log price)^2"),
    "level": ("eigenstate level", "count"),
    "eigenvalue": ("risk eigenvalue", "risk"),
    "bin_lo": ("price bin lower edge", "price"),
    "bin_hi": ("price bin upper edge", "price"),
    "count": ("samples in bin", "count"),
    "round": ("round index", "count"),
    "trader": ("trader index", "count"),
    "logprice": ("quoted log price", "log price"),
    "executed": ("deal executed", "boolean"),
    "flow": ("capital flow", "price"),
}


def _cmd_plotdata(args: argparse.Namespace) -> int:
    csv_path = Path(args.csv)
    try:
        with open(csv_path, newline="") as fh:
            reader = csv.DictReader(fh)
            columns = reader.fieldnames or []
            records = list(reader)
    except OSError as exc:
        print(f"error: cannot read csv: {exc}", file=sys.stderr)
        return 2
    wanted = [args.x] + [c for c in args.y.split(",") if c]
    for col in wanted:
        if col not in columns:
            print(
                f"error: invalid plot request at columns.{col}: "
                f"no such column (have: {', '.join(columns)})",
                file=sys.stderr,
            )
            return 3

    def values(col: str) -> list:
        out = []
        for rec in records:
            raw = rec[col]
            try:
                out.append(float(raw))
            except ValueError:
                out.append(raw)
        return out

    x_vals = values(args.x)
    numeric_x = [v for v in x_vals if isinstance(v, float)]
    log_x = (
        len(numeric_x) == len(x_vals)
        and len(numeric_x) >= 2
        and min(numeric_x) > 0
        and max(numeric_x) / min(numeric_x) >= 100.0
    )
    label, unit = _COLUMN_META.get(args.x, (args.x, "dimensionless"))
    payload = {
        "source": str(csv_path),
        "x": {"column": args.x, "label": label, "unit": unit, "values": x_vals},
        "series": [],
        "log_x": log_x,
    }
    for col in wanted[1:]:
        label, unit = _COLUMN_META.get(col, (col, "dimensionless"))
        payload["series"].append(
            {"column": col, "label": label, "unit": unit, "values": values(col)}
        )
    out_path = Path(args.out) if args.out else csv_path.with_name(csv_path.name + ".plot.json")
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(out_path)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qmg", description="quantum market game scenario runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario JSON file")
    run_p.add_argument("scenario", help="path to scenario.json")
    run_p.add_argument("--out", help="output directory (default: scenario's output field or its directory)")
    run_p.add_argument("--seed", type=int, help="override the scenario seed")
    run_p.set_defaults(func=_cmd_run)

    plot_p = sub.add_parser("plotdata", help="emit plot-data JSON from an output CSV")
    plot_p.add_argument("csv", help="path to an output CSV")
    plot_p.add_argument("--x", required=True, help="x-axis column name")
    plot_p.add_argument("--y", required=True, help="comma-separated y column names")
    plot_p.add_argument("--out", help="output JSON path (default: <csv>.plot.json)")
    plot_p.set_defaults(func=_cmd_plotdata)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
