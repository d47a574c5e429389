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
from collections import namedtuple
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

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


class ScenarioInvalid(Exception):
    """Validation failure carrying the offending field path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(message)
        self.path = path


# ---------------------------------------------------------------------------
# field types: each parses one JSON value at its path, or refuses it there

_REQUIRED = object()


def _typed(value, kinds, path: str):
    # bool passes isinstance(int) checks; scenarios never want that
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ScenarioInvalid(path, f"unexpected type {type(value).__name__}")
    return value


@dataclass(frozen=True, kw_only=True)
class _Field:
    """A field's type and range; ``default`` fills it when absent, ``phrase`` is README's."""

    default: object = _REQUIRED
    phrase: str = ""


@dataclass(frozen=True)
class _Value(_Field):
    """A JSON value of the given Python types, one of ``options`` where they are given."""

    kinds: type
    options: tuple = ()

    def parse(self, value, path: str, scope: dict):
        _typed(value, self.kinds, path)
        if self.options and value not in self.options:
            raise ScenarioInvalid(path, f"must be one of {', '.join(self.options)}, got {value!r}")
        return value


@dataclass(frozen=True)
class _Number(_Field):
    """A number in [lo, hi] ((lo, hi) where ``open_ends``), finite as the parser lets no other in;
    a ``count`` is an integer, and its cap bounds what it allocates before anything is."""

    lo: float = -math.inf
    hi: float = math.inf
    count: bool = False
    open_ends: bool = False

    def parse(self, value, path: str, scope: dict):
        value = _typed(value, int, path) if self.count else float(_typed(value, (int, float), path))
        if not (self.lo < value < self.hi if self.open_ends else self.lo <= value <= self.hi):
            ends = "()" if self.open_ends else "[]"
            raise ScenarioInvalid(path, f"must lie in {ends[0]}{self.lo}, {self.hi}{ends[1]}, got {value!r}")
        return value


@dataclass(frozen=True)
class _List(_Field):
    """A list of ``item``s, at least ``least`` long, strictly ascending where ``ascending``."""

    item: _Field
    least: int = 1
    ascending: bool = False

    def parse(self, value, path: str, scope: dict) -> list:
        if len(_typed(value, list, path)) < self.least:
            raise ScenarioInvalid(path, f"must hold at least {self.least} items")
        items = [self.item.parse(v, f"{path}[{i}]", scope) for i, v in enumerate(value)]
        if self.ascending and any(b <= a for a, b in zip(items, items[1:])):
            raise ScenarioInvalid(path, "must be strictly ascending")
        return items


@dataclass(frozen=True)
class _Literal(_Field):
    """A strategy literal in ``rep``, read with the scope's risk and directory.

    ``proper`` refuses point strategies; ``superpose`` also takes a
    nonempty list of literals, for their equal superposition; ``record``
    also takes a ``{strategy, rep}`` record naming the representation.
    """

    rep: Representation = Representation.DEMAND
    proper: bool = False
    superpose: bool = False
    record: bool = False

    def parse(self, value, path: str, scope: dict) -> Strategy:
        if self.superpose and isinstance(value, list):
            parts = _List(item=replace(self, superpose=False)).parse(value, path, scope)
            return Strategy.superpose(parts, [1.0] * len(parts))
        rep = self.rep
        if self.record and isinstance(value, dict):
            entry = _walk(value, _TRADER, path, scope)
            value, rep = entry["strategy"], Representation[entry["rep"].upper()]
        try:
            s = parse_strategy(_typed(value, str, path), rep, scope["base_dir"], scope["risk"])
        except (MarketModelError, ValueError, OSError) as exc:
            raise ScenarioInvalid(path, str(exc))
        if self.proper and s.is_improper:
            raise ScenarioInvalid(path, "point strategies have no density to work on")
        return s


_POSITIVE = _Number(0.0, open_ends=True)
_SEED = _Number(0, 2**64 - 1, count=True)  # the seeds a RandomSource takes
_TRADER = {"strategy": _Value(str), "rep": _Value(str, ("demand", "supply"), default="demand")}
_RISK = {
    "hbar_e": _POSITIVE,
    "theta": replace(_POSITIVE, default=None),
    "omega": replace(_POSITIVE, default=None),
    "m": replace(_POSITIVE, default=1.0),
    "theta_nc": _Number(0.0, default=0.0),
}


@dataclass(frozen=True)
class _Risk(_Field):
    """The risk record, the unit operator when absent; literals parsed after it read it."""

    default: object = UNIT_RISK

    def parse(self, value, path: str, scope: dict) -> RiskParams:
        doc = _walk(value, _RISK, path, scope)
        if (doc["theta"] is None) == (doc["omega"] is None):
            raise ScenarioInvalid(f"{path}.theta", "give either theta or omega, not both nor neither")
        build = RiskParams if doc["omega"] is None else RiskParams.from_omega
        try:
            risk = build(doc["hbar_e"], doc["theta"] or doc["omega"], doc["m"], doc["theta_nc"])
        except ParameterRangeError as exc:
            raise ScenarioInvalid(path, str(exc))
        scope["risk"] = risk
        return risk


def _walk(doc, fields: dict, path: str, scope: dict) -> dict:
    """Parse a JSON object by its table: nothing unknown, every field typed and ranged, defaults filled."""
    _typed(doc, dict, path)
    for name in doc:
        if name not in fields:
            raise ScenarioInvalid(f"{path}.{name}", f"unknown field; expected {', '.join(fields)}")
    parsed = {}
    for name, field in fields.items():
        if name in doc:
            parsed[name] = field.parse(doc[name], f"{path}.{name}", scope)
        elif field.default is _REQUIRED:
            raise ScenarioInvalid(f"{path}.{name}", "required field missing")
        else:
            parsed[name] = field.default
    return parsed


# ---------------------------------------------------------------------------
# the JSON parser's hooks

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
    """parse_int hook: an integer too long for int(), or past the doubles, is a parse error."""
    try:
        value = int(token)
        float(value)  # every number field reads its value as a double
        return value
    except ValueError:
        _refuse_token(text, token, f"integer literal of {len(token.lstrip('-'))} digits is too long")
    except OverflowError:
        _refuse_token(text, token, f"integer {token} overflows a double")


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
    if isinstance(value, (int, np.integer)):  # bools too: 0 and 1
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# ---------------------------------------------------------------------------
# kind handlers: compute and write, from fields the schema has parsed


def _each(p: dict, field: str, f) -> list:
    """f over a list field's items; a ParameterRangeError is blamed on its item."""
    out = []
    for i, value in enumerate(p[field]):
        try:
            out.append(f(value))
        except ParameterRangeError as exc:
            raise ScenarioInvalid(f"parameters.{field}[{i}]", str(exc)) from None
    return out


def _run_curves(p: dict, seed: int, emit: Emitter) -> None:
    risk = p["risk"]
    if p["family"] == "coherent":
        cp = CoherentParams(p["r"], p["eta"], p["p0"], p["q0"])
        density = coherent_wigner(cp, hbar=risk.hbar_eff)
    elif p["family"] == "thermal":
        density = thermal_wigner(p["beta"], risk)
    elif p["family"] == "excited":
        density = excited_wigner(p["n"], risk)
    else:
        density = wigner_transform(p["strategy"], hbar=risk.hbar_eff)
    curves = dominant_curves(density)
    density.to_csv(emit.path("density.csv"))
    curves.to_csv(emit.path("curves.csv"))


def _run_fixed_point(p: dict, seed: int, emit: Emitter) -> None:
    rows = _each(p, "sigmas", lambda sigma: cooling_experiment([sigma])[0])
    emit.write_csv(
        "cooling.csv",
        "sigma,fixed_point,max_intensity",
        ((r.sigma, r.fixed_point, r.max_intensity) for r in rows),
    )


def _run_auction(p: dict, seed: int, emit: Emitter) -> None:
    weight = p["weight"]
    if weight is None:
        weight = 1.0
    elif p["pricing"] != "mixed":  # a pure pricing has no share to set
        raise ScenarioInvalid("parameters.weight", f"applies to mixed pricing only, not {p['pricing']}")
    rng = RandomSource(seed if p["seed"] is None else p["seed"])
    outcome = run_auction(
        AuctionInstance(tuple(p["buyers"]), p["seller"], p["pricing"], weight, p["samples"], rng)
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
    emit.write_csv("price_histogram.csv", "bin_lo,bin_hi,count", zip(edges, edges[1:], outcome.price_counts))


def _run_zeno(p: dict, seed: int, emit: Emitter) -> None:
    run = ZenoRun(p["initial"], p["total_time"], p["n_values"][0], risk=p["risk"])
    freeze_table_to_csv(freeze_experiment(run, p["n_values"]), emit.path("zeno.csv"))


def _run_thermal(p: dict, seed: int, emit: Emitter) -> None:
    rows = _each(p, "betas", lambda beta: _thermal_row(beta, p["risk"], p["series_terms"]))
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


def _run_risk_spectrum(p: dict, seed: int, emit: Emitter) -> None:
    spec = spectrum(p["risk"], p["levels"])
    emit.write_csv("spectrum.csv", "level,eigenvalue", enumerate(spec.eigenvalues))


def _run_clearing(p: dict, seed: int, emit: Emitter) -> None:
    market = MarketState(tuple(p["traders"]))
    gen = RandomSource(seed).rng
    outcomes = [clear_round(market, gen, hbar=p["risk"].hbar_eff) for _ in range(p["rounds"])]
    round_log_to_csv(outcomes, emit.path("rounds.csv"))


# ---------------------------------------------------------------------------
# the scenario schema: each kind's fields in parse order (the risk record
# first, as literals read it), with README's phrase for each; and the
# field that a library ParameterRangeError is blamed on


_Kind = namedtuple("_Kind", "run fields blame")
_FAMILY = _Value(str, ("coherent", "thermal", "excited", "strategy"), phrase="coherent, thermal, excited or strategy")
_LEVEL = _Number(0, EXCITED_MAX_LEVEL, count=True, phrase=f"level, 0 to {EXCITED_MAX_LEVEL}")

# curves: one table per family, chosen by its family field
_CURVES = {
    "coherent": _Kind(_run_curves, {
        "family": _FAMILY,
        "risk": _Risk(),
        "r": _Number(-1.0, 1.0, open_ends=True, phrase="correlation, -1 < r < 1"),
        "eta": replace(_POSITIVE, phrase="dispersion scale, > 0"),
        "p0": _Number(default=0.0, phrase="default 0"),
        "q0": _Number(default=0.0, phrase="default 0"),
    }, "eta"),
    "thermal": _Kind(_run_curves, {
        "family": _FAMILY, "risk": _Risk(), "beta": replace(_POSITIVE, phrase="> 0"),
    }, "beta"),
    "excited": _Kind(_run_curves, {"family": _FAMILY, "risk": _Risk(), "n": _LEVEL}, "risk"),
    "strategy": _Kind(_run_curves, {
        "family": _FAMILY, "risk": _Risk(), "strategy": _Literal(proper=True, phrase="a literal, not a point"),
    }, "strategy"),
}

_SCHEMA = {
    "curves": _CURVES,
    # the profit-intensity fixed point does not involve the risk operator
    "fixed-point": _Kind(_run_fixed_point, {
        "sigmas": _List(_POSITIVE, phrase="RW spreads, each > 0"),
    }, "sigmas"),
    "auction": _Kind(_run_auction, {
        "risk": _Risk(),
        "buyers": _List(_Literal(), phrase="literals"),
        "seller": _Literal(Representation.SUPPLY, phrase="a literal on the supply side"),
        "pricing": _Value(str, PRICINGS, phrase="first, second or mixed"),
        "weight": _Number(0.0, 1.0, default=None, phrase="first-price share in [0, 1], mixed pricing only, default 1"),
        "samples": _Number(1, 10**7, count=True, default=100_000, phrase="1 to 10^7, default 100000"),
        "seed": replace(_SEED, default=None, phrase="default: the scenario's"),
    }, "buyers"),
    "zeno": _Kind(_run_zeno, {
        "risk": _Risk(),
        "initial": _Literal(proper=True, superpose=True, phrase="literal, or list for an equal superposition"),
        "total_time": _Number(0.0, phrase="units of theta, >= 0"),
        # n divides the phase as a double, exact up to 2^53
        "n_values": _List(_Number(1, 2**53, count=True), ascending=True, phrase="ascending, each 1 to 2^53"),
    }, "initial"),
    "thermal": _Kind(_run_thermal, {
        "risk": _Risk(),
        "betas": _List(_POSITIVE, phrase="each > 0"),
        "series_terms": _Number(1, 10**4, count=True, default=200, phrase="1 to 10^4, default 200"),
    }, "betas"),
    "risk-spectrum": _Kind(_run_risk_spectrum, {
        "risk": _Risk(), "levels": _Number(1, 10**6, count=True, phrase="1 to 10^6"),
    }, "risk"),
    "clearing": _Kind(_run_clearing, {
        "risk": _Risk(),
        "traders": _List(_Literal(record=True), least=2, phrase="two or more literals or {strategy, rep} records"),
        "rounds": _Number(1, 10**6, count=True, phrase="1 to 10^6"),
    }, "traders"),
}
KINDS = tuple(_SCHEMA)

_TOP = {
    "kind": _Value(str, KINDS),
    "parameters": _Value(dict),
    "seed": replace(_SEED, default=0),
    "output": _Value(str, default=""),
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

    scope = {"base_dir": scenario_path.parent, "risk": UNIT_RISK}
    kind = "?"
    try:
        if args.seed is not None and isinstance(doc, dict):
            doc = {**doc, "seed": args.seed}
        top = _walk(doc, _TOP, "scenario", scope)
        kind, params, seed = top["kind"], top["parameters"], top["seed"]
        if args.seed is not None and kind == "auction":
            params = {**params, "seed": seed}
        spec = _SCHEMA[kind]
        if kind == "curves":  # the family field, read first, picks the table
            head = {k: v for k, v in params.items() if k == "family"}
            spec = spec[_walk(head, {"family": _FAMILY}, "parameters", scope)["family"]]
        fields = _walk(params, spec.fields, "parameters", scope)
        out_dir = Path(args.out or top["output"] or scenario_path.parent)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ScenarioInvalid("--out" if args.out else "scenario.output", str(exc)) from None
        emit = Emitter(out_dir)
        try:
            spec.run(fields, seed, emit)
        except ParameterRangeError as exc:  # the library refuses what the schema let through
            raise ScenarioInvalid(f"parameters.{spec.blame}", str(exc)) from None
    except ScenarioInvalid as exc:
        print(f"error: invalid scenario at {exc.path}: {exc}", file=sys.stderr)
        return 3
    except MarketModelError as exc:
        print(
            f"error: numerical failure in {kind} scenario ({type(exc).__name__}): {exc}",
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


def _float_or_text(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


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

    def axis(col: str) -> dict:
        label, unit = _COLUMN_META.get(col, (col, "dimensionless"))
        return {"column": col, "label": label, "unit": unit, "values": [_float_or_text(r[col]) for r in records]}

    x = axis(args.x)
    numeric_x = [v for v in x["values"] if isinstance(v, float)]
    log_x = (
        len(numeric_x) == len(x["values"])
        and len(numeric_x) >= 2
        and min(numeric_x) > 0
        and max(numeric_x) / min(numeric_x) >= 100.0
    )
    payload = {"source": str(csv_path), "x": x, "series": [axis(c) for c in wanted[1:]], "log_x": log_x}
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
