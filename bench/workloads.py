"""The four benchmark workloads.

A workload builds one *pass* at a time: a list of operations whose
inputs are drawn fresh from ``(seed, workload, pass index)``, so no two
passes share a strategy.  Each operation is one library analysis or one
scenario run through ``qmg.cli.main``; ``run`` is timed and ``check``
compares its output with an independent reference from ``checks``.

Input ranges are narrow on purpose: they keep grid sizes, chord counts
and basis sizes close from pass to pass, so the work a pass does barely
depends on the seed while every value it computes does.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import checks as ck

import qmg
import qmg.cli
from qmg import Representation, Strategy


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    emitted: int = 0  # bytes the operation wrote, for traced runs


def _rng(seed: int, workload: str, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_IDS[workload], k])


def _cnormal(rng, size) -> np.ndarray:
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _levels_strategy(spec: ck.Levels, risk=qmg.UNIT_RISK) -> Strategy:
    parts = [Strategy.hermite(n, risk) for n in range(len(spec.coeffs))]
    return Strategy.superpose(parts, spec.coeffs)


def _packets_strategy(spec: ck.Packets) -> Strategy:
    parts = [Strategy.gaussian(a, spec.width, k) for a, k in zip(spec.centers, spec.slopes)]
    if len(parts) == 1:
        return parts[0]
    return Strategy.superpose(parts, spec.coeffs)


def _random_risk(rng) -> qmg.RiskParams:
    return qmg.RiskParams(
        hbar_e=float(rng.uniform(0.6, 1.6)),
        theta=float(rng.uniform(1.5 * math.pi, 3.0 * math.pi)),
        m=float(rng.uniform(0.7, 1.4)),
    )


# ---------------------------------------------------------------------------
# phase-space: Wigner densities of non-Gaussian pure strategies

SAMPLED_GRID = (-8.0, 8.0, 321)
BIG_N = 961


def _phases(rng, size) -> np.ndarray:
    """Equal moduli, random phases: every draw spreads over the same levels."""
    return np.exp(2j * math.pi * rng.random(size)) / math.sqrt(size)


def _phase_space_strategies(rng):
    """(label, strategy, amplitude spec, expect negativity) for one pass.

    Widths, separations and slope sizes are fixed and only centers and
    phases are drawn, because those set the grids and chord counts.
    """
    levels = ck.Levels(tuple(complex(c) for c in _phases(rng, 6)))
    x0 = float(rng.uniform(-0.5, 0.5))
    cat = ck.Packets(
        tuple(complex(c) for c in _phases(rng, 2)), (x0 - 2.0, x0 + 2.0), 0.5, (0.0, 0.0)
    ).normalized()
    sloped = ck.Packets((1.0,), (float(rng.uniform(-1, 1)),), 0.8, (float(rng.choice([-1.5, 1.5])),))
    tabled = ck.Levels(tuple(complex(c) for c in _phases(rng, 6)))
    grid = qmg.Grid(*SAMPLED_GRID)
    sampled = Strategy.sampled(tabled.amplitude(grid.points), grid)
    return [
        ("levels", _levels_strategy(levels), levels, True),
        ("cat", _packets_strategy(cat), cat, True),
        ("sloped", _packets_strategy(sloped), sloped, False),
        ("sampled", sampled, tabled, True),
    ]


def phase_space_pass(seed: int, k: int, work: str) -> list[Op]:
    rng = _rng(seed, "phase-space", k)
    ops = []
    for label, s, spec, negative in _phase_space_strategies(rng):
        state: dict = {}

        def default(s=s, state=state):
            state["d"] = qmg.wigner_transform(s)
            return state["d"]

        def check_default(d, spec=spec):
            p, q = d.p_grid.points, d.q_grid.points
            ck.check_marginals(d.values, p, q, np.abs(spec.amplitude(q)) ** 2, np.abs(spec.dual(p)) ** 2)

        def big(s=s, state=state):
            d0 = state["d"]
            d = qmg.wigner_transform(
                s,
                p_grid=qmg.Grid(d0.p_grid.lo, d0.p_grid.hi, BIG_N),
                q_grid=qmg.Grid(d0.q_grid.lo, d0.q_grid.hi, BIG_N),
            )
            return d, qmg.is_giffen(d), qmg.dominant_curves(d)

        def check_big(out, spec=spec, negative=negative):
            d, report, curves = out
            p, q = d.p_grid.points, d.q_grid.points
            ck.check_marginals(d.values, p, q, np.abs(spec.amplitude(q)) ** 2, np.abs(spec.dual(p)) ** 2)
            ck.check_giffen(report, d.values, negative)
            ck.check_curves(curves.lnc, curves.demand, curves.supply, d.values, p, q, 1e-5)

        ops.append(Op(f"wigner-default/{label}", default, check_default))
        ops.append(Op(f"wigner-{BIG_N}/{label}", big, check_big))
    return ops


# ---------------------------------------------------------------------------
# market: auctions and clearing over reused strategies

AUCTION_DRAWS = 200_000
CLEARING_ROUNDS = 30
VICKREY_FACTORS = (0.6, 0.8, 1.0, 1.25, 1.6)


def _market_buyer(rng, i: int) -> ck.Levels:
    """Even buyers are one level hermite(n <= 3), odd ones a three-level superposition."""
    if i % 2 == 0:
        c = np.zeros(int(rng.integers(0, 4)) + 1, dtype=complex)
        c[-1] = 1.0
        return ck.Levels(tuple(complex(v) for v in c))
    return ck.normalized_levels(_cnormal(rng, 3))


def market_pass(seed: int, k: int, work: str) -> list[Op]:
    rng = _rng(seed, "market", k)
    buyer_specs = [_market_buyer(rng, i) for i in range(16)]
    buyers = tuple(_levels_strategy(b) for b in buyer_specs)
    seller_level = int(rng.integers(0, 3))
    seller = qmg.parse_strategy(f"hermite({seller_level})", rep=Representation.SUPPLY)
    refs: dict = {}

    def reference(n):
        if n not in refs:
            seller_law = ck.Law(ck.Levels(tuple([0.0] * seller_level + [1.0])).amplitude, (-12.0, 12.0))
            laws = [ck.Law(b.amplitude, b.bounds()) for b in buyer_specs[:n]]
            refs[n] = ck.auction_reference(laws, seller_law)
        return refs[n]

    ops = []
    for n in (8, 16):
        inst = qmg.AuctionInstance(buyers=buyers[:n], seller=seller)
        ops.append(Op(
            f"transaction-probabilities/{n}",
            lambda inst=inst: qmg.transaction_probabilities(inst),
            lambda rep, n=n: ck.check_transaction_report(rep, reference(n)),
        ))

    weight = float(rng.uniform(0.2, 0.8))
    auction_seed = int(rng.integers(0, 2**32))
    outcomes: dict = {}
    for pricing in ("first", "second", "mixed"):
        inst = qmg.AuctionInstance(
            buyers=buyers[:8], seller=seller, pricing=pricing, weight=weight,
            mc_samples=AUCTION_DRAWS, rng=qmg.RandomSource(auction_seed),
        )

        def check_auction(out, pricing=pricing):
            outcomes[pricing] = out
            ref = reference(8)
            ck.check_winner_freqs(out.winner_freq, out.p_no_trade, ref.probs, out.n_samples)
            ck.check_histogram(out.price_bin_edges, out.price_counts, (1.0 - out.p_no_trade) * out.n_samples)
            if pricing == "mixed":
                ck.require("first" in outcomes and "second" in outcomes, "pure-pricing runs missing")
                ck.check_auction_pricings(outcomes["first"], outcomes["second"], out, weight, ref)

        ops.append(Op(f"run-auction/{pricing}", lambda inst=inst: qmg.run_auction(inst), check_auction))

    # exact Vickrey: 5 discrete opponents of 5 atoms and a discrete seller
    valuation = float(math.exp(rng.uniform(-0.5, 0.5)))
    bids = [valuation * f for f in VICKREY_FACTORS]
    opp_atoms = [list(zip(rng.normal(size=5), rng.uniform(0.2, 1.0, size=5))) for _ in range(5)]
    seller_atoms = list(zip(rng.normal(size=5), rng.uniform(0.2, 1.0, size=5)))
    opponents = [Strategy.discrete([a for a, _ in at], [w for _, w in at]) for at in opp_atoms]
    seller_d = Strategy.discrete([a for a, _ in seller_atoms], [w for _, w in seller_atoms], rep=Representation.SUPPLY)
    norm_atoms = [[(a, w / sum(x for _, x in at)) for a, w in at] for at in opp_atoms]
    norm_seller = [(a, w / sum(x for _, x in seller_atoms)) for a, w in seller_atoms]
    ops.append(Op(
        "vickrey/exact",
        lambda: qmg.vickrey_truthfulness_check(valuation, bids, opponents, seller_d),
        lambda rep: ck.check_vickrey_exact(
            rep, valuation, ck.vickrey_exact_reference(valuation, bids, norm_atoms, norm_seller)
        ),
    ))

    # Monte Carlo Vickrey against Gaussian opponents
    g_opp = [(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.7, 1.3))) for _ in range(4)]
    g_seller = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.7, 1.3)))
    g_val = float(math.exp(rng.uniform(-0.3, 0.3)))
    g_bids = [g_val * f for f in VICKREY_FACTORS]
    g_opponents = [Strategy.gaussian(m, s) for m, s in g_opp]
    g_seller_s = Strategy.gaussian(*g_seller, rep=Representation.SUPPLY)
    mc_seed = int(rng.integers(0, 2**32))
    mc_samples = 200_000
    ops.append(Op(
        "vickrey/monte-carlo",
        lambda: qmg.vickrey_truthfulness_check(
            g_val, g_bids, g_opponents, g_seller_s, rng=qmg.RandomSource(mc_seed), mc_samples=mc_samples
        ),
        lambda rep: ck.check_vickrey_mc(rep, *ck.vickrey_gaussian_reference(g_val, g_bids, g_opp, g_seller), mc_samples),
    ))

    # clearing rounds over one 8-trader superposed market
    market = qmg.MarketState(tuple(_levels_strategy(ck.normalized_levels(_cnormal(rng, 3))) for _ in range(8)))
    clear_seed = int(rng.integers(0, 2**32))

    def clearing():
        gen = qmg.RandomSource(clear_seed).rng
        return [qmg.clear_round(market, gen) for _ in range(CLEARING_ROUNDS)]

    def check_clearing(outs):
        ck.require(len(outs) == CLEARING_ROUNDS, "missing clearing rounds")
        for out in outs:
            ck.check_clearing_round(out, len(market))

    ops.append(Op(f"clearing/{CLEARING_ROUNDS}-rounds", clearing, check_clearing))

    sigmas = [float(x) for x in np.exp(rng.uniform(-2.0, 2.0, size=5))]
    ops.append(Op(
        "fixed-point",
        lambda: qmg.cooling_experiment(sigmas),
        lambda rows: ck.check_cooling_rows(
            sigmas, [r.fixed_point for r in rows], [r.max_intensity for r in rows]
        ),
    ))
    return ops


# ---------------------------------------------------------------------------
# risk-dynamics: Zeno sweeps, thermal mixtures, risk expectations

N_VALUES = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89)
THERMAL_BETAS = 4


def risk_dynamics_pass(seed: int, k: int, work: str) -> list[Op]:
    rng = _rng(seed, "risk-dynamics", k)
    risk = _random_risk(rng)
    hb, om, m = risk.hbar_eff, risk.omega, risk.m
    ell = math.sqrt(hb / (m * om))
    ops = []

    for i in range(3):
        x0 = float(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)) * ell
        slope = float(rng.uniform(-1.0, 1.0)) / ell
        alpha_sq = 0.5 * ((x0 / ell) ** 2 + (slope * ell) ** 2)
        total_time = float(rng.uniform(0.2, 0.45))
        run = qmg.ZenoRun(Strategy.gaussian(x0, ell / math.sqrt(2.0), slope), total_time, 1, risk=risk)
        ops.append(Op(
            f"zeno/coherent-{i}",
            lambda run=run: qmg.freeze_experiment(run, N_VALUES),
            lambda rows, a=alpha_sq, t=total_time: ck.check_survival(
                rows, lambda n: ck.coherent_survival(a, t, n), 1e-7
            ),
        ))

    for i in range(3):
        lo = int(rng.integers(0, 6))
        c = _cnormal(rng, 2)
        weight = float(abs(c[0]) ** 2 / (abs(c[0]) ** 2 + abs(c[1]) ** 2))
        total_time = float(rng.uniform(0.2, 0.45))
        s = Strategy.superpose([Strategy.hermite(lo, risk), Strategy.hermite(lo + 1, risk)], c)
        run = qmg.ZenoRun(s, total_time, 1, risk=risk)
        ops.append(Op(
            f"zeno/two-level-{i}",
            lambda run=run: qmg.freeze_experiment(run, N_VALUES),
            lambda rows, w=weight, t=total_time: ck.check_survival(
                rows, lambda n: ck.two_level_survival(w, 1, t, n), 1e-12
            ),
        ))

    eigen = qmg.ZenoRun(Strategy.hermite(int(rng.integers(0, 8)), risk), float(rng.uniform(0.2, 0.45)), 1, risk=risk)
    ops.append(Op(
        "zeno/eigenstate",
        lambda: qmg.freeze_experiment(eigen, N_VALUES),
        lambda rows: ck.check_survival(rows, lambda n: 1.0, 1e-12),
    ))

    for beta in np.sort(rng.uniform(0.4, 3.0, size=THERMAL_BETAS)) / (hb * om):
        beta = float(beta)
        ops.append(Op(
            f"thermal/beta={beta:.3f}",
            lambda beta=beta: (
                qmg.thermal_wigner(beta, risk),
                qmg.thermal_wigner(beta, risk, mode="series"),
                qmg.thermal_energy(beta, risk),
            ),
            lambda out, beta=beta: ck.check_thermal(*out, beta, hb, om, m),
        ))

    levels = int(rng.integers(10, 40))
    ops.append(Op(
        "spectrum",
        lambda: qmg.spectrum(risk, levels),
        lambda spec: ck.check_spectrum(spec.eigenvalues, hb, om),
    ))

    for i in range(3):
        width = float(rng.uniform(0.5, 1.5)) * ell
        s = Strategy.gaussian(float(rng.uniform(-1, 1)), width, float(rng.uniform(-1, 1)))
        ref = ck.gaussian_risk(width, hb, om, m)
        ops.append(Op(
            f"risk-expectation/gaussian-{i}",
            lambda s=s: qmg.risk_expectation(s, risk),
            lambda v, ref=ref: ck.check_close(v, ref, 1e-8, "Gaussian <H>"),
        ))
    for i in range(3):
        spec = ck.normalized_levels(_cnormal(rng, 4), ell)
        s = _levels_strategy(spec, risk)
        ref = ck.levels_risk(spec.coeffs, hb, om, m)
        ops.append(Op(
            f"risk-expectation/levels-{i}",
            lambda s=s: qmg.risk_expectation(s, risk),
            lambda v, ref=ref: ck.check_close(v, ref, 1e-8, "superposition <H>"),
        ))
    return ops


# ---------------------------------------------------------------------------
# scenario-deck: one fresh document per scenario kind through qmg.cli.main

DECK_AUCTION_DRAWS = 40_000
DECK_ROUNDS = 20


def _risk_record(rng) -> tuple[dict, qmg.RiskParams]:
    doc = {
        "hbar_e": float(rng.uniform(0.6, 1.6)),
        "theta": float(rng.uniform(1.5 * math.pi, 3.0 * math.pi)),
        "m": float(rng.uniform(0.7, 1.4)),
        "theta_nc": float(rng.uniform(0.0, 0.5)),
    }
    return doc, qmg.RiskParams(**doc)


def _cli_op(kind: str, scenario: str, out_dir: str, seed: int, check) -> Op:
    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = qmg.cli.main(["run", scenario, "--out", out_dir])
        return code, sink.getvalue()

    def check_run(result):
        code, text = result
        ck.require(code == 0, f"qmg run exited {code}: {text.strip()[-300:]}")
        ck.check_manifest(out_dir, kind, seed)
        check(out_dir)
        op.emitted = sum(entry.stat().st_size for entry in os.scandir(out_dir))

    op = Op(f"cli/{kind}", run, check_run)
    return op


def scenario_deck_pass(seed: int, k: int, work: str) -> list[Op]:
    rng = _rng(seed, "scenario-deck", k)
    ops = []

    def add(kind, params, check):
        run_seed = int(rng.integers(0, 2**31))
        scenario = os.path.join(work, f"{kind}.json")
        with open(scenario, "w") as fh:
            json.dump({"kind": kind, "seed": run_seed, "parameters": params}, fh)
        ops.append(_cli_op(kind, scenario, os.path.join(work, f"{kind}-out"), run_seed, check))

    # curves: Wigner density of a tabulated Hermite superposition
    tabled = ck.normalized_levels(_cnormal(rng, 6))
    grid = np.linspace(*SAMPLED_GRID)
    amps = tabled.amplitude(grid)
    with open(os.path.join(work, "amp.csv"), "w") as fh:
        fh.write("x,re,im\n")
        for x, a in zip(grid, amps):
            fh.write(f"{float(x)!r},{float(a.real)!r},{float(a.imag)!r}\n")

    def check_curves(out):
        p, q, w = ck.read_density_csv(os.path.join(out, "density.csv"))
        ck.check_marginals(w, p, q, np.abs(tabled.amplitude(q)) ** 2, np.abs(tabled.dual(p)) ** 2)
        header, data = ck.read_csv(os.path.join(out, "curves.csv"))
        ck.require(header == ["lnc", "Fd", "Fs"], f"curves.csv header {header}")
        ck.check_curves(data[:, 0], data[:, 1], data[:, 2], w, p, q, 1e-3)

    add("curves", {"family": "strategy", "strategy": "sampled(@amp.csv)"}, check_curves)

    sigmas = [float(x) for x in np.exp(rng.uniform(-2.0, 2.0, size=4))]

    def check_cooling(out):
        header, data = ck.read_csv(os.path.join(out, "cooling.csv"))
        ck.require(header == ["sigma", "fixed_point", "max_intensity"], f"cooling.csv header {header}")
        ck.require(list(data[:, 0]) == sigmas, "cooling.csv sigmas differ from the scenario")
        ck.check_cooling_rows(sigmas, data[:, 1], data[:, 2])

    add("fixed-point", {"sigmas": sigmas}, check_cooling)

    levels = [int(n) for n in rng.integers(0, 4, size=4)]
    seller_level = int(rng.integers(0, 3))
    weight = float(rng.uniform(0.2, 0.8))
    def check_auction(out):
        level_law = lambda n: ck.Law(ck.Levels(tuple([0.0] * n + [1.0])).amplitude, (-12.0, 12.0))
        with open(os.path.join(out, "results.json")) as fh:
            res = json.load(fh)
        ck.require(res["pricing"] == "mixed" and res["weight"] == weight, "results.json pricing/weight")
        ck.require(res["samples"] == DECK_AUCTION_DRAWS, "results.json sample count")
        ref = ck.auction_reference([level_law(n) for n in levels], level_law(seller_level))
        ck.check_winner_freqs(res["winner_freq"], res["p_no_trade"], ref.probs, DECK_AUCTION_DRAWS)
        header, data = ck.read_csv(os.path.join(out, "price_histogram.csv"))
        ck.require(header == ["bin_lo", "bin_hi", "count"], f"price_histogram.csv header {header}")
        edges = np.append(data[:, 0], data[-1, 1])
        ck.require(np.array_equal(data[1:, 0], data[:-1, 1]), "histogram bins are not contiguous")
        ck.check_histogram(edges, data[:, 2], (1.0 - res["p_no_trade"]) * DECK_AUCTION_DRAWS)

    add("auction", {
        "buyers": [f"hermite({n})" for n in levels],
        "seller": f"hermite({seller_level})",
        "pricing": "mixed",
        "weight": weight,
        "samples": DECK_AUCTION_DRAWS,
    }, check_auction)

    risk_doc, risk = _risk_record(rng)
    lo = int(rng.integers(0, 6))
    total_time = float(rng.uniform(0.2, 0.45))

    def check_zeno(out):
        header, data = ck.read_csv(os.path.join(out, "zeno.csv"))
        ck.require(header == ["n", "survival"], f"zeno.csv header {header}")
        ck.require([int(n) for n in data[:, 0]] == list(N_VALUES), "zeno.csv n column")
        rows = [qmg.FreezeRow(int(n), float(s)) for n, s in data]
        ck.check_survival(rows, lambda n: ck.two_level_survival(0.5, 1, total_time, n), 1e-12)

    add("zeno", {
        "initial": [f"hermite({lo})", f"hermite({lo + 1})"],
        "total_time": total_time,
        "n_values": list(N_VALUES),
        "risk": risk_doc,
    }, check_zeno)

    risk_doc, risk = _risk_record(rng)
    hb, om = risk.hbar_eff, risk.omega
    betas = [float(b) for b in np.sort(rng.uniform(0.4, 3.0, size=3)) / (hb * om)]

    def check_thermal(out):
        header, data = ck.read_csv(os.path.join(out, "thermal.csv"))
        ck.require(header == ["beta", "temperature", "energy", "series_max_abs_diff"], f"thermal.csv header {header}")
        ck.require(list(data[:, 0]) == betas, "thermal.csv betas differ from the scenario")
        for beta, temp, energy, diff in data:
            ck.check_close(temp, 1.0 / beta, 1e-15, "temperature")
            ck.check_close(energy, ck.thermal_energy_reference(beta, hb, om), 1e-12, "thermal energy")
            ck.require(0.0 <= diff <= 1e-8, f"series differs from the closed form by {diff:.3g}")

    add("thermal", {"betas": betas, "series_terms": 200, "risk": risk_doc}, check_thermal)

    risk_doc, risk = _risk_record(rng)
    n_levels = int(rng.integers(10, 40))

    def check_spectrum(out, hb=risk.hbar_eff, om=risk.omega):
        header, data = ck.read_csv(os.path.join(out, "spectrum.csv"))
        ck.require(header == ["level", "eigenvalue"], f"spectrum.csv header {header}")
        ck.require([int(n) for n in data[:, 0]] == list(range(n_levels)), "spectrum.csv levels")
        ck.check_spectrum(data[:, 1], hb, om)

    add("risk-spectrum", {"levels": n_levels, "risk": risk_doc}, check_spectrum)

    traders = []
    for i in range(6):  # demand Gaussians and supply-side Hermite levels, alternating
        if i % 2 == 0:
            traders.append(f"gaussian({rng.uniform(-1, 1)!r}, {rng.uniform(0.5, 1.5)!r})")
        else:
            traders.append({"strategy": f"hermite({int(rng.integers(0, 4))})", "rep": "supply"})

    def check_rounds(out):
        ck.check_rounds_csv(os.path.join(out, "rounds.csv"), len(traders), DECK_ROUNDS)

    add("clearing", {"traders": traders, "rounds": DECK_ROUNDS}, check_rounds)
    return ops


WORKLOADS = {
    "phase-space": phase_space_pass,
    "market": market_pass,
    "risk-dynamics": risk_dynamics_pass,
    "scenario-deck": scenario_deck_pass,
}
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}
