"""Every benchmark check passes on real qmg output and rejects a perturbed copy.

    python3 -m pytest bench -q

A check that cannot fail proves nothing, so each test feeds the check
the program's own output first, then the same output with one defect
injected: a scaled marginal, a flipped flow, a shifted survival, and so
on.  The last tests pin the references themselves to brute force.
"""

import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np
import pytest
from scipy import integrate

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks as ck  # noqa: E402
import qmg  # noqa: E402
import qmg.cli  # noqa: E402
import tracing  # noqa: E402
from qmg import Representation, Strategy  # noqa: E402

LEVELS = ck.normalized_levels([0.3 + 0.2j, -0.5, 0.4j, 0.6])
CAT = ck.Packets((1.0, 0.7j), (-1.8, 2.1), 0.5, (0.0, 0.0)).normalized()


def levels_strategy(spec, risk=qmg.UNIT_RISK):
    return Strategy.superpose([Strategy.hermite(n, risk) for n in range(len(spec.coeffs))], spec.coeffs)


def rejects(fn, *args, **kwargs):
    with pytest.raises(ck.CheckFailed):
        fn(*args, **kwargs)


@pytest.fixture(scope="module")
def cat_density():
    s = Strategy.superpose([Strategy.gaussian(a, CAT.width) for a in CAT.centers], CAT.coeffs)
    return qmg.wigner_transform(s)


def marginal_refs(d, spec):
    p, q = d.p_grid.points, d.q_grid.points
    return p, q, np.abs(spec.amplitude(q)) ** 2, np.abs(spec.dual(p)) ** 2


def test_marginals(cat_density):
    d = cat_density
    p, q, rq, rp = marginal_refs(d, CAT)
    ck.check_marginals(d.values, p, q, rq, rp)
    rejects(ck.check_marginals, d.values * 1.001, p, q, rq, rp)
    rejects(ck.check_marginals, d.values, p, q, np.roll(rq, 1), rp)
    rejects(ck.check_marginals, d.values, p, q, rq, np.full_like(rp, rp.mean()))


def test_giffen(cat_density):
    d = cat_density
    report = qmg.is_giffen(d)
    ck.check_giffen(report, d.values, negative=True)
    rejects(ck.check_giffen, dataclasses.replace(report, negative=False), d.values, True)
    rejects(ck.check_giffen, dataclasses.replace(report, min_value=report.min_value / 2), d.values, True)
    g = qmg.wigner_transform(Strategy.gaussian(0.2, 0.8, 1.5))
    ck.check_giffen(qmg.is_giffen(g), g.values, negative=False)
    dipped = np.array(g.values)
    dipped[3, 3] = -1e-3
    rejects(ck.check_giffen, qmg.is_giffen(g), dipped, False)


def test_curves(cat_density):
    d = cat_density
    c = qmg.dominant_curves(d)
    p, q = d.p_grid.points, d.q_grid.points
    ck.check_curves(c.lnc, c.demand, c.supply, d.values, p, q, 1e-3)
    rejects(ck.check_curves, c.lnc, c.demand + 0.02, c.supply, d.values, p, q, 1e-3)
    rejects(ck.check_curves, c.lnc, c.demand, c.supply[::-1], d.values, p, q, 1e-3)
    rejects(ck.check_curves, c.lnc + 0.1, c.demand, c.supply, d.values, p, q, 1e-3)


@pytest.fixture(scope="module")
def market():
    specs = [ck.Levels((0.0, 1.0)), LEVELS, ck.Levels((1.0,))]
    buyers = tuple(levels_strategy(s) for s in specs)
    seller = qmg.parse_strategy("hermite(1)", rep=Representation.SUPPLY)
    ref = ck.auction_reference([ck.Law(s.amplitude, s.bounds()) for s in specs], ck.Law(ck.Levels((0.0, 1.0)).amplitude, (-12.0, 12.0)))
    return buyers, seller, ref


def test_transaction_report(market):
    buyers, seller, ref = market
    rep = qmg.transaction_probabilities(qmg.AuctionInstance(buyers=buyers, seller=seller))
    ck.check_transaction_report(rep, ref)
    scaled = tuple(p * 1.01 for p in rep.per_buyer)
    rejects(ck.check_transaction_report, dataclasses.replace(rep, per_buyer=scaled, total=math.fsum(scaled), p_no_trade=1 - math.fsum(scaled)), ref)
    rejects(ck.check_transaction_report, dataclasses.replace(rep, p_no_trade=rep.p_no_trade + 1e-6), ref)


def test_auction_pricings(market):
    buyers, seller, ref = market
    runs = {
        pricing: qmg.run_auction(qmg.AuctionInstance(
            buyers=buyers, seller=seller, pricing=pricing, weight=0.3, mc_samples=100_000, rng=qmg.RandomSource(5)
        ))
        for pricing in ("first", "second", "mixed")
    }
    first, second, mixed = runs["first"], runs["second"], runs["mixed"]
    ck.check_auction_pricings(first, second, mixed, 0.3, ref)
    rejects(ck.check_auction_pricings, first, second, dataclasses.replace(mixed, revenue_mean=mixed.revenue_mean * (1 + 1e-6)), 0.3, ref)
    rejects(ck.check_auction_pricings, second, first, mixed, 0.3, ref)
    swapped = tuple(reversed(first.winner_freq))
    rejects(ck.check_winner_freqs, swapped, first.p_no_trade, ref.probs, first.n_samples)
    shifted = tuple(f + 0.05 * (-1) ** k for k, f in enumerate(first.winner_freq[:2])) + first.winner_freq[2:]
    rejects(ck.check_winner_freqs, shifted, first.p_no_trade, ref.probs, first.n_samples)
    executed = (1 - first.p_no_trade) * first.n_samples
    ck.check_histogram(first.price_bin_edges, first.price_counts, executed)
    rejects(ck.check_histogram, first.price_bin_edges, first.price_counts, executed - 1)
    rejects(ck.check_histogram, first.price_bin_edges[::-1], first.price_counts, executed)


def test_vickrey_exact():
    rng = np.random.default_rng(3)
    atoms = [list(zip(rng.normal(size=4), rng.uniform(0.2, 1, size=4))) for _ in range(3)]
    seller_atoms = list(zip(rng.normal(size=4), rng.uniform(0.2, 1, size=4)))
    norm = lambda at: [(a, w / sum(x for _, x in at)) for a, w in at]
    bids = [0.6, 0.8, 1.0, 1.25]
    rep = qmg.vickrey_truthfulness_check(
        1.0, bids,
        [Strategy.discrete([a for a, _ in at], [w for _, w in at]) for at in atoms],
        Strategy.discrete([a for a, _ in seller_atoms], [w for _, w in seller_atoms], rep=Representation.SUPPLY),
    )
    ref = ck.vickrey_exact_reference(1.0, bids, [norm(at) for at in atoms], norm(seller_atoms))
    ck.check_vickrey_exact(rep, 1.0, ref)
    rejects(ck.check_vickrey_exact, dataclasses.replace(rep, payoffs=tuple(p + 1e-9 for p in rep.payoffs)), 1.0, ref)
    rejects(ck.check_vickrey_exact, dataclasses.replace(rep, truthful_optimal=False), 1.0, ref)


def test_vickrey_exact_reference_matches_enumeration():
    rng = np.random.default_rng(4)
    atoms = [[(float(a), 0.25) for a in rng.normal(size=4)] for _ in range(3)]
    seller = [(float(a), 0.25) for a in rng.normal(size=4)]
    bids = [0.5, 0.9, 1.3]
    brute = []
    for b in bids:
        q = -math.log(b)
        total = 0.0
        for combo in itertools.product(*atoms, seller):
            weight = math.prod(w for _, w in combo)
            z = min([a for a, _ in combo[:-1]] + [-combo[-1][0]])
            if q <= z:
                total += weight * (1.0 - math.exp(-z))
        brute.append(total)
    assert np.allclose(ck.vickrey_exact_reference(1.0, bids, atoms, seller), brute, rtol=0, atol=1e-14)


def test_vickrey_mc():
    opp = [(0.1, 1.0), (-0.2, 0.8)]
    seller = (0.3, 1.1)
    bids = [0.8, 1.0, 1.25]
    n = 100_000
    rep = qmg.vickrey_truthfulness_check(
        1.0, bids, [Strategy.gaussian(m, s) for m, s in opp],
        Strategy.gaussian(*seller, rep=Representation.SUPPLY), rng=qmg.RandomSource(9), mc_samples=n,
    )
    means, squares = ck.vickrey_gaussian_reference(1.0, bids, opp, seller)
    ck.check_vickrey_mc(rep, means, squares, n)
    rejects(ck.check_vickrey_mc, dataclasses.replace(rep, payoffs=tuple(p + 0.01 for p in rep.payoffs)), means, squares, n)


@pytest.fixture(scope="module")
def rounds():
    market = qmg.MarketState(tuple(levels_strategy(ck.normalized_levels(c)) for c in ([1, 1j], [1, 0, 1], [0.5, -1], [1, 0.2, 0.3j])))
    gen = qmg.RandomSource(7).rng
    return market, [qmg.clear_round(market, gen) for _ in range(12)]


def test_clearing_round(rounds):
    market, outs = rounds
    for out in outs:
        ck.check_clearing_round(out, len(market))
    trade = next(o for o in outs if any(o.executed))
    k = trade.executed.index(True)
    b, s = trade.pairs[k]
    flipped = dict(trade.flows)
    flipped[b], flipped[s] = -flipped[b], -flipped[s]
    rejects(ck.check_clearing_round, dataclasses.replace(trade, flows=flipped), len(market))
    rejects(ck.check_clearing_round, dataclasses.replace(trade, executed=tuple(not e for e in trade.executed)), len(market))
    missing = qmg.Division(trade.division.buyers[1:], trade.division.sellers) if trade.division.buyers else None
    rejects(ck.check_clearing_round, dataclasses.replace(trade, division=missing), len(market))
    leaky = dict(trade.flows)
    leaky[b] += 1e-6
    rejects(ck.check_clearing_round, dataclasses.replace(trade, flows=leaky), len(market))


def test_rounds_csv(rounds, tmp_path):
    market, outs = rounds
    path = tmp_path / "rounds.csv"
    qmg.round_log_to_csv(outs, path)
    ck.check_rounds_csv(path, len(market), len(outs))
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines[1:], 1) if float(line.split(",")[5]) != 0.0)
    cells = lines[i].split(",")
    cells[5] = repr(-float(cells[5]))
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:i] + [",".join(cells)] + lines[i + 1:]) + "\n")
    rejects(ck.check_rounds_csv, bad, len(market), len(outs))
    bad.write_text("\n".join(lines[:-1]) + "\n")
    rejects(ck.check_rounds_csv, bad, len(market), len(outs))


def test_cooling_rows():
    sigmas = [0.3, 1.0, 4.0]
    rows = qmg.cooling_experiment(sigmas)
    fps = [r.fixed_point for r in rows]
    rhos = [r.max_intensity for r in rows]
    ck.check_cooling_rows(sigmas, fps, rhos)
    rejects(ck.check_cooling_rows, sigmas, [fps[0] * (1 + 1e-6)] + fps[1:], rhos)
    rejects(ck.check_cooling_rows, sigmas, fps, [r * 1.001 for r in rhos])
    assert abs(ck.fixed_point_reference(1.0) - 0.27603) < 5e-6


def test_survival():
    risk = qmg.RiskParams(hbar_e=1.3, theta=5.0, m=0.8)
    ell = math.sqrt(risk.hbar_eff / (risk.m * risk.omega))
    x0, slope, t = 1.2 * ell, 0.4 / ell, 0.3
    alpha_sq = 0.5 * ((x0 / ell) ** 2 + (slope * ell) ** 2)
    rows = qmg.freeze_experiment(qmg.ZenoRun(Strategy.gaussian(x0, ell / math.sqrt(2), slope), t, 1, risk=risk), [1, 3, 10, 40])
    ref = lambda n: ck.coherent_survival(alpha_sq, t, n)
    ck.check_survival(rows, ref, 1e-7)
    rejects(ck.check_survival, [qmg.FreezeRow(r.n, r.survival + 1e-4) for r in rows], ref, 1e-7)
    rejects(ck.check_survival, rows, lambda n: ck.coherent_survival(alpha_sq, t + 0.01, n), 1e-7)
    two = Strategy.superpose([Strategy.hermite(2, risk), Strategy.hermite(3, risk)], [1.0, 0.5j])
    rows = qmg.freeze_experiment(qmg.ZenoRun(two, t, 1, risk=risk), [1, 3, 10, 40])
    ck.check_survival(rows, lambda n: ck.two_level_survival(0.8, 1, t, n), 1e-12)
    rejects(ck.check_survival, rows, lambda n: ck.two_level_survival(0.5, 1, t, n), 1e-12)


def test_thermal():
    risk = qmg.RiskParams(hbar_e=0.9, theta=6.0, m=1.2)
    hb, om = risk.hbar_eff, risk.omega
    beta = 1.1
    closed = qmg.thermal_wigner(beta, risk)
    series = qmg.thermal_wigner(beta, risk, mode="series")
    energy = qmg.thermal_energy(beta, risk)
    ck.check_thermal(closed, series, energy, beta, hb, om, risk.m)
    rejects(ck.check_thermal, closed, series, energy * (1 + 1e-9), beta, hb, om, risk.m)
    short = qmg.thermal_wigner(beta, risk, mode="series", series_terms=3)
    rejects(ck.check_thermal, closed, short, energy, beta, hb, om, risk.m)
    hotter = qmg.thermal_wigner(beta * 0.9, risk)
    rejects(ck.check_thermal, hotter, hotter, energy, beta, hb, om, risk.m)


def test_spectrum_and_risk():
    risk = qmg.RiskParams(hbar_e=1.1, theta=4.0, m=0.9, theta_nc=0.3)
    spec = qmg.spectrum(risk, 12)
    ck.check_spectrum(spec.eigenvalues, risk.hbar_eff, risk.omega)
    rejects(ck.check_spectrum, spec.eigenvalues, risk.hbar_e, risk.omega)
    rejects(ck.check_spectrum, [e * (1 + 1e-9) for e in spec.eigenvalues], risk.hbar_eff, risk.omega)

    risk = qmg.RiskParams(hbar_e=1.1, theta=4.0, m=0.9)
    ell = math.sqrt(risk.hbar_eff / (risk.m * risk.omega))
    spec = ck.normalized_levels([0.5, 0.3j, -0.8, 0.1], ell)
    value = qmg.risk_expectation(levels_strategy(spec, risk), risk)
    ref = ck.levels_risk(spec.coeffs, risk.hbar_eff, risk.omega, risk.m)
    ck.check_close(value, ref, 1e-8, "<H>")
    rejects(ck.check_close, value * (1 + 1e-7), ref, 1e-8, "<H>")
    g = qmg.risk_expectation(Strategy.gaussian(0.3, 0.7, 0.2), risk)
    ck.check_close(g, ck.gaussian_risk(0.7, risk.hbar_eff, risk.omega, risk.m), 1e-8, "<H>")


def test_levels_risk_matches_quadrature():
    spec = ck.normalized_levels([0.5, 0.3j, -0.8, 0.1])
    x = np.linspace(-15, 15, 20001)
    psi = spec.amplitude(x)
    dens = np.abs(psi) ** 2
    mean = integrate.simpson(x * dens, x=x)
    var_q = integrate.simpson((x - mean) ** 2 * dens, x=x)
    dpsi = np.gradient(psi, x)
    mean_p = integrate.simpson((np.conj(psi) * -1j * dpsi).real, x=x)
    var_p = integrate.simpson(np.abs(dpsi) ** 2, x=x) - mean_p**2
    assert ck.levels_risk(spec.coeffs, 1.0, 1.0, 1.0) == pytest.approx(0.5 * var_p + 0.5 * var_q, rel=1e-5)


@pytest.mark.parametrize("spec", [LEVELS, CAT, ck.Packets((1.0,), (0.4,), 0.7, (1.3,))])
def test_duals_match_fourier_integral(spec):
    lo, hi = spec.bounds()
    for p in (-1.1, 0.0, 0.6, 2.2):
        re = integrate.quad(lambda x: (np.exp(-1j * p * x) * spec.amplitude(x)).real, lo, hi, limit=400)[0]
        im = integrate.quad(lambda x: (np.exp(-1j * p * x) * spec.amplitude(x)).imag, lo, hi, limit=400)[0]
        assert abs((re + 1j * im) / math.sqrt(2 * math.pi) - spec.dual(p)) < 1e-9
    x = np.linspace(lo, hi, 20001)
    assert integrate.simpson(np.abs(spec.amplitude(x)) ** 2, x=x) == pytest.approx(1.0, abs=1e-10)


def run_scenario(tmp_path, doc):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert qmg.cli.main(["run", str(scenario), "--out", str(out)]) == 0
    return str(out)


def test_manifest_and_spectrum_csv(tmp_path, capsys):
    out = run_scenario(tmp_path, {"kind": "risk-spectrum", "seed": 4, "parameters": {"levels": 5}})
    ck.check_manifest(out, "risk-spectrum", 4)
    rejects(ck.check_manifest, out, "risk-spectrum", 5)
    header, data = ck.read_csv(os.path.join(out, "spectrum.csv"))
    ck.check_spectrum(data[:, 1], 1.0, 1.0)
    (tmp_path / "out" / "stray.csv").write_text("x\n")
    rejects(ck.check_manifest, out, "risk-spectrum", 4)


def test_density_csv_order(tmp_path, capsys, cat_density):
    path = tmp_path / "density.csv"
    cat_density.to_csv(path)
    p, q, w = ck.read_density_csv(path)
    assert np.array_equal(w, cat_density.values)
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    rejects(ck.read_density_csv, path)


def test_tracer_counts_and_restores():
    original = qmg.wigner.wigner_transform
    tracer = tracing.Tracer()
    with tracer.installed():
        assert qmg.wigner_transform is not original
        tracer.recording = True
        d = qmg.wigner_transform(Strategy.hermite(1))
        tracer.recording = False
    assert qmg.wigner_transform is original and qmg.cli.wigner_transform is original
    m = tracer.metrics(1.0, 0)
    assert set(m) == {name for name, _, _ in tracing.METRICS}
    assert m["wigner.transform_calls"]["value"] == 1
    assert m["wigner.chord_points"]["value"] % (2 * d.q_grid.n) == 0
    assert m["strategy.to_supply_rep_calls"]["value"] == 1
    assert m["wigner.transform_s"]["value"] > 0
