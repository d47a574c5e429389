"""Acceptance gate: one check per shipped guarantee, one line per verdict.

Each test prints ``[criterion NN] <label>: PASS|FAIL`` on the live
terminal in addition to the usual pytest status, so the suite output
doubles as the release checklist.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import ndtr

from qmg import (
    Grid,
    RandomSource,
    RiskParams,
    Strategy,
    UNIT_RISK,
    ZenoRun,
    AuctionInstance,
    CoherentParams,
    Representation,
    coherent_wigner,
    excited_wigner,
    fixed_point,
    fourier_p_to_q,
    fourier_q_to_p,
    integrate,
    normalize,
    risk_expectation,
    run_auction,
    spectrum,
    survival_probability,
    thermal_wigner,
    to_supply_rep,
    transaction_probabilities,
    vickrey_truthfulness_check,
    wigner_transform,
)
from qmg.cli import main


@pytest.fixture
def verdict(capsys):
    @contextmanager
    def _verdict(num: int, label: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[criterion {num:2d}] {label}: FAIL")
            raise
        with capsys.disabled():
            print(f"[criterion {num:2d}] {label}: PASS")

    return _verdict


def test_criterion_01_profit_intensity_fixed_point(verdict):
    with verdict(1, "profit-intensity fixed point and scaling"):
        t0 = time.perf_counter()
        base = fixed_point(1.0)
        assert time.perf_counter() - t0 < 1.0
        assert base == pytest.approx(0.27603, abs=1e-5)
        for sigma in (0.5, 2.0):
            assert fixed_point(sigma) == pytest.approx(sigma * base, abs=1e-8)


def test_criterion_02_thermal_closed_form_vs_series(verdict):
    with verdict(2, "thermal density closed form vs 200-term series"):
        t0 = time.perf_counter()
        risk = UNIT_RISK  # hbar_eff * omega = 1, so beta is the product itself
        for beta in (0.5, 1.0, 2.0):
            spread = 1.0 / math.tanh(0.5 * beta)
            sq = math.sqrt(0.5 * spread)
            grid_q = Grid(-6 * sq, 6 * sq, 201)
            grid_p = Grid(-6 * sq, 6 * sq, 201)
            closed = thermal_wigner(beta, risk, grid_p, grid_q, mode="closed")
            series = thermal_wigner(
                beta, risk, grid_p, grid_q, mode="series", series_terms=200
            )
            assert float(np.max(np.abs(closed.values - series.values))) < 1e-8
        assert time.perf_counter() - t0 < 10.0


def test_criterion_03_first_excited_negativity(verdict):
    with verdict(3, "first excited level center value -1/pi"):
        grid = Grid(-6.0, 6.0, 241)  # odd count puts a node exactly at 0
        closed = excited_wigner(1, UNIT_RISK, grid, grid)
        center = float(closed.values[120, 120])
        assert center == pytest.approx(-1.0 / math.pi, abs=1e-9)
        numeric = wigner_transform(Strategy.hermite(1), grid, grid)
        assert abs(float(numeric.values[120, 120]) - center) < 1e-4
        assert float(np.max(np.abs(numeric.values - closed.values))) < 1e-4


def test_criterion_04_uncertainty_and_negativity_witnesses(verdict):
    with verdict(4, "correlated coherent uncertainty and Hudson witnesses"):
        for r in (0.0, 0.5, -0.5, 0.9, -0.9):
            d = coherent_wigner(CoherentParams(r=r, eta=0.7))
            m = d.moments()
            product = m.p_std * m.q_std * math.sqrt(1.0 - r * r)
            assert product == pytest.approx(0.5, abs=1e-6)
            assert float(np.min(d.values)) >= -1e-10
        assert float(np.min(wigner_transform(Strategy.hermite(2)).values)) < -1e-4
        cat = normalize(
            Strategy.superpose(
                [
                    Strategy.gaussian(-1.2, math.sqrt(0.5)),
                    Strategy.gaussian(1.2, math.sqrt(0.5)),
                ],
                [1.0, 1.0],
            )
        )
        assert float(np.min(wigner_transform(cat).values)) < -1e-4


def _random_strategies(count: int) -> list[Strategy]:
    gen = RandomSource(4242).rng
    out = []
    levels = [Strategy.hermite(k) for k in range(5)]
    while len(out) < count:
        if len(out) % 2 == 0:
            s = Strategy.gaussian(
                gen.uniform(-1.5, 1.5),
                gen.uniform(0.4, 1.8),
                slope=gen.uniform(-0.6, 0.6),
            )
        else:
            raw = gen.normal(size=5) + 1j * gen.normal(size=5)
            s = normalize(Strategy.superpose(levels, raw))
        out.append(s)
    return out


def test_criterion_05_marginals(verdict):
    with verdict(5, "Wigner marginals reproduce both representations"):
        for s in _random_strategies(10):
            d = wigner_transform(s)
            dens_q = np.abs(s.amplitudes_on(d.q_grid)) ** 2
            assert float(np.max(np.abs(d.marginal_q() - dens_q))) < 1e-5
            sup = to_supply_rep(s)
            dens_p = np.abs(sup.evaluate(d.p_grid.points)) ** 2
            assert float(np.max(np.abs(d.marginal_p() - dens_p))) < 1e-5


def test_criterion_06_auction_oracle_equivalence(verdict):
    with verdict(6, "auction sampling vs quadrature, delta fixtures exact"):
        inst = AuctionInstance(
            buyers=(Strategy.gaussian(0.0, 1.0), Strategy.gaussian(0.0, 1.0)),
            seller=Strategy.gaussian(0.0, 1.0, rep=Representation.SUPPLY),
            pricing="first",
            mc_samples=1_000_000,
            rng=RandomSource(2024),
        )
        quad = transaction_probabilities(inst)
        out = run_auction(inst)
        mc_total = 1.0 - out.p_no_trade
        se = math.sqrt(mc_total * (1.0 - mc_total) / inst.mc_samples)
        assert abs(mc_total - quad.total) <= 3 * se
        deltas = dict(
            buyers=(Strategy.delta(0.1), Strategy.delta(0.3)),
            seller=Strategy.delta(-0.5, rep=Representation.SUPPLY),
            mc_samples=1000,
            rng=RandomSource(1),
        )
        first = run_auction(AuctionInstance(pricing="first", **deltas))
        assert first.revenue_mean == math.exp(-0.1)
        second = run_auction(AuctionInstance(pricing="second", **deltas))
        assert second.revenue_mean == math.exp(-0.3)


def test_criterion_07_vickrey_truthfulness(verdict):
    with verdict(7, "Vickrey truthfulness on the enumerable fixture"):
        report = vickrey_truthfulness_check(
            valuation=0.5,
            bid_grid=(0.3, 0.4, 0.5, 0.6, 0.7),
            opponents=(Strategy.discrete([math.log(1 / 0.4)], [1.0]),),
            seller=Strategy.delta(math.log(0.2), rep=Representation.SUPPLY),
        )
        assert report.exact
        assert 0.5 in report.argmax_bids
        assert report.truthful_optimal


def test_criterion_08_zeno_freezing(verdict):
    with verdict(8, "measurement freezing survival ladder"):
        s = normalize(
            Strategy.superpose(
                [Strategy.hermite(0), Strategy.hermite(1)], [1.0, 1.0]
            )
        )
        assert survival_probability(ZenoRun(s, 0.5, 1)) == pytest.approx(0, abs=1e-12)
        assert survival_probability(ZenoRun(s, 0.5, 2)) == pytest.approx(
            0.25, abs=1e-12
        )
        values = [
            survival_probability(ZenoRun(s, 0.5, n)) for n in (1, 10, 100, 1000)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.99
        for level in (0, 2, 5):
            for n in (1, 7, 64):
                assert survival_probability(ZenoRun(Strategy.hermite(level), 0.5, n)) == 1.0


def test_criterion_09_risk_spectrum(verdict):
    with verdict(9, "risk spectrum ground relation and variational bound"):
        for theta in (0.5, 1.0, 3.7):
            risk = RiskParams(hbar_e=1.3, theta=theta)
            ground = spectrum(risk, 1).eigenvalues[0]
            h_e = 2.0 * math.pi * risk.hbar_e
            assert abs(ground * 2.0 * theta - h_e) < 1e-12
        assert RiskParams(hbar_e=1.0, theta=1.0, theta_nc=0.75).hbar_eff == 1.25
        gen = RandomSource(909).rng
        bound = 0.5 * UNIT_RISK.hbar_eff * UNIT_RISK.omega
        levels = [Strategy.hermite(k) for k in range(4)]
        for i in range(100):
            if i % 2 == 0:
                s = Strategy.gaussian(
                    gen.uniform(-2, 2), gen.uniform(0.3, 2.0), slope=gen.uniform(-1, 1)
                )
            else:
                raw = gen.normal(size=4) + 1j * gen.normal(size=4)
                s = normalize(Strategy.superpose(levels, raw))
            assert risk_expectation(s, UNIT_RISK) >= bound - 1e-6


def test_criterion_10_fourier_round_trip(verdict):
    with verdict(10, "demand-supply round trip on 2048-point grids"):
        grid = Grid(-16.0, 16.0, 2048)
        states = [Strategy.gaussian(0.3, 0.9, slope=0.4)] + [
            Strategy.hermite(n) for n in range(6)
        ]
        for s in states:
            amps = s.amplitudes_on(grid)
            ap, gp = fourier_q_to_p(amps, grid, UNIT_RISK.hbar_eff)
            back, gq = fourier_p_to_q(ap, gp, UNIT_RISK.hbar_eff, grid)
            assert gq == grid
            l2 = math.sqrt(float(integrate(np.abs(back - amps) ** 2, grid)))
            assert l2 < 1e-8


SCENARIOS = {
    "curves": {"family": "strategy", "strategy": "gaussian(0.2, 1.0)"},
    "fixed-point": {"sigmas": [0.5, 1.0]},
    "auction": {
        "buyers": ["gaussian(0, 1)", "gaussian(0.2, 1)"],
        "seller": "gaussian(-0.4, 1)",
        "pricing": "first",
        "samples": 20000,
    },
    "zeno": {
        "initial": ["hermite(0)", "hermite(1)"],
        "total_time": 0.5,
        "n_values": [1, 10, 100],
    },
    "thermal": {"betas": [1.0]},
    "risk-spectrum": {"levels": 4},
    "clearing": {
        "traders": ["gaussian(-0.2, 0.8)", {"strategy": "gaussian(0.3, 0.8)", "rep": "supply"}],
        "rounds": 3,
    },
}


def test_criterion_11_scenario_determinism(verdict, tmp_path):
    with verdict(11, "byte-identical reruns for every scenario kind"):
        for kind, params in SCENARIOS.items():
            doc = {"kind": kind, "seed": 13, "parameters": params}
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps(doc))
            out_a = tmp_path / f"{kind}-a"
            out_b = tmp_path / f"{kind}-b"
            assert main(["run", str(path), "--out", str(out_a)]) == 0
            assert main(["run", str(path), "--out", str(out_b)]) == 0
            names = sorted(p.name for p in out_a.iterdir())
            assert names == sorted(p.name for p in out_b.iterdir())
            for name in names:
                if name.endswith(".csv"):
                    assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (
                        f"{kind}/{name} differs between reruns"
                    )
