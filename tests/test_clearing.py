import math

import numpy as np
import pytest
from scipy.special import ndtr

from qmg.clearing import (
    Division,
    clear_round,
    cooling_experiment,
    fixed_division,
    fixed_point,
    market_temperature,
    pair_execution_frequency,
    profit_intensity,
    random_division,
    round_log_to_csv,
)
from qmg.errors import ContractViolationError, ParameterRangeError
from qmg.numerics import RandomSource
from qmg.strategy import MarketState, Representation, RiskParams, Strategy, UNIT_RISK, normalize

# independently frozen: root of rho(a) = a for the standard normal RW
A_STAR = 0.27602980479814


def test_profit_intensity_values():
    # rho(0) = E[max(X, 0)] = 1/sqrt(2 pi) for the standard normal
    assert profit_intensity(0.0) == pytest.approx(0.3989422804014327, abs=1e-12)
    # rho(a) = sigma [phi(u) - u (1 - Phi(u))], u = a / sigma
    a, sigma = 0.7, 1.3
    u = a / sigma
    phi = math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
    expect = sigma * (phi - u * (1.0 - float(ndtr(u))))
    assert profit_intensity(a, sigma) == pytest.approx(expect, abs=1e-12)
    for bad in ((math.nan, 1.0), (math.inf, 1.0), (np.array([0.0, math.nan]), 1.0), (0.5, math.inf)):
        with pytest.raises(ParameterRangeError):
            profit_intensity(*bad)


def test_profit_intensity_is_decreasing_and_positive():
    a = np.linspace(-2.0, 4.0, 200)
    rho = profit_intensity(a)
    assert np.all(rho > 0)
    assert np.all(np.diff(rho) < 0)


def test_fixed_point_value_and_speed():
    import time

    t0 = time.time()
    a = fixed_point()
    assert time.time() - t0 < 1.0
    assert a == pytest.approx(A_STAR, abs=1e-10)
    # defining equation holds
    assert profit_intensity(a) == pytest.approx(a, abs=1e-12)


@pytest.mark.parametrize("sigma", [math.inf, math.nan, 0.0, -1.0])
def test_fixed_point_refuses_invalid_spread(sigma):
    with pytest.raises(ParameterRangeError):
        fixed_point(sigma)


def test_fixed_point_homogeneity():
    base = fixed_point(1.0)
    for sigma in (0.5, 2.0, 7.3):
        assert fixed_point(sigma) == pytest.approx(sigma * base, abs=1e-8)


def test_cooling_experiment_rows():
    rows = cooling_experiment([0.5, 1.0, 2.0])
    assert [r.sigma for r in rows] == [0.5, 1.0, 2.0]
    for r in rows:
        assert r.fixed_point == pytest.approx(r.sigma * A_STAR, abs=1e-8)
        # the maximal self-consistent intensity is the fixed point itself
        assert r.max_intensity == pytest.approx(r.fixed_point, abs=1e-10)
    with pytest.raises(ContractViolationError):
        cooling_experiment([])
    with pytest.raises(ParameterRangeError):
        cooling_experiment([1.0, -2.0])


def test_market_temperature():
    t, energy = market_temperature(2.0, UNIT_RISK)
    assert t == 0.5
    assert energy == pytest.approx(0.6565176427496657, abs=1e-12)


def test_division_validation():
    with pytest.raises(ContractViolationError):
        Division((0, 0), (1,))
    with pytest.raises(ContractViolationError):
        Division((0,), (0,))
    with pytest.raises(ContractViolationError):
        Division((-1,), (0,))


def test_random_division_pins_improper_traders():
    market = MarketState(
        (
            Strategy.delta(0.0),  # demand rep: must stay a buyer
            Strategy.delta(0.5, rep=Representation.SUPPLY),  # must stay a seller
            Strategy.gaussian(0.0, 1.0),
        )
    )
    rng = RandomSource(3).rng
    for _ in range(20):
        div = random_division(market, rng)
        assert 0 in div.buyers
        assert 1 in div.sellers


def test_clear_round_delta_fixture():
    # buyer bids e^{-q} with q = -0.3, seller withdraws below p = 0.1:
    # q + p = -0.2 <= 0 executes at value e^{q}
    market = MarketState(
        (Strategy.delta(-0.3), Strategy.delta(0.1, rep=Representation.SUPPLY))
    )
    out = clear_round(
        market, RandomSource(0), algorithm=fixed_division((0,), (1,))
    )
    assert out.executed == (True,)
    value = math.exp(-0.3)
    assert out.flows[0] == pytest.approx(-value, abs=1e-15)
    assert out.flows[1] == pytest.approx(value, abs=1e-15)


def test_clear_round_no_crossing_no_flow():
    market = MarketState(
        (Strategy.delta(0.5), Strategy.delta(0.2, rep=Representation.SUPPLY))
    )
    out = clear_round(market, RandomSource(0), algorithm=fixed_division((0,), (1,)))
    assert out.executed == (False,)
    assert all(f == 0.0 for f in out.flows.values())


def test_clear_round_conservation():
    market = MarketState(
        tuple(Strategy.gaussian(0.0, 1.0) for _ in range(6))
    )
    gen = RandomSource(12).rng
    for _ in range(50):
        out = clear_round(market, gen)
        assert math.fsum(out.flows.values()) == 0.0


def test_clear_round_pairs_best_bid_with_best_ask():
    market = MarketState(
        (
            Strategy.delta(-1.0),
            Strategy.delta(0.4),
            Strategy.delta(-0.2, rep=Representation.SUPPLY),
            Strategy.delta(0.9, rep=Representation.SUPPLY),
        )
    )
    out = clear_round(
        market, RandomSource(0), algorithm=fixed_division((0, 1), (2, 3))
    )
    # ascending q paired with ascending p
    assert out.pairs == ((0, 2), (1, 3))
    assert out.executed == (True, False)


def test_clear_rounds_transform_each_trader_once_per_risk(monkeypatch):
    import qmg.strategy as strategy_module

    calls = []
    original = strategy_module.to_supply_rep

    def counting(s, risk=UNIT_RISK):
        calls.append((id(s), risk))
        return original(s, risk)

    monkeypatch.setattr(strategy_module, "to_supply_rep", counting)
    market = MarketState(
        tuple(
            normalize(Strategy.superpose([Strategy.hermite(k), Strategy.hermite(k + 1)], [1.0, 0.5j]))
            for k in range(6)
        )
    )
    other = RiskParams(hbar_e=0.7, theta=3.0)
    gen = RandomSource(21).rng
    for i in range(20):
        clear_round(market, gen, risk=UNIT_RISK if i % 2 else other)
    assert calls and len(calls) == len(set(calls))
    assert len(calls) <= 2 * len(market.traders)


def test_pair_execution_frequency_matches_analytic():
    buyer = Strategy.gaussian(0.0, 1.0)
    seller = Strategy.gaussian(0.0, 1.0, rep=Representation.SUPPLY)
    freq = pair_execution_frequency(buyer, seller, 400_000, RandomSource(8))
    # q + p is normal(0, sqrt(2)); P(q + p <= 0) = 1/2
    se = math.sqrt(0.25 / 400_000)
    assert abs(freq - 0.5) < 4 * se


def test_round_log_csv(tmp_path):
    market = MarketState(
        (Strategy.delta(-0.3), Strategy.delta(0.1, rep=Representation.SUPPLY))
    )
    outs = [
        clear_round(market, RandomSource(0), algorithm=fixed_division((0,), (1,)))
        for _ in range(2)
    ]
    path = tmp_path / "rounds.csv"
    round_log_to_csv(outs, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "round,trader,side,logprice,executed,flow"
    assert len(lines) == 1 + 2 * 2
    assert lines[1].startswith("0,0,buyer,-0.3,1,")


BUYER = Strategy.gaussian(0.0, 1.0)
SELLER = Strategy.gaussian(0.0, 1.0, rep=Representation.SUPPLY)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: pair_execution_frequency(BUYER, SELLER, 2.5, RandomSource(0)), ContractViolationError),
        (lambda: pair_execution_frequency(BUYER, SELLER, True, RandomSource(0)), ContractViolationError),
        (lambda: pair_execution_frequency(BUYER, SELLER, 0, RandomSource(0)), ParameterRangeError),
        (lambda: market_temperature(math.nan, UNIT_RISK), ParameterRangeError),
        (lambda: market_temperature(math.inf, UNIT_RISK), ParameterRangeError),
    ],
    ids=["rounds-float", "rounds-bool", "rounds-zero", "beta-nan", "beta-inf"],
)
def test_invalid_counts_and_non_finite_betas_are_refused(call, error):
    with pytest.raises(error):
        call()
