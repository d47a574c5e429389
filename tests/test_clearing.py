import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtr

from qmg import clearing as clearing_module
from qmg.clearing import (
    Division,
    clear_round,
    cooling_experiment,
    fixed_point,
    market_temperature,
    pair_execution_frequency,
    profit_intensity,
    random_division,
    round_log_to_csv,
)
from qmg.errors import ContractViolationError, ParameterRangeError
from qmg.numerics import RandomSource
from qmg.strategy import MarketState, Representation, RiskParams, Strategy, UNIT_RISK, normalize, to_supply_rep

# independently frozen: root of rho(a) = a for the standard normal RW
A_STAR = 0.27602980479814


def force_division(monkeypatch, buyers, sellers):
    """Make every clearing round divide the traders the same way."""
    division = Division(buyers, sellers)
    monkeypatch.setattr(clearing_module, "random_division", lambda m, rng: division)


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


@pytest.mark.parametrize("sigma", [1.0, 0.3])
def test_profit_intensity_keeps_its_digits_in_the_tail(sigma):
    # against sigma [phi(u) - u Phi(-u)]: Phi(-u) holds its digits where 1 - Phi(u)
    # cancels.  Both sides round u, which phi and Phi(-u) weigh by u^2 and their
    # difference, about phi / u^2, by u^2 again: hence the u^4 allowance
    u = np.linspace(-2.0, 20.0, 441)
    expect = sigma * (np.exp(-0.5 * u * u) / math.sqrt(2 * math.pi) - u * ndtr(-u))
    got = profit_intensity(u * sigma, sigma)
    assert np.all(np.abs(got - expect) <= (1e-12 + 1e-15 * u**4) * expect)
    assert [profit_intensity(float(a) * sigma, sigma) for a in u[::40]] == got[::40].tolist()


def test_profit_intensity_is_decreasing_and_positive():
    a = np.linspace(-2.0, 37.0, 2000)
    rho = profit_intensity(a)
    assert np.all(rho > 0)  # phi(37) is still a normal double
    assert np.all(np.diff(rho) < 0)


def test_fixed_point_value_and_speed():
    import time

    t0 = time.time()
    a = fixed_point()
    assert time.time() - t0 < 1.0
    assert a == pytest.approx(A_STAR, abs=1e-10)
    # defining equation holds
    assert profit_intensity(a) == pytest.approx(a, abs=1e-12)


@pytest.mark.parametrize("sigma", [math.inf, math.nan, 0.0, -1.0, 1e308])
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


def test_clear_round_delta_fixture(monkeypatch):
    # buyer bids e^{-q} with q = -0.3, seller withdraws below p = 0.1:
    # q + p = -0.2 <= 0 executes at value e^{q}
    market = MarketState(
        (Strategy.delta(-0.3), Strategy.delta(0.1, rep=Representation.SUPPLY))
    )
    force_division(monkeypatch, (0,), (1,))
    out = clear_round(market, RandomSource(0))
    assert out.executed == (True,)
    value = math.exp(-0.3)
    assert out.flows[0] == pytest.approx(-value, abs=1e-15)
    assert out.flows[1] == pytest.approx(value, abs=1e-15)


def test_clear_round_no_crossing_no_flow(monkeypatch):
    market = MarketState(
        (Strategy.delta(0.5), Strategy.delta(0.2, rep=Representation.SUPPLY))
    )
    force_division(monkeypatch, (0,), (1,))
    out = clear_round(market, RandomSource(0))
    assert out.executed == (False,)
    assert all(f == 0.0 for f in out.flows.values())


def test_a_supply_trader_drawn_as_a_buyer_bids_from_its_demand_dual(monkeypatch):
    # the supply Gaussian at p-centre 0 with phase slope 0.8 has the demand
    # density N(-hbar 0.8, hbar / 2): its bids sit at -0.8, not at +0.8
    market = MarketState(
        (Strategy.gaussian(0.0, 1.0, 0.8, rep=Representation.SUPPLY), Strategy.delta(0.0, rep=Representation.SUPPLY))
    )
    force_division(monkeypatch, (0,), (1,))
    gen = RandomSource(5).rng
    rounds = 4000
    bids = np.array([clear_round(market, gen).log_prices[0] for _ in range(rounds)])
    assert abs(bids.mean() + 0.8) < 4.0 * 0.5 / math.sqrt(rounds)
    assert bids.std() == pytest.approx(0.5, rel=0.05)


def test_clear_round_conservation():
    market = MarketState(
        tuple(Strategy.gaussian(0.0, 1.0) for _ in range(6))
    )
    gen = RandomSource(12).rng
    for _ in range(50):
        out = clear_round(market, gen)
        assert math.fsum(out.flows.values()) == 0.0


_REP = st.sampled_from(Representation)
_TRADER = st.one_of(
    st.builds(
        Strategy.discrete,
        st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
        rep=_REP,
    ),
    st.builds(Strategy.gaussian, st.floats(-2.0, 2.0), st.floats(0.2, 2.0), st.floats(-1.0, 1.0), rep=_REP),
    st.tuples(st.integers(0, 6), st.booleans()).map(
        lambda t: to_supply_rep(Strategy.hermite(t[0])) if t[1] else Strategy.hermite(t[0])
    ),
)


@given(traders=st.lists(_TRADER, min_size=2, max_size=7), seed=st.integers(0, 2**32 - 1))
def test_clearing_flows_sum_to_zero_in_every_round(traders, seed):
    # demand and supply traders, discrete, Gaussian and Hermite: every
    # executed pair moves e^q from its buyer to its seller, nothing else moves
    market = MarketState(tuple(traders))
    gen = RandomSource(seed).rng
    for _ in range(4):
        out = clear_round(market, gen)
        assert math.fsum(out.flows.values()) == 0.0
        moved = {i for pair in out.executed_pairs() for i in pair}
        assert all(f == 0.0 for i, f in out.flows.items() if i not in moved)


def test_clear_round_pairs_best_bid_with_best_ask(monkeypatch):
    market = MarketState(
        (
            Strategy.delta(-1.0),
            Strategy.delta(0.4),
            Strategy.delta(-0.2, rep=Representation.SUPPLY),
            Strategy.delta(0.9, rep=Representation.SUPPLY),
        )
    )
    force_division(monkeypatch, (0, 1), (2, 3))
    out = clear_round(market, RandomSource(0))
    # ascending q paired with ascending p
    assert out.pairs == ((0, 2), (1, 3))
    assert out.executed == (True, False)


def test_clear_rounds_transform_each_trader_once_per_risk(monkeypatch):
    import qmg.strategy as strategy_module

    calls = []
    original = strategy_module.to_supply_rep

    def counting(s, hbar=None):
        calls.append((id(s), hbar))
        return original(s, hbar)

    monkeypatch.setattr(strategy_module, "to_supply_rep", counting)
    market = MarketState(
        tuple(
            normalize(Strategy.superpose([Strategy.hermite(k), Strategy.hermite(k + 1)], [1.0, 0.5j]))
            for k in range(6)
        )
    )
    # three risks, two hbars: each trader is transformed at most once per hbar
    risks = (UNIT_RISK, RiskParams(hbar_e=0.7, theta=3.0), RiskParams(hbar_e=0.7, theta=5.0, m=2.0))
    gen = RandomSource(21).rng
    for i in range(30):
        clear_round(market, gen, hbar=risks[i % 3].hbar_eff)
    assert calls and len(calls) == len(set(calls))
    assert {hbar for _, hbar in calls} == {1.0, 0.7}
    assert len(calls) <= 2 * len(market.traders)


def test_pair_execution_frequency_matches_analytic():
    buyer = Strategy.gaussian(0.0, 1.0)
    seller = Strategy.gaussian(0.0, 1.0, rep=Representation.SUPPLY)
    freq = pair_execution_frequency(buyer, seller, 400_000, RandomSource(8))
    # q + p is normal(0, sqrt(2)); P(q + p <= 0) = 1/2
    se = math.sqrt(0.25 / 400_000)
    assert abs(freq - 0.5) < 4 * se


def test_round_log_csv(tmp_path, monkeypatch):
    market = MarketState(
        (Strategy.delta(-0.3), Strategy.delta(0.1, rep=Representation.SUPPLY))
    )
    force_division(monkeypatch, (0,), (1,))
    outs = [clear_round(market, RandomSource(0)) for _ in range(2)]
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
        # the trade at log-price 1000 would move e^1000 of capital
        (lambda: clear_round(MarketState((Strategy.delta(1000.0), Strategy.delta(-1000.0, Representation.SUPPLY))),
                             np.random.default_rng(0)), ParameterRangeError),
    ],
    ids=["rounds-float", "rounds-bool", "rounds-zero", "beta-nan", "beta-inf", "capital-overflows"],
)
def test_invalid_counts_and_non_finite_betas_are_refused(call, error):
    with pytest.raises(error):
        call()
