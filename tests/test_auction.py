import json
import math

import numpy as np
import pytest

from qmg.auction import (
    AuctionInstance,
    auction_from_spec,
    mixed_polarization_auction,
    outcome_to_dict,
    run_auction,
    transaction_density,
    transaction_probabilities,
    vickrey_truthfulness_check,
)
from qmg.errors import (
    ContractViolationError,
    ImproperStateError,
    NotApplicableError,
    ParameterRangeError,
    RepresentationError,
)
from qmg.numerics import Grid, RandomSource, integrate
from qmg.strategy import Representation, Strategy

# frozen by exhaustive enumeration of the 2x2 discrete fixture
DISCRETE_FIRST_PRICE_REVENUE = 0.8638326186973991
# N=2 standard-Gaussian buyers vs standard-Gaussian seller: P(trade) = 2/3
GAUSSIAN_TOTAL_TRADE = 2.0 / 3.0


def delta_fixture(pricing):
    return AuctionInstance(
        buyers=(Strategy.delta(0.1), Strategy.delta(0.3)),
        seller=Strategy.delta(-0.5, rep=Representation.SUPPLY),
        pricing=pricing,
        mc_samples=64,
        rng=RandomSource(0),
    )


def gaussian_instance(samples, seed=0, pricing="first"):
    return AuctionInstance(
        buyers=(Strategy.gaussian(0.0, 1.0), Strategy.gaussian(0.0, 1.0)),
        seller=Strategy.gaussian(0.0, 1.0, rep=Representation.SUPPLY),
        pricing=pricing,
        mc_samples=samples,
        rng=RandomSource(seed),
    )


def test_instance_validation():
    buyer = Strategy.gaussian(0.0, 1.0)
    seller = Strategy.gaussian(0.0, 1.0, rep=Representation.SUPPLY)
    with pytest.raises(RepresentationError):
        AuctionInstance(buyers=(seller,), seller=seller)
    with pytest.raises(RepresentationError):
        AuctionInstance(buyers=(buyer,), seller=buyer)
    with pytest.raises(ParameterRangeError):
        AuctionInstance(buyers=(buyer,), seller=seller, pricing="third")
    with pytest.raises(ParameterRangeError):
        AuctionInstance(buyers=(buyer,), seller=seller, mc_samples=0)


def test_delta_fixture_first_price_exact():
    out = run_auction(delta_fixture("first"))
    # winner bids e^{-0.1}; execution is certain (0.1 - 0.5 <= 0)
    assert out.revenue_mean == math.exp(-0.1)
    assert out.revenue_se == 0.0
    assert out.p_no_trade == 0.0
    assert out.winner_freq == (1.0, 0.0)


def test_delta_fixture_second_price_exact():
    out = run_auction(delta_fixture("second"))
    # runner-up quote is q = 0.3 (reserve -p = 0.5 is weaker)
    assert out.revenue_mean == math.exp(-0.3)
    assert out.revenue_se == 0.0


def test_seller_reserve_sets_second_price():
    inst = AuctionInstance(
        buyers=(Strategy.delta(0.1), Strategy.delta(0.3)),
        seller=Strategy.delta(-0.2, rep=Representation.SUPPLY),
        pricing="second",
        mc_samples=16,
        rng=RandomSource(0),
    )
    out = run_auction(inst)
    # reserve pseudo-bid -p = 0.2 beats the losing buyer's 0.3
    assert out.revenue_mean == math.exp(-0.2)


def test_ties_go_to_the_lowest_index():
    inst = AuctionInstance(
        buyers=(Strategy.delta(0.1), Strategy.delta(0.1)),
        seller=Strategy.delta(-0.5, rep=Representation.SUPPLY),
        mc_samples=32,
        rng=RandomSource(0),
    )
    out = run_auction(inst)
    assert out.winner_freq == (1.0, 0.0)


def test_gaussian_total_probability_quadrature():
    inst = gaussian_instance(1000)
    report = transaction_probabilities(inst)
    assert report.total == pytest.approx(GAUSSIAN_TOTAL_TRADE, abs=1e-6)
    assert report.p_no_trade == pytest.approx(1.0 - GAUSSIAN_TOTAL_TRADE, abs=1e-6)
    # symmetric buyers trade equally often
    assert report.per_buyer[0] == pytest.approx(report.per_buyer[1], abs=1e-9)


def test_transaction_density_integrates_to_per_buyer_probability():
    inst = gaussian_instance(1000)
    report = transaction_probabilities(inst)
    g = Grid(-8.0, 8.0, 4001)
    dens = transaction_density(inst, 0, g.points)
    assert float(integrate(dens, g)) == pytest.approx(report.per_buyer[0], abs=1e-6)


def test_transaction_density_rejects_improper_buyer():
    inst = AuctionInstance(
        buyers=(Strategy.delta(0.1), Strategy.gaussian(0.0, 1.0)),
        seller=Strategy.gaussian(0.0, 1.0, rep=Representation.SUPPLY),
        mc_samples=16,
        rng=RandomSource(0),
    )
    with pytest.raises(ImproperStateError):
        transaction_density(inst, 0, np.array([0.0]))


def test_monte_carlo_agrees_with_quadrature():
    inst = gaussian_instance(200_000, seed=11)
    out = run_auction(inst)
    p_trade = 1.0 - out.p_no_trade
    se = math.sqrt(GAUSSIAN_TOTAL_TRADE * (1 - GAUSSIAN_TOTAL_TRADE) / inst.mc_samples)
    assert abs(p_trade - GAUSSIAN_TOTAL_TRADE) < 3 * se


def test_run_auction_is_idempotent():
    inst = gaussian_instance(20_000, seed=7)
    a = run_auction(inst)
    b = run_auction(inst)
    assert a.revenue_mean == b.revenue_mean
    assert np.array_equal(a.price_counts, b.price_counts)


def test_discrete_fixture_against_enumeration():
    # two i.i.d. uniform buyers on {0.1, 0.3}: qmin = 0.3 only when both
    # draw 0.3, so revenue = 0.75 e^{-0.1} + 0.25 e^{-0.3} by enumeration
    inst = AuctionInstance(
        buyers=(
            Strategy.discrete([0.1, 0.3], [0.5, 0.5]),
            Strategy.discrete([0.1, 0.3], [0.5, 0.5]),
        ),
        seller=Strategy.delta(-1.0, rep=Representation.SUPPLY),
        pricing="first",
        mc_samples=400_000,
        rng=RandomSource(21),
    )
    out = run_auction(inst)
    se = max(out.revenue_se, 1e-12)
    assert abs(out.revenue_mean - DISCRETE_FIRST_PRICE_REVENUE) < 4 * se
    # quadrature path hits it without sampling noise
    report = transaction_probabilities(inst)
    assert report.total == pytest.approx(1.0, abs=1e-12)


def test_mixed_polarization_is_convex_blend():
    base = gaussian_instance(50_000, seed=13)
    first = run_auction(base)
    second = run_auction(
        AuctionInstance(
            buyers=base.buyers,
            seller=base.seller,
            pricing="second",
            mc_samples=base.mc_samples,
            rng=base.rng,
        )
    )
    mixed = mixed_polarization_auction(base, weight=0.5)
    expect = 0.5 * first.revenue_mean + 0.5 * second.revenue_mean
    assert mixed.revenue_mean == pytest.approx(expect, abs=1e-12)
    # degenerate weights reproduce the pure auctions bit for bit
    assert mixed_polarization_auction(base, 1.0).revenue_mean == first.revenue_mean
    assert mixed_polarization_auction(base, 0.0).revenue_mean == second.revenue_mean


def test_histogram_edges_match_sample_quantiles():
    inst = gaussian_instance(30_000, seed=5)
    out = run_auction(inst)
    edges = np.array(out.price_bin_edges)
    counts = np.array(out.price_counts)
    total = counts.sum()
    assert total > 0
    # reconstruct executed prices by replaying the same seeded draws
    from qmg.strategy import sample

    gen = RandomSource(inst.rng.seed, inst.rng.stream).rng
    qs = np.column_stack([sample(b, gen, inst.mc_samples) for b in inst.buyers])
    ps = sample(inst.seller, gen, inst.mc_samples, rep=Representation.SUPPLY)
    qmin = qs.min(axis=1)
    executed = qmin + ps <= 0.0
    prices = np.exp(-qmin[executed])
    assert total == prices.size
    # histogram cumulative counts at the edges equal the empirical CDF
    cum = np.concatenate([[0.0], np.cumsum(counts)])
    for k in (10, 25, 40):
        edge = edges[k]
        assert cum[k] == pytest.approx(np.sum(prices < edge), abs=counts[k])
    # and the quantiles the edges imply are consistent with raw samples
    for frac in (0.25, 0.5, 0.75):
        idx = int(np.searchsorted(cum / total, frac))
        lo, hi = edges[max(idx - 1, 0)], edges[min(idx, len(edges) - 1)]
        q = float(np.quantile(prices, frac))
        width = edges[1] - edges[0]
        assert lo - width <= q <= hi + width


def test_vickrey_truthful_on_discrete_fixture():
    report = vickrey_truthfulness_check(
        valuation=0.5,
        bid_grid=(0.3, 0.4, 0.5, 0.6, 0.7),
        opponents=(Strategy.discrete([math.log(1 / 0.4)], [1.0]),),
        seller=Strategy.delta(math.log(0.2), rep=Representation.SUPPLY),
    )
    assert report.exact
    assert report.truthful_bid == 0.5
    assert 0.5 in report.argmax_bids
    assert report.truthful_optimal


def test_vickrey_not_applicable_for_giffen_opponents():
    with pytest.raises(NotApplicableError):
        vickrey_truthfulness_check(
            valuation=0.5,
            bid_grid=(0.4, 0.5, 0.6),
            opponents=(Strategy.hermite(2),),
            seller=Strategy.gaussian(0.0, 1.0, rep=Representation.SUPPLY),
        )


def test_vickrey_grid_must_contain_valuation():
    with pytest.raises(ContractViolationError):
        vickrey_truthfulness_check(
            valuation=0.5,
            bid_grid=(0.4, 0.6),
            opponents=(Strategy.delta(0.9),),
            seller=Strategy.delta(-1.0, rep=Representation.SUPPLY),
        )


def test_auction_spec_round_trip(tmp_path):
    doc = {
        "buyers": ["delta(0.1)", "delta(0.3)"],
        "seller": "delta(-0.5)",
        "pricing": "first",
        "samples": 128,
        "seed": 4,
    }
    inst = auction_from_spec(doc)
    out = run_auction(inst)
    payload = outcome_to_dict(out)
    text = json.dumps(payload)  # must be plain JSON types
    assert json.loads(text)["revenue_mean"] == math.exp(-0.1)


def test_auction_spec_validation_paths():
    with pytest.raises(ContractViolationError, match="auction.buyers"):
        auction_from_spec({"buyers": [], "seller": "delta(0)", "pricing": "first"})
    with pytest.raises(ContractViolationError, match="auction.pricing"):
        auction_from_spec(
            {"buyers": ["delta(0)"], "seller": "delta(0)", "pricing": "dutch"}
        )
