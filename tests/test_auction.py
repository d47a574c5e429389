import itertools
import math

import numpy as np
import pytest

from qmg.auction import (
    AuctionInstance,
    _draws,
    _enumerate_payoffs,
    _mean_se,
    mixed_polarization_auction,
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


@pytest.mark.parametrize("pricing", ["first", "second", "mixed"])
def test_single_pass_matches_argmin_and_partition(pricing):
    # discrete buyers on shared atoms tie in most draws; -p ties them too
    atoms = [-0.5, 0.0, 0.5]
    inst = AuctionInstance(
        buyers=(
            Strategy.discrete(atoms, [1, 2, 1]),
            Strategy.discrete(atoms, [1, 1, 1]),
            Strategy.discrete(atoms[1:], [3, 1]),
            Strategy.discrete(atoms, [2, 1, 2]),
        ),
        seller=Strategy.discrete(atoms, rep=Representation.SUPPLY),
        pricing=pricing,
        weight=0.3 if pricing == "mixed" else 1.0,
        mc_samples=5_000,
        rng=RandomSource(8),
    )
    out = run_auction(inst)
    rows, p = _draws(inst)
    q = np.column_stack(rows)
    winner = np.argmin(q, axis=1)
    q_min = q[np.arange(len(p)), winner]
    executed = q_min + p <= 0.0
    second = np.partition(np.concatenate([q, -p[:, None]], axis=1), 1, axis=1)[:, 1]
    counts = np.bincount(winner[executed], minlength=4)
    assert out.winner_freq == tuple(float(c) / inst.mc_samples for c in counts)
    first = np.where(executed, np.exp(-q_min), 0.0)
    second = np.where(executed, np.exp(-second), 0.0)
    prices = {"first": first, "second": second, "mixed": 0.3 * first + (1.0 - 0.3) * second}
    assert (out.revenue_mean, out.revenue_se) == _mean_se(prices[pricing])


def test_exact_vickrey_agrees_with_enumerating_every_combination():
    def brute_force(valuation, bids, opp_atoms, seller_atoms):
        payoffs = []
        for b in bids:
            q_me = -math.log(b)
            total = 0.0
            for combo in itertools.product(*opp_atoms, seller_atoms):
                (p_at, p_w), opp = combo[-1], combo[:-1]
                qs = [a for a, _ in opp]
                if min(qs) < q_me or q_me + p_at > 0:
                    continue
                total += p_w * math.prod(w for _, w in opp) * (valuation - math.exp(-min(qs + [-p_at])))
            payoffs.append(total)
        return payoffs

    rng = np.random.default_rng(4)
    bids = [0.6, 0.8, 1.0, math.exp(0.25), 1.5]
    shared = [-math.log(b) for b in bids[:3]] + [0.25]  # ties with bids and between opponents
    opp_atoms = []
    for _ in range(4):
        a = np.concatenate([rng.choice(shared, 2, replace=False), rng.normal(size=3)])
        w = rng.uniform(0.1, 1.0, size=5)
        opp_atoms.append(list(zip(a.tolist(), (w / w.sum()).tolist())))
    seller_atoms = [(-0.25, 0.3), (-1.0, 0.5), (0.3, 0.2)]
    got = _enumerate_payoffs(1.0, bids, opp_atoms, seller_atoms)
    want = brute_force(1.0, bids, opp_atoms, seller_atoms)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12
    assert any(abs(x) > 1e-3 for x in want)
    # unopposed, the bidder pays the seller's reserve e^p
    alone = _enumerate_payoffs(1.0, [1.0], [], [(-0.25, 1.0)])
    assert alone == [pytest.approx(1.0 - math.exp(-0.25), abs=1e-15)]


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


def _instance(**kwargs):
    seller = Strategy.gaussian(0.0, 1.0, rep=Representation.SUPPLY)
    return AuctionInstance(buyers=(Strategy.gaussian(0.0, 1.0),), seller=seller, **kwargs)


def _vickrey(valuation=1.0, bids=(0.5, 1.0), **kwargs):
    seller = Strategy.gaussian(0.0, 1.0, rep=Representation.SUPPLY)
    return vickrey_truthfulness_check(valuation, bids, [Strategy.gaussian(0.0, 1.0)], seller, **kwargs)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: _instance(mc_samples=2.5), ContractViolationError),
        (lambda: _instance(mc_samples=True), ContractViolationError),
        (lambda: _vickrey(mc_samples=2.5), ContractViolationError),
        (lambda: _vickrey(mc_samples=0), ParameterRangeError),
        (lambda: _vickrey(valuation=math.inf, bids=[1.0, math.inf]), ParameterRangeError),
        (lambda: _vickrey(valuation=math.nan), ParameterRangeError),
        (lambda: _vickrey(bids=[1.0, math.nan]), ParameterRangeError),
    ],
    ids=[
        "instance-float", "instance-bool", "vickrey-float", "vickrey-zero",
        "valuation-inf", "valuation-nan", "bid-nan",
    ],
)
def test_counts_and_non_finite_prices_are_refused(call, error):
    with pytest.raises(error):
        call()
