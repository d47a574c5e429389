import dataclasses
import gc
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import simpson

from qmg import auction as auction_module
from qmg.auction import (
    AuctionInstance,
    _draws,
    _enumerate_payoffs,
    _mean_se,
    mixed_polarization_auction,
    run_auction,
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
from qmg.strategy import Representation, RiskParams, Strategy, sample, to_supply_rep


def transaction_density(inst, k, q):
    """Reference: the probability density that buyer k wins and trades at log-price q.

    f_k(q) = |<q|psi_k>|^2 x Prod_{m != k} P(q_m > q) x P(p <= -q); loser
    wave functions enter through their survival factors.
    """
    buyer = inst.buyers[k]
    if buyer.is_improper:
        raise ImproperStateError("buyer k is a point measure; its transaction law is an atom")
    xs = np.atleast_1d(np.asarray(q, dtype=float))
    # ties go to the lowest index: lower-index opponents beat q strictly
    surv = np.ones_like(xs)
    for m, b in enumerate(inst.buyers):
        if m != k:
            surv *= 1.0 - b.cdf(xs, inclusive=m < k)
    return buyer.table.pdf(xs) * surv * inst.seller.cdf(-xs)


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
    rows, p = _draws(inst.buyers, inst.seller, inst.rng, inst.mc_samples)
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


def _unblocked_outcome(inst, pricing, weight):
    """The unblocked fold and fsum-on-a-list sums _simulate ran before, kept as the reference."""
    rows, p = _draws(inst.buyers, inst.seller, inst.rng, inst.mc_samples)
    second_needed = pricing != "first"
    q_min = rows[0]
    winner = np.zeros(len(p), dtype=np.intp)
    second = np.full(len(p), np.inf) if second_needed else None
    for k, row in enumerate(rows[1:], start=1):
        if second_needed:
            second = np.minimum(second, np.maximum(q_min, row))
        beats = row < q_min
        winner[beats] = k
        q_min = np.where(beats, row, q_min)
    executed = q_min + p <= 0.0
    branches = []
    if pricing != "second":
        branches.append((weight, np.where(executed, np.exp(-q_min), 0.0)))
    if second_needed:
        second = np.minimum(second, np.maximum(q_min, -p))
        branches.append((1.0 - weight, np.where(executed, np.exp(-second), 0.0)))
    prices = sum(w * x for w, x in branches)
    m = len(prices)
    mean = math.fsum(prices.tolist()) / m
    se = math.sqrt(math.fsum(((prices - mean) ** 2).tolist()) / (m - 1) / m)
    counts = np.bincount(winner[executed], minlength=len(inst.buyers))
    histogram = auction_module._histogram([(w, x[executed]) for w, x in branches])
    return tuple(float(c) / m for c in counts), (mean, se), histogram


@pytest.mark.parametrize("pricing", ["first", "second", "mixed"])
def test_blocked_fold_is_the_unblocked_loop_bit_for_bit(pricing):
    # tied discrete buyers among continuous ones, and a last block 7 draws long
    atoms = [-0.5, 0.0, 0.5]
    inst = AuctionInstance(
        buyers=(
            Strategy.discrete(atoms, [1, 2, 1]),
            Strategy.hermite(1),
            Strategy.discrete(atoms, [1, 1, 1]),
            Strategy.gaussian(0.1, 0.4),
            Strategy.discrete(atoms[1:], [3, 1]),
        ),
        seller=Strategy.discrete(atoms, rep=Representation.SUPPLY),
        pricing=pricing,
        weight=0.3 if pricing == "mixed" else 1.0,
        mc_samples=3 * auction_module.BLOCK + 7,
        rng=RandomSource(5),
    )
    out = run_auction(inst)
    weight = {"first": 1.0, "second": 0.0, "mixed": 0.3}[pricing]
    freq, mean_se, (edges, counts) = _unblocked_outcome(inst, pricing, weight)
    assert out.winner_freq == freq
    assert (out.revenue_mean, out.revenue_se) == mean_se
    assert out.price_bin_edges.tobytes() == edges.tobytes()
    assert out.price_counts.tobytes() == counts.tobytes()


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

    def discrete(atoms, rep=Representation.DEMAND):
        return Strategy.discrete([a for a, _ in atoms], [w for _, w in atoms], rep)

    opponents = [discrete(atoms) for atoms in opp_atoms]
    got = _enumerate_payoffs(1.0, bids, opponents, discrete(seller_atoms, Representation.SUPPLY))
    want = brute_force(1.0, bids, opp_atoms, seller_atoms)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-12
    assert any(abs(x) > 1e-3 for x in want)
    # unopposed, the bidder pays the seller's reserve e^p
    alone = _enumerate_payoffs(1.0, [1.0], [], Strategy.delta(-0.25, Representation.SUPPLY))
    assert alone == [pytest.approx(1.0 - math.exp(-0.25), abs=1e-15)]


def _row_by_row_payoffs(valuation, bids, opponents, seller, rng, mc_samples):
    """The Monte Carlo Vickrey loop before it shared the auction's draws and fold, kept as the reference."""
    gen = rng.rng
    min_opp = None
    for o in opponents:
        q = sample(o, gen, mc_samples, rep=Representation.DEMAND)
        min_opp = q if min_opp is None else np.minimum(min_opp, q)
    p = sample(seller, gen, mc_samples, rep=Representation.SUPPLY)
    rest = -p if min_opp is None else np.minimum(min_opp, -p)
    price = np.exp(-rest)
    matrix = np.empty((len(bids), mc_samples))
    for j, b in enumerate(bids):
        q_me = -math.log(b)
        ok = q_me + p <= 0.0
        if min_opp is not None:
            ok &= q_me <= min_opp
        matrix[j] = np.where(ok, valuation - price, 0.0)
    means = [math.fsum(row.tolist()) / mc_samples for row in matrix]
    t_idx = min(range(len(bids)), key=lambda i: abs(bids[i] - valuation))
    ses = [math.sqrt(float(np.var(matrix[t_idx] - row, ddof=1)) / mc_samples) for row in matrix]
    return means, ses


@pytest.mark.parametrize("n_opponents", [0, 1, 4])
def test_monte_carlo_vickrey_is_the_row_by_row_loop_bit_for_bit(n_opponents):
    # unopposed, the bidder pays the seller's reserve e^p
    opponents = [Strategy.gaussian(0.2 * m - 0.3, 0.5 + 0.25 * m) for m in range(n_opponents)]
    seller = Strategy.gaussian(-0.2, 0.7, rep=Representation.SUPPLY)
    bids, rng, n = (0.5, 0.8, 1.0, 1.3, 2.0), RandomSource(62), 3 * auction_module.BLOCK + 7
    report = vickrey_truthfulness_check(1.0, bids, opponents, seller, rng=rng, mc_samples=n)
    assert not report.exact
    means, ses = _row_by_row_payoffs(1.0, bids, opponents, seller, rng, n)
    assert report.payoffs == tuple(means)
    assert report.diff_se == tuple(ses)


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
    gen = inst.rng.rng
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


def test_vickrey_classifies_opponents_whose_levels_carry_two_hbar():
    # with no default hbar the Hudson check reads W at hbar 1, whose sign is that at any hbar
    giffen = Strategy.superpose([Strategy.hermite(0), Strategy.hermite(0, RiskParams(0.7, 2.5))], [1, 1])
    seller = Strategy.gaussian(0.0, 1.0, rep=Representation.SUPPLY)
    with pytest.raises(NotApplicableError):
        vickrey_truthfulness_check(1.0, (0.5, 1.0, 1.5), (giffen,), seller, mc_samples=1000)
    twin = Strategy.superpose(
        [Strategy.hermite(0), Strategy.hermite(0, RiskParams(hbar_e=0.5, theta=2 * math.pi, m=0.5))], [1, 1]
    )
    report = vickrey_truthfulness_check(1.0, (0.5, 1.0, 1.5), (twin,), seller, RandomSource(3), 20_000)
    assert not report.exact and report.truthful_optimal


def test_vickrey_refuses_a_transformed_giffen_seller():
    with pytest.raises(NotApplicableError):
        vickrey_truthfulness_check(
            valuation=1.0,
            bid_grid=(0.5, 1.0),
            opponents=(Strategy.gaussian(0.0, 1.0),),
            seller=to_supply_rep(Strategy.hermite(2)),
            mc_samples=1000,
        )


def test_vickrey_runs_monte_carlo_for_a_transformed_gaussian_seller():
    # a sloped Gaussian's supply dual is a sampled form, not a GaussianForm
    report = vickrey_truthfulness_check(
        valuation=1.0,
        bid_grid=(0.5, 1.0, 1.5),
        opponents=(Strategy.gaussian(0.0, 1.0),),
        seller=to_supply_rep(Strategy.gaussian(0.0, 1.0, 0.5)),
        rng=RandomSource(3),
        mc_samples=20_000,
    )
    assert not report.exact
    assert report.truthful_optimal


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
    return AuctionInstance(**{"buyers": (Strategy.gaussian(0.0, 1.0),), "seller": seller, **kwargs})


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
        (lambda: _vickrey(rng=np.random.default_rng(0)), ContractViolationError),
        (lambda: _vickrey(rng=5), ContractViolationError),
        # a winning price e^-q of e^1000 overflows; e^400 would overflow the revenue's sums
        (lambda: run_auction(_instance(buyers=(Strategy.delta(-1000.0),))), ParameterRangeError),
        (lambda: run_auction(_instance(buyers=(Strategy.gaussian(-400.0, 1.0),), pricing="mixed")),
         ParameterRangeError),
    ],
    ids=[
        "instance-float", "instance-bool", "vickrey-float", "vickrey-zero",
        "valuation-inf", "valuation-nan", "bid-nan", "vickrey-generator", "vickrey-int-seed",
        "price-overflows", "price-sums-overflow",
    ],
)
def test_counts_and_non_finite_prices_are_refused(call, error):
    with pytest.raises(error):
        call()


# buyers the property tests draw from, built once: smooth buyers of several
# spreads (the narrowest gets a finer piece of the grid) and discrete buyers
# whose atoms tie with each other's
_BUYER_POOL = (
    Strategy.gaussian(0.0, 1.0),
    Strategy.gaussian(0.4, 0.3),
    Strategy.gaussian(-0.7, 2.0, 1.5),
    Strategy.gaussian(0.2, 0.05),
    *(Strategy.hermite(n) for n in range(5)),
    Strategy.discrete([0.0, 0.25], [1, 1]),
    Strategy.discrete([0.25, 0.5, -0.5], [2, 1, 1]),
    Strategy.delta(0.0),
    Strategy.delta(0.25),
)
_SELLER_POOL = (
    Strategy.gaussian(0.1, 1.0, rep=Representation.SUPPLY),
    to_supply_rep(Strategy.hermite(1)),
    Strategy.delta(-5.0, rep=Representation.SUPPLY),  # accepts nearly every bid
    Strategy.discrete([0.0, -0.25], [1, 1], rep=Representation.SUPPLY),
)


def _per_buyer_quadrature(inst):
    """The per-buyer quadrature transaction_probabilities ran before one grid was shared:
    each continuous buyer on 4096 trapezoid nodes over its own support."""
    per = []
    for k, buyer in enumerate(inst.buyers):
        if buyer.is_improper:
            xs = np.asarray(buyer.form.atoms)
            surv = np.ones_like(xs)
            for m, b in enumerate(inst.buyers):
                if m != k:
                    surv *= 1.0 - b.cdf(xs, inclusive=m < k)
            surv *= inst.seller.cdf(-xs)
            per.append(float(np.dot(buyer.form.weights, surv)))
        else:
            g = Grid(*buyer.support_bounds(), 4096)
            per.append(float(integrate(transaction_density(inst, k, g.points), g)))
    return per


def _steps(inst):
    steps = {a for b in inst.buyers if b.is_improper for a in b.form.atoms}
    if inst.seller.is_improper:
        steps |= {-a for a in inst.seller.form.atoms}
    return steps


def _stepwise_simpson(inst, k, nodes=2**14 + 1):
    """Buyer k's probability by Simpson's rule on each piece between the steps
    of its survival product, each piece read just inside its ends."""
    lo, hi = inst.buyers[k].support_bounds()
    edges = sorted({lo, hi} | {a for a in _steps(inst) if lo < a < hi})
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        x = np.linspace(np.nextafter(a, b), np.nextafter(b, a), nodes)
        total += simpson(transaction_density(inst, k, x), x=x)
    return total


@given(
    picks=st.lists(st.integers(0, len(_BUYER_POOL) - 1), min_size=1, max_size=16),
    seller=st.integers(0, len(_SELLER_POOL) - 1),
)
def test_transaction_probabilities_against_the_per_buyer_quadrature(picks, seller):
    inst = AuctionInstance(buyers=tuple(_BUYER_POOL[i] for i in picks), seller=_SELLER_POOL[seller])
    report = transaction_probabilities(inst)
    per = np.array(report.per_buyer)
    assert np.all((per >= 0.0) & (per <= 1.0))
    old = _per_buyer_quadrature(inst)
    # atoms step the survival product: a trapezoid cell across a step errs
    # by O(h) (the per-buyer quadrature's totals reach 1 + 6.6e-4), a grid
    # broken at the steps keeps its totals within 4.1e-11 of 1 (measured)
    assert report.total <= 1.0 + (1e-9 if _steps(inst) else 1e-12)
    for k, buyer in enumerate(inst.buyers):
        if buyer.is_improper or not _steps(inst):
            assert abs(per[k] - old[k]) <= 1e-9
    smooth = [k for k, b in enumerate(inst.buyers) if not b.is_improper]
    if smooth and _steps(inst):  # where the old quadrature straddled steps
        k = smooth[0]
        assert abs(per[k] - _stepwise_simpson(inst, k)) <= 1e-9


def test_a_narrow_buyer_gets_a_finer_piece_of_the_grid():
    # at the span's spacing the narrow support would hold 8 nodes (an error
    # of 3e-3), and the wide buyer's own 4096-node grid steps two of the
    # narrow widths across the narrow buyer's CDF (an error of 4e-8)
    inst = AuctionInstance(
        buyers=(Strategy.gaussian(0.0, 0.01), Strategy.gaussian(0.0, 5.0)),
        seller=Strategy.gaussian(0.0, 1.0, rep=Representation.SUPPLY),
    )
    per = transaction_probabilities(inst).per_buyer
    for k, buyer in enumerate(inst.buyers):
        g = Grid(*buyer.support_bounds(), 2**17 + 1)
        fine = float(integrate(transaction_density(inst, k, g.points), g))
        assert abs(per[k] - fine) <= 1e-11


# ---------------------------------------------------------------------------
# one draw set per auction's inputs, shared by every pricing


def _outcome_bytes(out):
    """Every field of an outcome, arrays as their bytes."""
    return tuple(
        v.tobytes() if isinstance(v, np.ndarray) else v
        for v in (getattr(out, f.name) for f in dataclasses.fields(out))
    )


def _fresh(inst):
    """The outcome of ``inst`` with the slot emptied first."""
    auction_module._slot = None
    return _outcome_bytes(run_auction(inst))


@pytest.fixture
def count_draws(monkeypatch):
    """Counts the draw sets the auction makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _draws(*args)

    monkeypatch.setattr(auction_module, "_draws", counted)
    return calls


def _shared_inputs():
    """One buyer set and seller, priced three ways."""
    atoms = [-0.5, 0.0, 0.5]
    buyers = (
        Strategy.discrete(atoms, [1, 2, 1]),
        Strategy.hermite(1),
        Strategy.gaussian(0.1, 0.4),
        Strategy.delta(0.0),
    )
    seller = Strategy.gaussian(-0.2, 0.7, rep=Representation.SUPPLY)
    base = {"buyers": buyers, "seller": seller, "weight": 0.3, "mc_samples": 2 * auction_module.BLOCK + 5,
            "rng": RandomSource(41)}
    return {p: AuctionInstance(**base, pricing=p) for p in ("first", "second", "mixed")}


@pytest.mark.parametrize(
    "order", [("first", "second", "mixed"), ("mixed", "first", "second"), ("second", "first")]
)
def test_every_pricing_in_every_order_is_the_call_on_an_empty_slot(order, count_draws):
    insts = _shared_inputs()
    want = {p: _fresh(insts[p]) for p in order}
    auction_module._slot = None
    count_draws.clear()
    got = {p: _outcome_bytes(run_auction(insts[p])) for p in order}
    assert got == want
    assert len(count_draws) == 1  # one draw set for every pricing


@pytest.mark.parametrize(
    "change",
    [
        {"rng": RandomSource(51)},
        {"mc_samples": 2 * auction_module.BLOCK + 6},
        {"seller": Strategy.gaussian(-0.2, 0.7, rep=Representation.SUPPLY)},
        "reversed",
    ],
    ids=["seed", "samples", "seller", "buyer-order"],
)
def test_a_change_of_any_input_to_the_draws_draws_again(change, count_draws):
    first = _shared_inputs()["first"]
    if change == "reversed":
        change = {"buyers": first.buyers[::-1]}
    changed = dataclasses.replace(first, pricing="second", **change)
    want = _fresh(changed)
    run_auction(first)
    count_draws.clear()
    assert _outcome_bytes(run_auction(changed)) == want
    assert len(count_draws) == 1


def test_equal_but_distinct_strategies_draw_again_to_the_same_bytes(count_draws):
    first = _shared_inputs()["first"]
    twin = dataclasses.replace(
        first,
        buyers=tuple(dataclasses.replace(b) for b in first.buyers),
        seller=dataclasses.replace(first.seller),
    )
    assert twin.buyers == first.buyers and twin.buyers[0] is not first.buyers[0]
    want = _outcome_bytes(run_auction(first))
    count_draws.clear()
    assert _outcome_bytes(run_auction(twin)) == want
    assert len(count_draws) == 1


def test_the_slot_arrays_are_read_only():
    arrays = auction_module._order_statistics(_shared_inputs()["first"])
    assert len(arrays) == 4
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_the_price_refusal_holds_on_a_slot_hit(count_draws):
    seller = Strategy.gaussian(0.0, 1.0, rep=Representation.SUPPLY)
    first = AuctionInstance(buyers=(Strategy.gaussian(-400.0, 1.0),), seller=seller, mc_samples=1000)
    # the lone bidder's second price is the seller's reserve, near e^0
    assert run_auction(dataclasses.replace(first, pricing="second")).p_no_trade == 0.0
    for pricing in ("first", "mixed"):
        with pytest.raises(ParameterRangeError, match="passes 1e150"):
            run_auction(dataclasses.replace(first, pricing=pricing))
    assert len(count_draws) == 1


def test_a_collected_strategy_empties_the_slot():
    def run_and_drop():
        inst = _shared_inputs()["second"]
        run_auction(inst)
        assert auction_module._slot is not None
        del inst

    run_and_drop()
    gc.collect()
    assert auction_module._slot is None


def test_monte_carlo_vickrey_after_an_auction_on_its_inputs_is_the_row_by_row_loop():
    opponents = tuple(Strategy.gaussian(0.2 * m - 0.3, 0.5 + 0.25 * m) for m in range(3))
    seller = Strategy.gaussian(-0.2, 0.7, rep=Representation.SUPPLY)
    bids, rng, n = (0.5, 0.8, 1.0, 1.3, 2.0), RandomSource(62), 3 * auction_module.BLOCK + 7
    run_auction(AuctionInstance(buyers=opponents, seller=seller, mc_samples=n, rng=rng, pricing="second"))
    report = vickrey_truthfulness_check(1.0, bids, opponents, seller, rng=rng, mc_samples=n)
    means, ses = _row_by_row_payoffs(1.0, bids, opponents, seller, rng, n)
    assert report.payoffs == tuple(means)
    assert report.diff_se == tuple(ses)


_UNIT = st.floats(-1.0, 1.0, allow_nan=False)
_BUYER = st.one_of(
    st.builds(Strategy.hermite, st.integers(0, 4)),
    st.builds(Strategy.gaussian, _UNIT, st.floats(0.05, 2.0), _UNIT),
    st.lists(st.tuples(_UNIT, st.floats(0.1, 1.0)), min_size=1, max_size=4, unique_by=lambda aw: aw[0]).map(
        lambda aw: Strategy.discrete([a for a, _ in aw], [w for _, w in aw])
    ),
)
_SELLER = st.one_of(
    st.builds(lambda c, w: Strategy.gaussian(c, w, rep=Representation.SUPPLY), _UNIT, st.floats(0.05, 2.0)),
    st.builds(
        lambda a: Strategy.discrete(a, rep=Representation.SUPPLY), st.lists(_UNIT, min_size=1, max_size=3)
    ),
)


@given(
    buyers=st.lists(_BUYER, min_size=1, max_size=5),
    seller=_SELLER,
    samples=st.integers(1, 2000),
    weight=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
    calls=st.lists(st.sampled_from(("first", "second", "mixed")), min_size=1, max_size=5),
)
def test_auction_outcomes_do_not_depend_on_call_order(buyers, seller, samples, weight, seed, calls):
    base = AuctionInstance(
        buyers=tuple(buyers), seller=seller, weight=weight, mc_samples=samples, rng=RandomSource(seed)
    )
    insts = {p: dataclasses.replace(base, pricing=p) for p in ("first", "second", "mixed")}
    want = {p: _fresh(insts[p]) for p in set(calls)}
    auction_module._slot = None
    for p in calls:
        out = run_auction(insts[p])
        assert _outcome_bytes(out) == want[p]
        freq = np.array([*out.winner_freq, out.p_no_trade])
        assert np.all((freq >= 0.0) & (freq <= 1.0))
        assert abs(sum(out.winner_freq) + out.p_no_trade - 1.0) <= 4 * np.finfo(float).eps
