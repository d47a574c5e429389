"""Quantum auctions: polarization states, the transaction-probability
density, first/second price rules, and the truthfulness check.

Sign convention (differs from the clearing module on purpose): a buyer
with variable q bids the price c = e^{-q}, so the winner holds the
minimal sampled q; the seller's withdrawal price is e^{-(-p)} = e^{p}
and enters the second-price order as the pseudo-bid -p.  A transaction
needs opposite polarizations and the rationality condition q + p <= 0.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ContractViolationError,
    NotApplicableError,
    ParameterRangeError,
    RepresentationError,
)
from .numerics import BLOCK, RandomSource, check_count, check_positive, exact_sum
from .strategy import (
    DiscreteForm,
    GaussianForm,
    Representation,
    Strategy,
    sample as sample_strategy,
)

PRICINGS = ("first", "second", "mixed")
# nodes of the transaction-density quadrature grid over the buyers' supports
_QUADRATURE_N = 4096
# end weights of Gregory's rule of order 6: the trapezoid rule corrected at
# both ends of a piece, exact for polynomials up to degree 5
_GREGORY = np.array([95 / 288, 317 / 240, 23 / 30, 793 / 720, 157 / 160])


@dataclass(frozen=True)
class AuctionInstance:
    """One auction: N buyers against a seller, a pricing rule, a seed."""

    buyers: tuple[Strategy, ...]
    seller: Strategy
    pricing: str = "first"
    weight: float = 1.0
    mc_samples: int = 100_000
    rng: RandomSource = RandomSource(0)

    def __post_init__(self) -> None:
        if len(self.buyers) < 1:
            raise ContractViolationError("auction needs at least one buyer")
        for b in self.buyers:
            if not isinstance(b, Strategy):
                raise ContractViolationError("buyers must be Strategy instances")
            if b.rep is not Representation.DEMAND:
                raise RepresentationError("buyers must be in the demand representation")
        if not isinstance(self.seller, Strategy):
            raise ContractViolationError("seller must be a Strategy")
        if self.seller.rep is not Representation.SUPPLY:
            raise RepresentationError("seller must be in the supply representation")
        if self.pricing not in PRICINGS:
            raise ParameterRangeError(
                f"pricing must be one of {PRICINGS}, got {self.pricing!r}"
            )
        if not (0.0 <= self.weight <= 1.0):
            raise ParameterRangeError(f"weight must lie in [0,1], got {self.weight}")
        check_count(self.mc_samples, "mc_samples", 1)
        if not isinstance(self.rng, RandomSource):
            raise ContractViolationError("rng must be a RandomSource")


@dataclass(frozen=True)
class TransactionReport:
    """Integrated transaction probabilities per buyer."""

    per_buyer: tuple[float, ...]
    total: float
    p_no_trade: float


def _quadrature_nodes(
    edges: np.ndarray, spacing: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights and sides of Gregory's rule on the pieces between ``edges``.

    Piece i holds uniform nodes at most ``spacing[i]`` apart, 16 at least,
    and its own end corrections, so no weight straddles an edge.  ``side``
    is +1 at a piece's first node, where the integrand takes its limit
    from above, -1 at its last node and 0 inside.
    """
    xs, ws, sides = [], [], []
    for a, b, h in zip(edges[:-1], edges[1:], spacing):
        n = max(16, math.ceil((b - a) / h) + 1)
        w = np.full(n, (b - a) / (n - 1))
        w[:5] *= _GREGORY
        w[-5:] *= _GREGORY[::-1]
        side = np.zeros(n, dtype=np.int8)
        side[0], side[-1] = 1, -1
        xs.append(np.linspace(a, b, n))
        ws.append(w)
        sides.append(side)
    return np.concatenate(xs), np.concatenate(ws), np.concatenate(sides)


def _cdf_from(s: Strategy, x: np.ndarray, below: np.ndarray) -> np.ndarray:
    """P(variable <= x), and its limit from below, P(variable < x), where ``below``."""
    if not s.is_improper:
        return s.cdf(x)
    return np.where(below, s.cdf(x, inclusive=False), s.cdf(x))


def _leave_one_out(strict: Sequence[np.ndarray], weak: Sequence[np.ndarray]) -> np.ndarray:
    """Row k: the product of ``strict[m]`` over m < k times ``weak[m]`` over m > k.

    With P(q_m > x) as ``strict`` and P(q_m >= x) as ``weak``, the chance
    that buyer k at x beats the others, ties going to the lowest index:
    prefix and suffix products, 2N survival reads instead of N(N-1).
    """
    before = np.cumprod([np.ones_like(strict[0]), *strict[:-1]], axis=0)
    after = np.cumprod([np.ones_like(weak[0]), *weak[:0:-1]], axis=0)[::-1]
    return before * after


def _shared_quadrature(inst: AuctionInstance, ks: Sequence[int]) -> list[float]:
    """Transaction probabilities of the continuous buyers ``ks`` on one grid.

    The grid spans the union of their supports, spaced span / (N - 1) with
    ``N = _QUADRATURE_N``, and finer where a buyer narrower than a quarter
    of the span lives, so every buyer's support holds N / 4 nodes or more.
    It breaks at the support ends and wherever the survival product
    steps: at each atom x of a discrete buyer and at -x for each atom x of
    a discrete seller (:func:`_quadrature_nodes`).  Each buyer's CDF is read
    once, a discrete one's also from below, and buyer k's survival product
    comes from :func:`_leave_one_out`.  Off the atoms P(q_m > x) equals
    P(q_m >= x), so the tie rule does not enter the integral.
    """
    buyers, seller = inst.buyers, inst.seller
    bounds = [buyers[k].support_bounds() for k in ks]
    lo = min(a for a, _ in bounds)
    hi = max(b for _, b in bounds)
    steps = [a for b in buyers if b.is_improper for a in b.form.atoms]
    if seller.is_improper:
        steps += [-a for a in seller.form.atoms]
    edges = np.unique([*(x for ab in bounds for x in ab), *(a for a in steps if lo < a < hi)])
    spacing = [
        min([hi - lo] + [4.0 * (b - a) for a, b in bounds if a <= left and right <= b])
        / (_QUADRATURE_N - 1)
        for left, right in zip(edges[:-1], edges[1:])
    ]
    xs, ws, side = _quadrature_nodes(edges, spacing)
    survival = [1.0 - _cdf_from(b, xs, side < 0) for b in buyers]
    wins = _leave_one_out(survival, survival)
    sells = _cdf_from(seller, -xs, side > 0)  # from above in x is from below in -x
    return [float(np.dot(buyers[k].table.pdf(xs) * wins[k] * sells, ws)) for k in ks]


def transaction_probabilities(inst: AuctionInstance) -> TransactionReport:
    """Integrate the transaction density per buyer; atoms handled exactly.

    The continuous buyers share one quadrature grid
    (:func:`_shared_quadrature`); the discrete buyers' atoms share one
    :func:`_leave_one_out`.  Sums to the total transaction probability;
    its complement is the chance no trade happens at all.
    """
    buyers, seller = inst.buyers, inst.seller
    per = [0.0] * len(buyers)
    smooth = [k for k, b in enumerate(buyers) if not b.is_improper]
    if smooth:
        for k, prob in zip(smooth, _shared_quadrature(inst, smooth)):
            per[k] = prob
    atomic = [k for k, b in enumerate(buyers) if b.is_improper]
    if atomic:
        xs = np.concatenate([buyers[k].form.atoms for k in atomic])
        wins = _leave_one_out(
            [1.0 - b.cdf(xs) for b in buyers], [1.0 - b.cdf(xs, inclusive=False) for b in buyers]
        )
        sells = seller.cdf(-xs)
        cuts = np.cumsum([len(buyers[k].form.atoms) for k in atomic])
        for k, a, b in zip(atomic, [0, *cuts], cuts):
            per[k] = float(np.dot(buyers[k].form.weights, wins[k][a:b] * sells[a:b]))
    total = math.fsum(per)
    return TransactionReport(tuple(per), total, 1.0 - total)


# ---------------------------------------------------------------------------
# Monte Carlo auctions


@dataclass(frozen=True, eq=False)
class AuctionOutcome:
    """Sampled distribution summary of one auction run."""

    pricing: str
    weight: float
    n_samples: int
    winner_freq: tuple[float, ...]
    revenue_mean: float
    revenue_se: float
    p_no_trade: float
    price_bin_edges: np.ndarray
    price_counts: np.ndarray


def _draws(
    buyers: Sequence[Strategy], seller: Strategy, rng: RandomSource, m: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Each demand buyer's q as one row of ``m`` draws, then the supply
    seller's p, each in its own representation, from the seed's stream
    read afresh: a run is idempotent for its seed."""
    gen = rng.rng
    rows = [sample_strategy(b, gen, m) for b in buyers]
    return rows, sample_strategy(seller, gen, m)


def _lowest(rows: Sequence[np.ndarray], m: int, second_needed: bool) -> tuple:
    """Per draw, the smallest value over ``rows``, its row (ties to the lowest
    index) and, when needed, the second smallest, in one pass over the rows a
    cache-sized block of draws at a time.  The fold starts from +inf, so zero
    rows (an unopposed bidder) give +inf."""
    q_min = np.full(m, np.inf)
    winner = np.zeros(m, dtype=np.intp)
    second = np.full(m, np.inf) if second_needed else None
    for a in range(0, m, BLOCK):
        q_b, w_b = q_min[a:a + BLOCK], winner[a:a + BLOCK]
        s_b = second[a:a + BLOCK] if second_needed else None
        for k, row in enumerate(rows):
            r_b = row[a:a + BLOCK]
            if second_needed:
                np.minimum(s_b, np.maximum(q_b, r_b), out=s_b)
            # a strict beat keeps a tie with the lower index; k exceeds every
            # earlier owner, so a maximum sets it without a masked store,
            # and on a tie the minimum's value is the same
            np.maximum(w_b, (r_b < q_b) * k, out=w_b)
            np.minimum(q_b, r_b, out=q_b)
    return q_min, winner, second


# the last auction's draw set: weak references to its buyers and seller,
# the rest of its key, and its order statistics; one tuple, so a reader
# never sees the key of one set with the arrays of another
_slot: tuple | None = None


def _forget(ref: weakref.ref) -> None:
    """Empty the slot once one of its strategies is collected."""
    global _slot
    held = _slot
    if held is not None and any(r is ref for r in held[0]):
        _slot = None


def _order_statistics(inst: AuctionInstance) -> tuple[np.ndarray, ...]:
    """``(q_min, winner, second, p)`` of the instance's draws, read-only.

    The draws depend on the strategies, seed and sample count, not
    on the pricing or weight, so every pricing of one auction's inputs
    reads one draw set (common random numbers).  One slot holds the
    last set; strategies are compared by identity, so equal but distinct
    ones draw afresh, and a collected strategy empties the slot.
    """
    global _slot
    parties = (*inst.buyers, inst.seller)
    key = (inst.rng, inst.mc_samples)
    held = _slot
    if (held is not None and held[1] == key and len(held[0]) == len(parties)
            and all(r() is s for r, s in zip(held[0], parties))):
        return held[2]
    _slot = None
    rows, p = _draws(inst.buyers, inst.seller, inst.rng, inst.mc_samples)
    arrays = (*_lowest(rows, len(p), True), p)
    for a in arrays:
        a.flags.writeable = False
    _slot = (tuple(weakref.ref(s, _forget) for s in parties), key, arrays)
    return arrays


def _histogram(
    branches: list[tuple[float, np.ndarray]], bins: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sum of the branch price histograms on edges spanning all of them."""
    pooled = np.concatenate([prices for _, prices in branches])
    if pooled.size == 0:
        return np.linspace(0.0, 1.0, bins + 1), np.zeros(bins)
    lo, hi = float(np.min(pooled)), float(np.max(pooled))
    if lo == hi:
        hi = lo + max(abs(lo), 1.0) * 1e-9
    edges = np.linspace(lo, hi, bins + 1)
    return edges, sum(w * np.histogram(prices, bins=edges)[0] for w, prices in branches)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    m = len(values)
    mean = exact_sum(values) / m
    if m < 2:
        return mean, 0.0
    var = exact_sum((values - mean) ** 2) / (m - 1)
    return mean, math.sqrt(var / m)


def _simulate(inst: AuctionInstance, pricing: str, weight: float) -> AuctionOutcome:
    """Monte Carlo one pricing rule; ``weight`` is the first-price share.

    Winner is the minimal q, ties to the lowest buyer index, and the
    trade executes iff q_min + p <= 0.  A pure rule prices only its own
    branch; mixed pricing prices both on the same draws and blends them.
    """
    q_min, winner, second, p = _order_statistics(inst)
    branches = []
    # q + p past the doubles is inf, no trade; so may be the price of a trade that does not happen
    with np.errstate(over="ignore"):
        executed = q_min + p <= 0.0
        if pricing != "second":
            branches.append((weight, np.where(executed, np.exp(-q_min), 0.0)))
        if pricing != "first":
            # second in decreasing price order among bids and the seller reserve
            second = np.minimum(second, np.maximum(q_min, -p))
            branches.append((1.0 - weight, np.where(executed, np.exp(-second), 0.0)))
    # squared deviations of prices up to 1e150 sum without overflow
    if any(prices.max() > 1e150 for _, prices in branches):
        raise ParameterRangeError("a trade's price e^-q passes 1e150: the revenue overflows its sums")
    mean, se = _mean_se(sum(w * prices for w, prices in branches))
    counts = np.bincount(winner[executed], minlength=len(inst.buyers))
    edges, hist = _histogram([(w, prices[executed]) for w, prices in branches])
    return AuctionOutcome(
        pricing=pricing,
        weight=weight,
        n_samples=inst.mc_samples,
        winner_freq=tuple(float(c) / inst.mc_samples for c in counts),
        revenue_mean=mean,
        revenue_se=se,
        p_no_trade=1.0 - float(np.count_nonzero(executed)) / inst.mc_samples,
        price_bin_edges=edges,
        price_counts=hist,
    )


def run_auction(inst: AuctionInstance) -> AuctionOutcome:
    """Monte Carlo the auction: winners, revenue, and price histogram.

    The clearing price follows the instance's pricing rule; revenue
    means are correctly rounded sums.  Mixed pricing blends the two
    rules with the instance's weight, as :func:`mixed_polarization_auction`.
    Every pricing of the same inputs reads one draw set
    (:func:`_order_statistics`), so successive calls draw once.
    """
    if inst.pricing == "mixed":
        return mixed_polarization_auction(inst, inst.weight)
    return _simulate(inst, inst.pricing, 1.0 if inst.pricing == "first" else 0.0)


def mixed_polarization_auction(
    inst: AuctionInstance, weight: float
) -> AuctionOutcome:
    """Blend of the two polarization branches on common draws.

    With probability ``weight`` the buyers propose (first price), else
    the seller reveals the withdrawal price (second price).  Both
    branches share the same sampled q and p, so the blend is exactly
    convex: weight 1 or 0 reproduces the pure revenues bit for bit.  The
    price histogram blends the branch histograms on common edges.
    """
    if not (0.0 <= weight <= 1.0):
        raise ParameterRangeError(f"weight must lie in [0,1], got {weight}")
    return _simulate(inst, "mixed", weight)


# ---------------------------------------------------------------------------
# Vickrey truthfulness


@dataclass(frozen=True)
class TruthfulnessReport:
    """Expected payoff per grid bid, with the argmax set."""

    bids: tuple[float, ...]
    payoffs: tuple[float, ...]
    diff_se: tuple[float, ...]
    truthful_bid: float
    argmax_bids: tuple[float, ...]
    truthful_optimal: bool
    exact: bool


def _positive_definite(s: Strategy) -> bool:
    if isinstance(s.form, (DiscreteForm, GaussianForm)):
        return True
    from .wigner import HudsonClass, hudson_check

    # the Wigner density's sign is the same read from either side and at
    # any hbar, and the check builds its grids from a demand strategy
    demand = s if s.rep is Representation.DEMAND else s.dual(1.0)
    return hudson_check(demand).classification is HudsonClass.GAUSSIAN_POSITIVE


def vickrey_truthfulness_check(
    valuation: float,
    bid_grid: Sequence[float],
    opponents: Sequence[Strategy],
    seller: Strategy,
    rng: RandomSource = RandomSource(0),
    mc_samples: int = 200_000,
) -> TruthfulnessReport:
    """Check that truthful bidding maximizes second-price payoff.

    The bidder values the good at ``valuation`` (price units) and bids
    b by playing the demand point q = -ln b.  Payoff is valuation minus
    the second price when winning and trading, zero otherwise.  When
    every opponent and the seller carry finite point measures the table
    is enumerated exactly; otherwise a common-random-numbers Monte
    Carlo estimates it, and diff_se reports the paired standard error
    against the truthful bid.  Opponents bid from the demand side and
    the seller asks from the supply side; either out of place is refused,
    as are giffen strategies (negative phase-space density): the property
    is only claimed for positive measures.
    """
    check_positive(valuation, "valuation")
    check_count(mc_samples, "mc_samples", 1)
    if not isinstance(rng, RandomSource):
        raise ContractViolationError("rng must be a RandomSource")
    bids = tuple(float(b) for b in bid_grid)
    if len(bids) < 1 or not all(0 < b < math.inf for b in bids):
        raise ParameterRangeError("bid grid must contain positive finite prices")
    if not any(math.isclose(b, valuation, rel_tol=0, abs_tol=1e-12) for b in bids):
        raise ContractViolationError("bid grid must contain the valuation")
    if any(s.rep is not Representation.DEMAND for s in opponents):
        raise RepresentationError("opponents must be in the demand representation")
    if seller.rep is not Representation.SUPPLY:
        raise RepresentationError("seller must be in the supply representation")
    for s in list(opponents) + [seller]:
        if not _positive_definite(s):
            raise NotApplicableError(
                "giffen strategy present: truthfulness is only claimed for "
                "positive-definite measures"
            )

    exact = all(s.is_improper for s in (*opponents, seller))
    if exact:
        payoffs = _enumerate_payoffs(valuation, bids, opponents, seller)
        ses = tuple(0.0 for _ in bids)
    else:
        payoffs, ses = _sample_payoffs(valuation, bids, opponents, seller, rng, mc_samples)

    best = max(payoffs)
    t_idx = min(
        range(len(bids)), key=lambda i: abs(bids[i] - valuation)
    )
    slack = [3.0 * ses[i] + 1e-12 for i in range(len(bids))]
    argmax = tuple(
        bids[i] for i in range(len(bids)) if payoffs[i] >= best - slack[i]
    )
    truthful_optimal = payoffs[t_idx] >= best - slack[t_idx]
    return TruthfulnessReport(
        bids=bids,
        payoffs=tuple(payoffs),
        diff_se=tuple(ses),
        truthful_bid=bids[t_idx],
        argmax_bids=argmax,
        truthful_optimal=truthful_optimal,
        exact=exact,
    )


def _minimum_law(opponents: Sequence[Strategy]) -> list[tuple[float, float]]:
    """Atoms and weights of the minimum M of independent discrete opponents.

    P(M >= x) = prod_m P(q_m >= x), so the mass at each atom is the drop
    of that product across it: one CDF read per opponent and side, not
    a walk over every combination.  With no opponent M is +inf.
    """
    if not opponents:
        return [(math.inf, 1.0)]
    values = np.unique(np.concatenate([s.form.atoms for s in opponents]))
    at_or_above = np.prod([1.0 - s.cdf(values, inclusive=False) for s in opponents], axis=0)
    above = np.prod([1.0 - s.cdf(values) for s in opponents], axis=0)
    return list(zip(values.tolist(), (at_or_above - above).tolist()))


def _enumerate_payoffs(valuation, bids, opponents, seller):
    """Exact payoffs: bidding q wins iff q <= M (ties go to the bidder),
    trades iff q + p <= 0, and pays e^{-min(M, -p)}, e^{p} unopposed."""
    law = _minimum_law(opponents)
    payoffs = []
    for b in bids:
        q_me = -math.log(b)
        total = 0.0
        for p_at, p_w in zip(seller.form.atoms, seller.form.weights):
            if q_me + p_at > 0:
                continue  # seller walks away
            for m_at, m_w in law:
                if m_at >= q_me:
                    total += p_w * m_w * (valuation - math.exp(-min(m_at, -p_at)))
        payoffs.append(total)
    return payoffs


def _sample_payoffs(valuation, bids, opponents, seller, rng, mc_samples):
    """Monte Carlo payoffs on the auction's draws: the lowest opponent q
    (+inf unopposed) and the seller's p, each bid on the same draws."""
    rows, p = _draws(opponents, seller, rng, mc_samples)
    min_opp, _, _ = _lowest(rows, mc_samples, False)
    price = np.exp(-np.minimum(min_opp, -p))
    # one contiguous row of payoffs per bid
    matrix = np.empty((len(bids), mc_samples))
    for j, b in enumerate(bids):
        q_me = -math.log(b)
        matrix[j] = np.where((q_me + p <= 0.0) & (q_me <= min_opp), valuation - price, 0.0)
    means = [exact_sum(row) / mc_samples for row in matrix]
    t_idx = min(range(len(bids)), key=lambda i: abs(bids[i] - valuation))
    ses = []
    for row in matrix:
        diff = matrix[t_idx] - row
        var = float(np.var(diff, ddof=1)) if mc_samples > 1 else 0.0
        ses.append(math.sqrt(var / mc_samples))
    return means, ses
