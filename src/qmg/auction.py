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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ContractViolationError,
    ImproperStateError,
    NotApplicableError,
    ParameterRangeError,
    RepresentationError,
)
from .numerics import Grid, RandomSource, check_count, integrate
from .strategy import (
    DiscreteForm,
    GaussianForm,
    Representation,
    RiskParams,
    Strategy,
    UNIT_RISK,
    sample as sample_strategy,
)

PRICINGS = ("first", "second", "mixed")
# nodes of each buyer's transaction-density quadrature
_QUADRATURE_N = 4096


@dataclass(frozen=True)
class AuctionInstance:
    """One auction: N buyers against a seller, a pricing rule, a seed."""

    buyers: tuple[Strategy, ...]
    seller: Strategy
    pricing: str = "first"
    weight: float = 1.0
    mc_samples: int = 100_000
    rng: RandomSource = RandomSource(0)
    risk: RiskParams = UNIT_RISK

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


def _survival_product(
    inst: AuctionInstance, k: int, xs: np.ndarray
) -> np.ndarray:
    """Product over opponents of P(q_m > x), times the seller factor P(p <= -x).

    Ties go to the lowest buyer index, so lower-index opponents must beat x
    strictly while higher-index ones only weakly; on atomless strategies the
    distinction vanishes.
    """
    out = np.ones_like(xs, dtype=float)
    for m, b in enumerate(inst.buyers):
        if m == k:
            continue
        out *= 1.0 - b.cdf(xs, inclusive=m < k)
    out *= inst.seller.cdf(-xs)
    return out


def transaction_density(
    inst: AuctionInstance, k: int, q: float | np.ndarray
) -> float | np.ndarray:
    """Probability density that buyer k wins and trades at log-price q.

    f_k(q) = |<q|psi_k>|^2 x Prod_{m != k} P(q_m > q) x P(p <= -q);
    loser wave functions enter through their survival factors, so
    removing an outbid buyer changes the winner's density.
    """
    if not (0 <= k < len(inst.buyers)):
        raise ContractViolationError(
            f"buyer index {k} out of range for {len(inst.buyers)} buyers"
        )
    buyer = inst.buyers[k]
    if buyer.is_improper:
        raise ImproperStateError(
            "buyer k is a point measure; its transaction law is an atom, "
            "use transaction_probabilities for the degenerate shortcut"
        )
    xs = np.asarray(q, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    vals = buyer.table.pdf(xs) * _survival_product(inst, k, xs)
    return float(vals[0]) if scalar else vals


@dataclass(frozen=True)
class TransactionReport:
    """Integrated transaction probabilities per buyer."""

    per_buyer: tuple[float, ...]
    total: float
    p_no_trade: float


def transaction_probabilities(inst: AuctionInstance) -> TransactionReport:
    """Integrate the transaction density per buyer; atoms handled exactly.

    Sums to the total transaction probability; its complement is the
    chance no trade happens at all.
    """
    per: list[float] = []
    for k, buyer in enumerate(inst.buyers):
        form = buyer.form
        if isinstance(form, DiscreteForm):
            surv = _survival_product(inst, k, np.asarray(form.atoms))
            per.append(float(np.dot(form.weights, surv)))
        else:
            lo, hi = buyer.support_bounds()
            g = Grid(lo, hi, _QUADRATURE_N)
            per.append(float(integrate(transaction_density(inst, k, g.points), g)))
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


def _draws(inst: AuctionInstance) -> tuple[list[np.ndarray], np.ndarray]:
    """Each buyer's q as one row, then the seller's p, from one generator."""
    # fresh generator per call: run_auction(inst) is idempotent for a seed
    gen = RandomSource(inst.rng.seed, inst.rng.stream).rng
    m = inst.mc_samples
    rows = [
        sample_strategy(b, gen, m, rep=Representation.DEMAND, risk=inst.risk)
        for b in inst.buyers
    ]
    p = sample_strategy(
        inst.seller, gen, m, rep=Representation.SUPPLY, risk=inst.risk
    )
    return rows, p


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
    mean = math.fsum(values.tolist()) / m
    if m < 2:
        return mean, 0.0
    var = math.fsum(((values - mean) ** 2).tolist()) / (m - 1)
    return mean, math.sqrt(var / m)


def _simulate(inst: AuctionInstance, pricing: str, weight: float) -> AuctionOutcome:
    """Monte Carlo one pricing rule; ``weight`` is the first-price share.

    Winner is the minimal q, ties to the lowest buyer index, and the
    trade executes iff q_min + p <= 0.  A pure rule prices only its own
    branch; mixed pricing prices both on the same draws and blends them.
    One pass over the buyers keeps the running minimum, its owner and,
    when needed, the second-smallest value.
    """
    rows, p = _draws(inst)
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
        # second in decreasing price order among bids and the seller reserve
        second = np.minimum(second, np.maximum(q_min, -p))
        branches.append((1.0 - weight, np.where(executed, np.exp(-second), 0.0)))
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
    means use compensated summation.  Mixed pricing blends the two
    rules with the instance's weight, as :func:`mixed_polarization_auction`.
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

    return hudson_check(s).classification is HudsonClass.GAUSSIAN_POSITIVE


def _atoms_of(s: Strategy) -> list[tuple[float, float]] | None:
    if isinstance(s.form, DiscreteForm):
        return list(zip(s.form.atoms, s.form.weights))
    return None


def vickrey_truthfulness_check(
    valuation: float,
    bid_grid: Sequence[float],
    opponents: Sequence[Strategy],
    seller: Strategy,
    rng: RandomSource | None = None,
    mc_samples: int = 200_000,
    risk: RiskParams = UNIT_RISK,
) -> TruthfulnessReport:
    """Check that truthful bidding maximizes second-price payoff.

    The bidder values the good at ``valuation`` (price units) and bids
    b by playing the demand point q = -ln b.  Payoff is valuation minus
    the second price when winning and trading, zero otherwise.  When
    every opponent and the seller carry finite point measures the table
    is enumerated exactly; otherwise a common-random-numbers Monte
    Carlo estimates it, and diff_se reports the paired standard error
    against the truthful bid.  Giffen opponents (negative phase-space
    density) are refused: the property is only claimed for positive
    measures.
    """
    if not (valuation > 0 and math.isfinite(valuation)):
        raise ParameterRangeError(f"valuation must be positive and finite, got {valuation}")
    check_count(mc_samples, "mc_samples", 1)
    bids = tuple(float(b) for b in bid_grid)
    if len(bids) < 1 or not all(0 < b < math.inf for b in bids):
        raise ParameterRangeError("bid grid must contain positive finite prices")
    if not any(math.isclose(b, valuation, rel_tol=0, abs_tol=1e-12) for b in bids):
        raise ContractViolationError("bid grid must contain the valuation")
    if seller.rep is not Representation.SUPPLY:
        raise RepresentationError("seller must be in the supply representation")
    for s in list(opponents) + [seller]:
        if not _positive_definite(s):
            raise NotApplicableError(
                "giffen strategy present: truthfulness is only claimed for "
                "positive-definite measures"
            )

    opp_atoms = [_atoms_of(s) for s in opponents]
    seller_atoms = _atoms_of(seller)
    exact = seller_atoms is not None and all(a is not None for a in opp_atoms)

    if exact:
        payoffs = _enumerate_payoffs(valuation, bids, opp_atoms, seller_atoms)
        ses = tuple(0.0 for _ in bids)
    else:
        payoffs, ses = _sample_payoffs(
            valuation, bids, opponents, seller, rng or RandomSource(0),
            mc_samples, risk,
        )

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


def _minimum_law(opp_atoms) -> list[tuple[float, float]]:
    """Atoms and weights of the minimum M of independent discrete opponents.

    P(M >= x) = prod_m P(q_m >= x), so the mass at each atom is the drop
    of that product across it: one pass over the atoms per opponent, not
    a walk over every combination.  With no opponent M is +inf.
    """
    if not opp_atoms:
        return [(math.inf, 1.0)]
    values = np.array(sorted({a for atoms in opp_atoms for a, _ in atoms}))
    at_or_above = np.ones(len(values))
    above = np.ones(len(values))
    for atoms in opp_atoms:
        atoms = sorted(atoms)
        a = np.array([x for x, _ in atoms])
        tail = np.append(np.cumsum([w for _, w in reversed(atoms)])[::-1], 0.0)
        at_or_above *= tail[np.searchsorted(a, values, side="left")]
        above *= tail[np.searchsorted(a, values, side="right")]
    return list(zip(values.tolist(), (at_or_above - above).tolist()))


def _enumerate_payoffs(valuation, bids, opp_atoms, seller_atoms):
    """Exact payoffs: bidding q wins iff q <= M (ties go to the bidder),
    trades iff q + p <= 0, and pays e^{-min(M, -p)}, e^{p} unopposed."""
    law = _minimum_law(opp_atoms)
    payoffs = []
    for b in bids:
        q_me = -math.log(b)
        total = 0.0
        for p_at, p_w in seller_atoms:
            if q_me + p_at > 0:
                continue  # seller walks away
            for m_at, m_w in law:
                if m_at >= q_me:
                    total += p_w * m_w * (valuation - math.exp(-min(m_at, -p_at)))
        payoffs.append(total)
    return payoffs


def _sample_payoffs(valuation, bids, opponents, seller, rng, mc_samples, risk):
    gen = RandomSource(rng.seed, rng.stream).rng
    min_opp = None
    for o in opponents:
        q = sample_strategy(o, gen, mc_samples, rep=Representation.DEMAND, risk=risk)
        min_opp = q if min_opp is None else np.minimum(min_opp, q)
    p = sample_strategy(
        seller, gen, mc_samples, rep=Representation.SUPPLY, risk=risk
    )
    rest = -p if min_opp is None else np.minimum(min_opp, -p)
    price = np.exp(-rest)
    # one contiguous row of payoffs per bid
    matrix = np.empty((len(bids), mc_samples))
    for j, b in enumerate(bids):
        q_me = -math.log(b)
        ok = q_me + p <= 0.0
        if min_opp is not None:
            ok &= q_me <= min_opp
        matrix[j] = np.where(ok, valuation - price, 0.0)
    means = [math.fsum(row.tolist()) / mc_samples for row in matrix]
    t_idx = min(range(len(bids)), key=lambda i: abs(bids[i] - valuation))
    ses = []
    for row in matrix:
        diff = matrix[t_idx] - row
        var = float(np.var(diff, ddof=1)) if mc_samples > 1 else 0.0
        ses.append(math.sqrt(var / mc_samples))
    return means, ses
