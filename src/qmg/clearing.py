"""Market clearing: random divisions, projective transactions, profit
intensity, and the temperature view of equilibrium.

A clearing round divides traders into buyers and sellers, samples one
log-price per trader from the matching representation, pairs the sides
greedily (highest bid against lowest ask) and executes every pair that
satisfies the rationality condition q + p <= 0.  Profit intensity
rho(a) measures the expected surplus of a threshold-a strategy against
a Gaussian rest-of-world; its unique fixed point rho(a) = a sits at
a = 0.27603 sigma and scales linearly with the RW spread.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ContractViolationError, ParameterRangeError
from .numerics import RandomSource, as_generator, check_count, check_positive, find_root
from .strategy import MarketState, Representation, RiskParams, Strategy, sample as sample_strategy
from .risk import thermal_energy

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_erfc = np.vectorize(math.erfc, otypes=[float])


@dataclass(frozen=True)
class Division:
    """Index split of the traders into buyers and sellers."""

    buyers: tuple[int, ...]
    sellers: tuple[int, ...]

    def __post_init__(self) -> None:
        b, s = set(self.buyers), set(self.sellers)
        if len(b) != len(self.buyers) or len(s) != len(self.sellers):
            raise ContractViolationError("division has repeated indices")
        if b & s:
            raise ContractViolationError(f"indices on both sides: {sorted(b & s)}")
        if any(i < 0 for i in b | s):
            raise ContractViolationError("division indices must be non-negative")


@dataclass(frozen=True)
class ClearingOutcome:
    """One round's division, prices, executions and capital flows."""

    division: Division
    log_prices: dict[int, float]
    flows: dict[int, float]
    pairs: tuple[tuple[int, int], ...]
    executed: tuple[bool, ...]

    def executed_pairs(self) -> list[tuple[int, int]]:
        return [pair for pair, ok in zip(self.pairs, self.executed) if ok]


def random_division(m: MarketState, rng: np.random.Generator) -> Division:
    """Fair-coin division; improper traders stay on their declared side.

    A delta or discrete strategy can only be sampled in its own
    representation (the Fourier dual is a plane wave), so those traders
    are pinned: demand-representation ones buy, supply ones sell.
    """
    buyers: list[int] = []
    sellers: list[int] = []
    for i, t in enumerate(m.traders):
        if t.is_improper:
            (buyers if t.rep is Representation.DEMAND else sellers).append(i)
        elif rng.random() < 0.5:
            buyers.append(i)
        else:
            sellers.append(i)
    return Division(tuple(buyers), tuple(sellers))


def clear_round(
    m: MarketState,
    rng: RandomSource | np.random.Generator,
    hbar: float | None = None,
) -> ClearingOutcome:
    """Run one clearing round.

    Buyers quote q drawn from their demand density, sellers quote p
    from their supply density; a trader living on the other side is
    transformed at ``hbar``, by default its own.  Greedy crossing pairs
    the strongest bid (lowest q, i.e. highest priority price e^{-q}) with
    the cheapest ask (lowest p); a pair executes iff q + p <= 0 and moves
    capital e^{q} from buyer to seller.  With all traders on one side the
    round simply executes nothing.
    """
    if len(m.traders) < 2:
        raise ContractViolationError("clearing needs at least two traders")
    gen = as_generator(rng)
    division = random_division(m, gen)

    log_prices: dict[int, float] = {}
    for i in division.buyers:
        log_prices[i] = float(sample_strategy(m.traders[i], gen, 1, Representation.DEMAND, hbar)[0])
    for i in division.sellers:
        log_prices[i] = float(sample_strategy(m.traders[i], gen, 1, Representation.SUPPLY, hbar)[0])

    buyers_sorted = sorted(division.buyers, key=lambda i: log_prices[i])
    sellers_sorted = sorted(division.sellers, key=lambda i: log_prices[i])
    pairs: list[tuple[int, int]] = []
    executed: list[bool] = []
    flows: dict[int, float] = {i: 0.0 for i in range(len(m.traders))}
    for b, s in zip(buyers_sorted, sellers_sorted):
        q, p = log_prices[b], log_prices[s]
        ok = q + p <= 0.0
        pairs.append((b, s))
        executed.append(ok)
        if ok:
            if q > math.log(sys.float_info.max):
                raise ParameterRangeError(f"a trade at log-price {q} moves more capital than a double holds")
            value = math.exp(q)
            flows[b] -= value
            flows[s] += value
    return ClearingOutcome(
        division, log_prices, flows, tuple(pairs), tuple(executed)
    )


def pair_execution_frequency(
    buyer: Strategy,
    seller: Strategy,
    rounds: int,
    rng: RandomSource | np.random.Generator,
    hbar: float | None = None,
) -> float:
    """Vectorized Monte Carlo of P(q + p <= 0) for one buyer-seller pair.

    Semantically identical to running ``clear_round`` with a fixed
    two-trader division ``rounds`` times, but draws all samples in one
    shot so million-round estimates stay cheap.
    """
    check_count(rounds, "rounds", 1)
    gen = as_generator(rng)
    q = sample_strategy(buyer, gen, rounds, Representation.DEMAND, hbar)
    p = sample_strategy(seller, gen, rounds, Representation.SUPPLY, hbar)
    return float(np.mean(q + p <= 0.0))


# ---------------------------------------------------------------------------
# profit intensity


def profit_intensity(a: float | np.ndarray, rw_sigma: float = 1.0):
    """Expected surplus rho(a) of threshold a against a Gaussian RW.

    rho(a) = E[(X - a)+] for X ~ N(0, sigma^2), i.e.
    sigma * [phi(a/sigma) - (a/sigma) (1 - Phi(a/sigma))].  Nonnegative,
    strictly decreasing, and homogeneous: rho(s*a; s*sigma) = s*rho(a; sigma).
    The supply-side game is the mirror image, so the same function (and
    fixed point) applies to threshold strategies in p.
    """
    check_positive(rw_sigma, "rw_sigma")
    u = np.asarray(a, dtype=float) / rw_sigma
    if not np.all(np.isfinite(u)):
        raise ParameterRangeError("threshold a must be finite")
    phi = np.exp(-0.5 * u * u) / _SQRT_TWO_PI
    # 1 - Phi(u) as erfc(u / sqrt 2) / 2, which keeps its digits in the upper tail
    z = u / math.sqrt(2.0)
    upper = 0.5 * (math.erfc(z) if z.ndim == 0 else _erfc(z))
    value = rw_sigma * (phi - u * upper)
    if np.ndim(a) == 0:
        return float(value)
    return value


def fixed_point(rw_sigma: float = 1.0) -> float:
    """Solve rho(a) = a on (0, 5 sigma) by bisection, rho the :func:`profit_intensity`."""
    check_positive(rw_sigma, "rw_sigma")
    if not math.isfinite(5.0 * rw_sigma):
        raise ParameterRangeError(f"rw_sigma {rw_sigma!r} is too large: 5 sigma overflows")
    return find_root(
        lambda a: profit_intensity(a, rw_sigma) - a,
        (1e-12 * rw_sigma, 5.0 * rw_sigma),
        tol=1e-13 * max(rw_sigma, 1.0),
    )


@dataclass(frozen=True)
class CoolingRow:
    sigma: float
    fixed_point: float
    max_intensity: float


def cooling_experiment(sigmas: Sequence[float]) -> list[CoolingRow]:
    """Fixed point and maximal self-consistent intensity per RW spread.

    The maximal intensity a trader can sustain on average equals the
    fixed-point value itself (rho(a*) = a*), so cooling the RW (smaller
    sigma) is the only way to lower it.
    """
    if len(sigmas) == 0:
        raise ContractViolationError("need at least one sigma")
    rows = []
    for s in sigmas:
        if s <= 0:
            raise ParameterRangeError(f"sigmas must be positive, got {s}")
        a_star = fixed_point(s)
        rows.append(CoolingRow(float(s), a_star, profit_intensity(a_star, s)))
    return rows


def market_temperature(beta: float, risk: RiskParams) -> tuple[float, float]:
    """Temperature T = 1/beta and the mean thermal risk at that beta."""
    check_positive(beta, "beta")
    return 1.0 / beta, thermal_energy(beta, risk)


def round_log_to_csv(
    outcomes: Sequence[ClearingOutcome], path: str | Path
) -> None:
    """Write per-trader round logs: round,trader,side,logprice,executed,flow."""
    with open(path, "w", newline="\n") as fh:
        fh.write("round,trader,side,logprice,executed,flow\n")
        for rnd, out in enumerate(outcomes):
            status = {i: False for i in out.log_prices}
            for (b, s), ok in zip(out.pairs, out.executed):
                status[b] = status[b] or ok
                status[s] = status[s] or ok
            for side, members in (
                ("buyer", out.division.buyers),
                ("seller", out.division.sellers),
            ):
                for i in members:
                    fh.write(
                        f"{rnd},{i},{side},{out.log_prices[i]!r},"
                        f"{int(status[i])},{out.flows[i]!r}\n"
                    )
