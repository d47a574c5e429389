"""Risk inclination of trader strategies.

The risk operator is a harmonic oscillator in the demand/supply
quadratures,

    H(P, Q) = (P - p0)^2 / (2m) + m omega^2 (Q - q0)^2 / 2,

with omega = 2 pi / theta set by the characteristic transaction time.
Its spectrum is equidistant, E_n = (n + 1/2) hbar_eff omega, where
hbar_eff = sqrt(hbar_e^2 + Theta^2) absorbs a noncommutative market
deformation; the ground level obeys E_0 * 2 theta = h_e when Theta = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ImproperStateError, ParameterRangeError
from .numerics import check_count
from .strategy import (
    Representation,
    RiskParams,
    Strategy,
    moments as strategy_moments,
)

__all__ = [
    "RiskParams",
    "RiskSpectrum",
    "spectrum",
    "risk_expectation",
    "thermal_energy",
]


@dataclass(frozen=True)
class RiskSpectrum:
    """Equidistant risk levels of one parameter set."""

    eigenvalues: tuple[float, ...]
    risk: RiskParams

    @property
    def ground_energy(self) -> float:
        return self.eigenvalues[0]

    @property
    def gap(self) -> float:
        """Level spacing hbar_eff * omega."""
        return self.risk.hbar_eff * self.risk.omega


def spectrum(risk: RiskParams, n_levels: int) -> RiskSpectrum:
    """First ``n_levels`` eigenvalues (n + 1/2) hbar_eff omega."""
    check_count(n_levels, "n_levels", 1)
    gap = risk.hbar_eff * risk.omega
    return RiskSpectrum(
        tuple((n + 0.5) * gap for n in range(n_levels)), risk
    )


def risk_expectation(s: Strategy, risk: RiskParams) -> float:
    """Expected risk <H> of a normalizable strategy.

    The operator centers (p0, q0) are the state's own means, so the
    expectation reduces to the quadrature variances:
    <H> = Var(p) / (2m) + m omega^2 Var(q) / 2.  A displaced or
    phase-tilted packet therefore carries the same risk as the centered
    one, and every normalized strategy satisfies
    <H> >= hbar_eff omega / 2 (the uncertainty bound).  The other
    quadrature is the strategy's cached dual, :meth:`Strategy.dual`.
    """
    if not isinstance(s, Strategy):
        raise ImproperStateError("risk_expectation expects a Strategy")
    if s.is_improper:
        raise ImproperStateError(
            "point strategies have divergent risk (infinite dual spread)"
        )
    if s.rep is Representation.DEMAND:
        demand, supply = s, s.dual(risk)
    else:
        demand, supply = s.dual(risk), s
    _, q_std = strategy_moments(demand)
    _, p_std = strategy_moments(supply)
    return (
        p_std * p_std / (2.0 * risk.m)
        + 0.5 * risk.m * risk.omega**2 * q_std * q_std
    )


def thermal_energy(beta: float, risk: RiskParams) -> float:
    """Mean risk of the Gibbs mixture at inverse temperature beta.

    E(beta) = (hbar_eff omega / 2) coth(beta hbar_eff omega / 2); the
    high-temperature limit is the equipartition value 1/beta, the zero
    temperature limit is the ground energy.
    """
    if not (beta > 0 and math.isfinite(beta)):
        raise ParameterRangeError(f"beta must be positive and finite, got {beta}")
    half_gap = 0.5 * risk.hbar_eff * risk.omega
    return half_gap / math.tanh(beta * half_gap)
