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

import numpy as np

from .errors import ImproperStateError, ParameterRangeError
from .numerics import check_count, check_positive
from .strategy import (
    GaussianForm,
    HermiteForm,
    Representation,
    RiskParams,
    Strategy,
    _leaves,
    moments as strategy_moments,
)
from .zeno import _closed_form_vector

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
    """First ``n_levels`` eigenvalues (n + 1/2) hbar_eff omega; refused where the top one overflows."""
    check_count(n_levels, "n_levels", 1)
    gap = risk.hbar_eff * risk.omega
    if not math.isfinite((n_levels - 0.5) * gap):
        raise ParameterRangeError(f"level {n_levels - 1} overflows a double: the gap is {gap!r}")
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
    <H> >= hbar_eff omega / 2 (the uncertainty bound).

    Two kinds are exact: a bare Gaussian of width w on either side has
    variances w^2 there and (hbar_eff / 2w)^2 on the other, and demand-side
    levels at the risk's length, coefficients c_n, have
    <H> = hbar_eff omega (<n> + 1/2 - |<a>|^2).  Every other strategy
    reads both variances from tables, the other quadrature being its
    cached dual, :meth:`Strategy.dual`.
    """
    if not isinstance(s, Strategy):
        raise ImproperStateError("risk_expectation expects a Strategy")
    if s.is_improper:
        raise ImproperStateError(
            "point strategies have divergent risk (infinite dual spread)"
        )
    form = s._bare.form
    if isinstance(form, GaussianForm):
        own, dual = form.width**2, (risk.hbar_eff / (2.0 * form.width)) ** 2
        q_var, p_var = (own, dual) if s.rep is Representation.DEMAND else (dual, own)
        return p_var / (2.0 * risk.m) + 0.5 * risk.m * risk.omega**2 * q_var
    if s.rep is Representation.DEMAND and all(isinstance(f, HermiteForm) for _, f in _leaves(s.form)):
        c = _closed_form_vector(s, risk.length_scale, 1)  # None for levels of another length
        if c is not None and np.any(c):
            weights = np.abs(c) ** 2
            total = float(np.sum(weights))
            n_mean = float(np.arange(len(c)) @ weights) / total
            a_mean = complex(np.sum(c[:-1].conj() * np.sqrt(np.arange(1.0, len(c))) * c[1:])) / total
            return risk.hbar_eff * risk.omega * (n_mean + 0.5 - abs(a_mean) ** 2)
    if s.rep is Representation.DEMAND:
        demand, supply = s, s.dual(risk.hbar_eff)
    else:
        demand, supply = s.dual(risk.hbar_eff), s
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
    temperature limit is the ground energy.  A beta so small that the
    energy overflows a double is refused.
    """
    check_positive(beta, "beta")
    half_gap = 0.5 * risk.hbar_eff * risk.omega
    t = math.tanh(beta * half_gap)
    energy = half_gap / t if t > 0 else math.inf
    if not math.isfinite(energy):
        raise ParameterRangeError(f"beta {beta} is too small: the thermal energy overflows")
    return energy
