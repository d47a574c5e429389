import math

import numpy as np
import pytest

from qmg.errors import ContractViolationError, ParameterRangeError
from qmg.numerics import RandomSource
from qmg.risk import (
    RiskParams,
    risk_expectation,
    spectrum,
    thermal_energy,
)
from qmg.strategy import Representation, Strategy, UNIT_RISK

COTH_1_HALF = 0.6565176427496657  # coth(1) / 2


def test_hbar_eff_pythagorean():
    assert RiskParams(hbar_e=1.0, theta=1.0, theta_nc=0.75).hbar_eff == 1.25
    assert UNIT_RISK.hbar_eff == 1.0


def test_ground_energy_times_two_theta_is_h():
    # minimal risk over the transaction span: E0 * 2 theta = h
    for theta in (0.5, 1.0, 3.7):
        rp = RiskParams(hbar_e=1.0, theta=theta)
        e0 = spectrum(rp, 1).ground_energy
        assert e0 * 2.0 * theta == pytest.approx(rp.h_e, abs=1e-12)


def test_spectrum_ladder():
    rp = RiskParams.from_omega(1.0, 2.0)
    sp = spectrum(rp, 5)
    assert sp.eigenvalues == tuple(pytest.approx((n + 0.5) * 2.0) for n in range(5))
    assert sp.gap == pytest.approx(2.0)


def test_spectrum_with_noncommutative_correction():
    rp = RiskParams.from_omega(1.0, 1.0, theta_nc=0.75)
    sp = spectrum(rp, 2)
    assert sp.eigenvalues[0] == pytest.approx(0.625)  # hbar_eff / 2
    assert sp.eigenvalues[1] == pytest.approx(1.875)


def test_spectrum_validation():
    with pytest.raises(ParameterRangeError):
        spectrum(UNIT_RISK, 0)


def test_eigenstates_hit_their_levels():
    for n in (0, 1, 2, 4):
        e = risk_expectation(Strategy.hermite(n), UNIT_RISK)
        assert e == pytest.approx(n + 0.5, abs=1e-8)


def test_displaced_ground_state_keeps_minimal_risk():
    # operator centers follow the state's own means
    s = Strategy.gaussian(1.7, math.sqrt(0.5), slope=-0.9)
    assert risk_expectation(s, UNIT_RISK) == pytest.approx(0.5, abs=1e-9)


def test_variational_bound_on_random_strategies():
    rng = RandomSource(31).rng
    ground = 0.5 * UNIT_RISK.hbar_eff * UNIT_RISK.omega
    for _ in range(25):
        s = Strategy.gaussian(
            rng.uniform(-2, 2), rng.uniform(0.3, 2.0), slope=rng.uniform(-1, 1)
        )
        assert risk_expectation(s, UNIT_RISK) >= ground - 1e-6


def test_squeezed_widths_raise_risk():
    # width away from the oscillator scale costs risk both ways
    narrow = risk_expectation(Strategy.gaussian(0.0, 0.3), UNIT_RISK)
    wide = risk_expectation(Strategy.gaussian(0.0, 2.0), UNIT_RISK)
    matched = risk_expectation(Strategy.gaussian(0.0, math.sqrt(0.5)), UNIT_RISK)
    assert matched == pytest.approx(0.5, abs=1e-9)
    assert narrow > matched and wide > matched


def test_thermal_energy_closed_form():
    rp = RiskParams.from_omega(1.0, 1.0)
    assert thermal_energy(2.0, rp) == pytest.approx(COTH_1_HALF, abs=1e-12)
    # beta -> infinity approaches the ground energy
    assert thermal_energy(200.0, rp) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ParameterRangeError):
        thermal_energy(0.0, rp)


def test_thermal_energy_matches_wigner_quadrature():
    from qmg.numerics import Grid, integrate
    from qmg.wigner import thermal_wigner

    rp = RiskParams.from_omega(1.0, 1.0)
    beta = 1.3
    d = thermal_wigner(beta, rp)
    P = d.p_grid.points[:, None]
    Q = d.q_grid.points[None, :]
    h = 0.5 * P**2 + 0.5 * Q**2
    inner = np.array([integrate(row, d.q_grid) for row in d.values * h])
    e_grid = float(integrate(inner, d.p_grid))
    assert e_grid == pytest.approx(thermal_energy(beta, rp), abs=1e-9)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: spectrum(UNIT_RISK, True), ContractViolationError),
        (lambda: spectrum(UNIT_RISK, 2.5), ContractViolationError),
        (lambda: spectrum(UNIT_RISK, 0), ParameterRangeError),
        (lambda: thermal_energy(math.nan, UNIT_RISK), ParameterRangeError),
        (lambda: thermal_energy(math.inf, UNIT_RISK), ParameterRangeError),
        # tanh(beta hbar omega / 2) underflows to 0, or the energy overflows
        (lambda: thermal_energy(5e-324, UNIT_RISK), ParameterRangeError),
        (lambda: thermal_energy(1e-310, UNIT_RISK), ParameterRangeError),
    ],
    ids=[
        "levels-bool", "levels-float", "levels-zero", "beta-nan", "beta-inf",
        "beta-underflows", "energy-overflows",
    ],
)
def test_invalid_counts_and_non_finite_betas_are_refused(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "fields",
    [
        {"hbar_e": 1.0, "theta": 1e-320},  # omega = 2 pi / theta overflows
        {"hbar_e": 1.7e308, "theta": 1.0, "theta_nc": 1.7e308},  # hbar_eff overflows
        {"hbar_e": 5e-324, "theta": 1.0},  # a subnormal hbar_eff
        {"hbar_e": 1.0, "theta": 1e300, "m": 5e-324},  # m omega underflows to 0
        {"hbar_e": 1e-300, "theta": 1e300},  # the level spacing hbar_eff omega underflows to 0
    ],
    ids=["omega", "hbar_eff", "subnormal-hbar", "m-omega", "hbar-omega"],
)
def test_risk_params_whose_derived_scales_leave_the_doubles_are_refused(fields):
    with pytest.raises(ParameterRangeError):
        RiskParams(**fields)


def test_spectrum_refuses_a_top_level_that_overflows():
    risk = RiskParams.from_omega(1e154, 1e154)  # gap 1e308: level 1 is 1.5e308, level 2 overflows
    assert spectrum(risk, 2).eigenvalues == (0.5e308, 1.5e308)
    with pytest.raises(ParameterRangeError, match="level 2 overflows"):
        spectrum(risk, 3)
    with pytest.raises(ParameterRangeError):
        spectrum(RiskParams.from_omega(1e308, 1e308), 1)  # the gap itself is inf


def test_thermal_energy_refuses_an_hbar_omega_that_underflows():
    # each is a normal double; their product is below the least subnormal, which RiskParams refuses
    with pytest.raises(ParameterRangeError, match="hbar omega underflows"):
        thermal_energy(1.0, RiskParams(hbar_e=1e-200, theta=1e200))


def test_supply_side_expectation_takes_q_from_the_dual():
    # supply gaussian of width w: Var(p) = w^2, Var(q) = (hbar / 2w)^2
    w = 0.4
    s = Strategy.gaussian(0.1, w, rep=Representation.SUPPLY)
    expected = w * w / 2.0 + 0.5 * (1.0 / (2.0 * w)) ** 2
    assert risk_expectation(s, UNIT_RISK) == pytest.approx(expected, rel=1e-9)
