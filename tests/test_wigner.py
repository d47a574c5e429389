import math
import tracemalloc

import numpy as np
import pytest

from qmg.errors import (
    ContractViolationError,
    DegenerateDensityError,
    ParameterRangeError,
)
from qmg.numerics import Grid, RandomSource
from qmg.strategy import RiskParams, Strategy, UNIT_RISK
from qmg.wigner import (
    CoherentParams,
    PhaseSpaceDensity,
    coherent_wigner,
    dominant_curves,
    excited_wigner,
    hudson_check,
    is_giffen,
    thermal_wigner,
    wigner_transform,
)

INV_PI = 1.0 / math.pi


def grid_pair(half=8.0, n=241):
    return Grid(-half, half, n), Grid(-half, half, n)


def test_ground_state_transform_matches_closed_form():
    s = Strategy.gaussian(0.0, 1.0 / math.sqrt(2.0))
    d = wigner_transform(s)
    closed = excited_wigner(0, UNIT_RISK, d.p_grid, d.q_grid)
    assert np.max(np.abs(d.values - closed.values)) < 1e-12


def test_excited_level_one_center_value():
    d = excited_wigner(1, UNIT_RISK)
    center = d.values[d.p_grid.n // 2, d.q_grid.n // 2]
    assert center == pytest.approx(-INV_PI, abs=1e-12)
    num = wigner_transform(Strategy.hermite(1), d.p_grid, d.q_grid)
    assert np.max(np.abs(num.values - d.values)) < 1e-10


def test_wigner_mass_and_marginals():
    s = Strategy.gaussian(0.4, 0.8, slope=0.6)
    d = wigner_transform(s)
    assert d.mass() == pytest.approx(1.0, abs=1e-9)
    dens_q = np.abs(s.amplitudes_on(d.q_grid)) ** 2
    assert np.max(np.abs(d.marginal_q() - dens_q)) < 1e-10


def test_steep_slope_keeps_the_nyquist_step():
    # the Nyquist step needs ~143k chord points per side: the transform
    # must take them all, in bounded memory
    s = Strategy.gaussian(0.0, 1.0, slope=7000.0)
    q_grid = Grid(-8.0, 8.0, 121)
    p_grid = Grid(7000.0 - 4.0, 7000.0 + 4.0, 121)
    tracemalloc.start()
    try:
        d = wigner_transform(s, p_grid, q_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150e6
    q, p = q_grid.points, p_grid.points
    dens_q = np.exp(-0.5 * q * q) / math.sqrt(2.0 * math.pi)
    # p spread hbar / (2 width) = 1/2 around hbar * slope
    dens_p = np.exp(-2.0 * (p - 7000.0) ** 2) * math.sqrt(2.0 / math.pi)
    assert np.max(np.abs(d.marginal_q() - dens_q)) < 1e-10
    assert np.max(np.abs(d.marginal_p() - dens_p)) < 1e-10


def test_wigner_is_real_even_for_complex_states():
    from qmg.strategy import normalize

    s = normalize(
        Strategy.superpose([Strategy.hermite(0), Strategy.hermite(3)], [1.0, 1.0j])
    )
    d = wigner_transform(s)
    assert np.isrealobj(d.values)
    assert d.mass() == pytest.approx(1.0, abs=1e-8)


def test_coherent_family_uncertainty_product():
    for r in (0.0, 0.5, -0.5, 0.9, -0.9):
        cp = CoherentParams(r=r, eta=1.0)
        d = coherent_wigner(cp)
        m = d.moments()
        product = m.p_std * m.q_std * math.sqrt(1.0 - r * r)
        assert product == pytest.approx(0.5, abs=1e-9)
        # buy-sell correlation of the measured prices is -r
        assert m.correlation == pytest.approx(-r, abs=1e-9)
        assert d.min_point()[0] >= -1e-12


def test_coherent_rejects_degenerate_correlation():
    with pytest.raises(DegenerateDensityError):
        coherent_wigner(CoherentParams(r=1.0, eta=1.0))
    with pytest.raises(ParameterRangeError):
        CoherentParams(r=1.5, eta=1.0)


def test_coherent_displaced_moments():
    cp = CoherentParams(r=0.3, eta=0.9, p0=-0.7, q0=1.1)
    d = coherent_wigner(cp)
    m = d.moments()
    assert m.p_mean == pytest.approx(-0.7, abs=1e-9)
    assert m.q_mean == pytest.approx(1.1, abs=1e-9)
    assert m.q_std == pytest.approx(0.9 / math.sqrt(1 - 0.09), abs=1e-9)


def test_thermal_closed_vs_series():
    risk = RiskParams.from_omega(1.0, 1.0)
    for beta in (0.5, 1.0, 2.0):
        closed = thermal_wigner(beta, risk, mode="closed")
        series = thermal_wigner(
            beta, risk, closed.p_grid, closed.q_grid, mode="series", series_terms=200
        )
        assert np.max(np.abs(closed.values - series.values)) < 1e-10


def test_thermal_low_temperature_is_ground_state():
    risk = RiskParams.from_omega(1.0, 1.0)
    cold = thermal_wigner(50.0, risk)
    ground = excited_wigner(0, risk, cold.p_grid, cold.q_grid)
    assert np.max(np.abs(cold.values - ground.values)) < 1e-12


def test_thermal_is_positive_mixture():
    d = thermal_wigner(1.3, UNIT_RISK)
    assert d.kind == "mixture"
    assert not is_giffen(d)
    assert d.mass() == pytest.approx(1.0, abs=1e-6)


def test_excited_states_are_giffen():
    for n in (1, 2, 5):
        d = excited_wigner(n, UNIT_RISK)
        rep = is_giffen(d)
        assert rep.negative
        assert rep.min_value < -1e-4


def test_hudson_classification():
    from qmg.wigner import HudsonClass

    w = 1.0 / math.sqrt(2.0)
    pos = hudson_check(Strategy.gaussian(0.2, 0.9, slope=-0.4))
    assert pos.classification is HudsonClass.GAUSSIAN_POSITIVE
    assert hudson_check(Strategy.hermite(2)).classification is (
        HudsonClass.NON_GAUSSIAN_NEGATIVE
    )
    cat = Strategy.superpose(
        [Strategy.gaussian(-1.5, w), Strategy.gaussian(1.5, w)], [1.0, 1.0]
    )
    rep = hudson_check(cat)
    assert rep.classification is HudsonClass.NON_GAUSSIAN_NEGATIVE
    assert rep.min_value < -1e-4 and rep.witness is not None


def test_hudson_requires_strategy():
    with pytest.raises(ContractViolationError):
        hudson_check("gaussian(0,1)")


def test_mixture_weights_and_grids():
    p_grid, q_grid = grid_pair()
    a = excited_wigner(0, UNIT_RISK, p_grid, q_grid)
    b = excited_wigner(1, UNIT_RISK, p_grid, q_grid)
    mix = PhaseSpaceDensity.mixture([a, b], [0.75, 0.25])
    assert mix.kind == "mixture"
    assert np.max(np.abs(mix.values - 0.75 * a.values - 0.25 * b.values)) < 1e-14
    other = excited_wigner(0, UNIT_RISK, Grid(-9, 9, 241), q_grid)
    with pytest.raises(ContractViolationError):
        PhaseSpaceDensity.mixture([a, other], [0.5, 0.5])


def test_dominant_curves_of_positive_gaussian():
    from scipy.special import ndtr

    d = coherent_wigner(CoherentParams(r=0.0, eta=1.0 / math.sqrt(2.0)))
    curves = dominant_curves(d)
    assert curves.demand_monotone and curves.supply_monotone
    # F_d is the demand CDF along the q slice through the center
    for x in (-1.0, 0.0, 0.7):
        assert curves.demand_at(x) == pytest.approx(
            float(ndtr(x / (1.0 / math.sqrt(2.0)))), abs=1e-6
        )
    # F_s falls in ln c as P(p <= -ln c)
    assert curves.supply_at(0.0) == pytest.approx(0.5, abs=1e-6)
    assert curves.supply_at(1.0) < curves.supply_at(-1.0)


def test_dominant_curves_giffen_non_monotone():
    d = excited_wigner(1, UNIT_RISK)
    curves = dominant_curves(d)
    assert not (curves.demand_monotone and curves.supply_monotone)


def test_density_csv_round_trip(tmp_path):
    d = excited_wigner(0, UNIT_RISK, Grid(-4, 4, 17), Grid(-4, 4, 17))
    path = tmp_path / "density.csv"
    d.to_csv(path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "p,q,w"
    assert len(rows) == 1 + 17 * 17
    p, q, w = (float(c) for c in rows[1 + 17 * 8 + 8].split(","))
    assert (p, q) == (0.0, 0.0)
    assert w == pytest.approx(INV_PI, rel=1e-12)


def test_density_csv_bytes_match_the_row_by_row_writer(tmp_path):
    d = wigner_transform(Strategy.hermite(3))
    assert (d.p_grid.n, d.q_grid.n) == (241, 241)
    path = tmp_path / "density.csv"
    d.to_csv(path)
    p, q = d.p_grid.points, d.q_grid.points
    lines = ["p,q,w\n"]
    for i in range(d.p_grid.n):
        for j in range(d.q_grid.n):
            lines.append(f"{float(p[i])!r},{float(q[j])!r},{float(d.values[i, j])!r}\n")
    assert path.read_bytes() == "".join(lines).encode()


def test_moments_reject_zero_mass():
    g = Grid(-1, 1, 16)
    d = PhaseSpaceDensity(np.zeros((16, 16)), g, g, 1.0, kind="pure")
    with pytest.raises(DegenerateDensityError):
        d.moments()


def test_randomized_marginals_match_both_representations():
    # mirrors the acceptance property on a small sample of states
    rng = RandomSource(77).rng
    from qmg.strategy import to_supply_rep

    for _ in range(3):
        center = rng.uniform(-1, 1)
        width = rng.uniform(0.5, 1.5)
        slope = rng.uniform(-0.5, 0.5)
        s = Strategy.gaussian(center, width, slope=slope)
        d = wigner_transform(s)
        dens_q = np.abs(s.amplitudes_on(d.q_grid)) ** 2
        assert np.max(np.abs(d.marginal_q() - dens_q)) < 1e-5
        sup = to_supply_rep(s)
        dens_p = np.abs(sup.evaluate(d.p_grid.points)) ** 2
        assert np.max(np.abs(d.marginal_p() - dens_p)) < 1e-5
