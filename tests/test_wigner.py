import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmg.errors import (
    ContractViolationError,
    DegenerateDensityError,
    ParameterRangeError,
    RepresentationError,
)
from qmg.numerics import Grid, RandomSource
from qmg.strategy import Representation, RiskParams, Strategy, UNIT_RISK, moments
from qmg.wigner import (
    EXCITED_MAX_LEVEL,
    CoherentParams,
    PhaseSpaceDensity,
    coherent_wigner,
    dominant_curves,
    excited_wigner,
    hudson_check,
    is_giffen,
    _laguerre_ladder,
    _oscillator_h,
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


def test_dominant_curves_of_positive_gaussian():
    from scipy.special import ndtr

    d = coherent_wigner(CoherentParams(r=0.0, eta=1.0 / math.sqrt(2.0)))
    curves = dominant_curves(d)
    assert curves.demand_monotone and curves.supply_monotone

    def node(x):  # index of the curve node nearest x
        return int(np.argmin(np.abs(curves.lnc - x)))

    # F_d is the demand CDF along the q slice through the center
    for x in (-1.0, 0.0, 0.7):
        j = node(x)
        assert curves.demand[j] == pytest.approx(
            float(ndtr(curves.lnc[j] / (1.0 / math.sqrt(2.0)))), abs=1e-6
        )
    # F_s falls in ln c as P(p <= -ln c)
    j = node(0.0)
    assert curves.supply[j] == pytest.approx(
        float(ndtr(-curves.lnc[j] / (1.0 / math.sqrt(2.0)))), abs=1e-6
    )
    assert curves.supply[node(1.0)] < curves.supply[node(-1.0)]


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


def test_default_p_grid_reads_the_cached_dual_and_refuses_supply_strategies():
    s = Strategy.gaussian(0.3, 0.8, slope=0.4)
    d = wigner_transform(s, hbar=2.0)
    # the p-grid came from the dual that s keeps, not from a fresh transform
    (dual,) = s._duals.values()
    assert dual is s.dual(RiskParams(hbar_e=2.0, theta=2.0 * math.pi))
    p_mean, p_std = moments(dual)
    span = 8.0 * p_std
    assert d.p_grid == Grid(p_mean - span, p_mean + span, 241)
    with pytest.raises(RepresentationError):
        wigner_transform(Strategy.gaussian(0.0, 1.0, rep=Representation.SUPPLY))


@pytest.mark.parametrize(
    "density",
    [
        # off-center, unequal grids: a swapped axis or a reversed marginal shows
        coherent_wigner(
            CoherentParams(r=0.3, eta=0.8, p0=0.4, q0=-0.3),
            p_grid=Grid(-4.0, 5.0, 181),
            q_grid=Grid(-5.0, 3.5, 171),
        ),
        excited_wigner(2, UNIT_RISK),
    ],
    ids=["coherent", "excited-2"],
)
def test_moments_from_marginals_match_the_2d_formulas(density):
    d = density
    p, q = d.p_grid.points[:, None], d.q_grid.points[None, :]
    total = d.mass()

    def mean2d(f):
        inner = np.trapezoid(f, dx=d.q_grid.spacing, axis=1)
        return float(np.trapezoid(inner, dx=d.p_grid.spacing)) / total

    pm, qm = mean2d(d.values * p), mean2d(d.values * q)
    p_std = math.sqrt(mean2d(d.values * (p - pm) ** 2))
    q_std = math.sqrt(mean2d(d.values * (q - qm) ** 2))
    corr = mean2d(d.values * (p - pm) * (q - qm)) / (p_std * q_std)
    m = d.moments()
    got = (m.p_mean, m.q_mean, m.p_std, m.q_std, m.correlation)
    assert got == pytest.approx((pm, qm, p_std, q_std, corr), abs=1e-12)


G16 = Grid(-1.0, 1.0, 16)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: CoherentParams(r=0.0, eta=math.nan), ParameterRangeError),
        (lambda: CoherentParams(r=0.0, eta=math.inf), ParameterRangeError),
        (lambda: CoherentParams(r=0.0, eta=1.0, p0=math.nan), ParameterRangeError),
        (lambda: CoherentParams(r=0.0, eta=1.0, q0=math.inf), ParameterRangeError),
        (lambda: PhaseSpaceDensity(np.zeros((16, 16)), G16, G16, math.nan), ParameterRangeError),
        (lambda: is_giffen(excited_wigner(1, UNIT_RISK), tol=math.nan), ParameterRangeError),
        (lambda: excited_wigner(2.0, UNIT_RISK), ContractViolationError),
        (lambda: excited_wigner(EXCITED_MAX_LEVEL + 1, UNIT_RISK), ParameterRangeError),
        (lambda: thermal_wigner(math.nan, UNIT_RISK), ParameterRangeError),
        (lambda: wigner_transform(Strategy.hermite(1), G16, G16, hbar=math.nan), ParameterRangeError),
        (lambda: thermal_wigner(1.0, UNIT_RISK, mode="series", series_terms=2.5), ContractViolationError),
        # tanh(beta hbar omega / 2) underflows to 0, or its reciprocal overflows
        (lambda: thermal_wigner(5e-324, UNIT_RISK), ParameterRangeError),
        (lambda: thermal_wigner(1e-320, UNIT_RISK, mode="series"), ParameterRangeError),
        # H overflows at the grid's edge: the level ladder is inf * 0 there
        (lambda: thermal_wigner(1.0, UNIT_RISK, Grid(-1e160, 1e160, 16), G16, mode="series"), ParameterRangeError),
        # omega squared overflows; hbar_e omega underflows to 0
        (lambda: excited_wigner(1, RiskParams(hbar_e=1.0, theta=1e-160), G16, G16), ParameterRangeError),
        (lambda: excited_wigner(1, RiskParams(hbar_e=1e-200, theta=1e200), G16, G16), ParameterRangeError),
    ],
    ids=[
        "eta-nan", "eta-inf", "p0-nan", "q0-inf", "hbar-nan", "tol-nan",
        "level-float", "level-too-high", "beta-nan", "transform-hbar-nan", "terms-float",
        "beta-underflows", "beta-spread-overflows", "series-h-overflows",
        "omega-squared-overflows", "hbar-omega-underflows",
    ],
)
def test_non_finite_reals_and_bad_counts_are_refused(call, error):
    with pytest.raises(error):
        call()


def _full_grid_series(beta, risk, p_grid, q_grid, terms):
    # the level sum as it ran before the distinct-z reduction: every grid point
    hb = risk.hbar_eff
    s = math.exp(-beta * hb * risk.omega)
    z = 4.0 * _oscillator_h(p_grid, q_grid, risk) / (hb * risk.omega)
    values = np.zeros_like(z)
    ladder = _laguerre_ladder(z)
    for k in range(terms):
        weight = (1.0 - s) * s**k
        values += weight * ((-1.0) ** k / (math.pi * hb)) * next(ladder)
    return values


def _full_grid_level(n, risk, p_grid, q_grid):
    hb = risk.hbar_eff
    z = 4.0 * _oscillator_h(p_grid, q_grid, risk) / (hb * risk.omega)
    level_n = next(itertools.islice(_laguerre_ladder(z), n, None))
    return ((-1.0) ** n / (math.pi * hb)) * level_n


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def _oscillator_grid(draw, scale):
    # asymmetric ends, odd or even sizes, and p and q sizes drawn apart
    lo = draw(st.floats(-8.0, -0.5)) * scale
    hi = draw(st.floats(0.5, 8.0)) * scale
    return Grid(lo, hi, draw(st.integers(8, 61)))


@given(
    hbar_e=st.floats(0.3, 3.0),
    theta=st.floats(0.5, 10.0),
    m=st.floats(0.3, 3.0),
    theta_nc=st.floats(0.0, 1.0),
    beta_gap=st.floats(0.05, 5.0),
    terms=st.integers(1, 300),
    n=st.integers(0, 40),
    data=st.data(),
)
def test_level_sums_match_the_full_grid_loop_bit_for_bit(
    hbar_e, theta, m, theta_nc, beta_gap, terms, n, data
):
    risk = RiskParams(hbar_e=hbar_e, theta=theta, m=m, theta_nc=theta_nc)
    hb, om = risk.hbar_eff, risk.omega
    p_grid = data.draw(_oscillator_grid(math.sqrt(hb * m * om)))
    q_grid = data.draw(_oscillator_grid(math.sqrt(hb / (m * om))))
    beta = beta_gap / (hb * om)
    series = thermal_wigner(beta, risk, p_grid, q_grid, mode="series", series_terms=terms)
    assert _same_bits(series.values, _full_grid_series(beta, risk, p_grid, q_grid, terms))
    excited = excited_wigner(n, risk, p_grid, q_grid)
    assert _same_bits(excited.values, _full_grid_level(n, risk, p_grid, q_grid))
    # the default grids are symmetric, where most z values repeat
    default = thermal_wigner(beta, risk, mode="series", series_terms=terms)
    assert _same_bits(
        default.values,
        _full_grid_series(beta, risk, default.p_grid, default.q_grid, terms),
    )
