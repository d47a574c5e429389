import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qmg.errors import (
    ContractViolationError,
    DegenerateDensityError,
    ParameterRangeError,
    RepresentationError,
)
from qmg.numerics import TWO_PI, Grid, RandomSource
from qmg.strategy import Representation, RiskParams, Strategy, UNIT_RISK, hermite_function, moments
from qmg.strategy import norm as strategy_norm
from qmg import wigner as wigner_module
from qmg.wigner import (
    EXCITED_MAX_LEVEL,
    CoherentParams,
    PhaseSpaceDensity,
    coherent_wigner,
    dominant_curves,
    excited_wigner,
    hudson_check,
    is_giffen,
    _half_laguerre_ladder,
    _laguerre_ladder,
    _chirp_z,
    _chord_ratio,
    _closed_form,
    _sample_spacing,
    _slope_bound,
    _smooth_length,
    thermal_wigner,
    wigner_transform,
)

INV_PI = 1.0 / math.pi


def grid_pair(half=8.0, n=241):
    return Grid(-half, half, n), Grid(-half, half, n)


def chirp_z(s, p_grid, q_grid, hbar=1.0):
    """The numerical transform alone, whatever the strategy's form."""
    return PhaseSpaceDensity(_chirp_z(s, p_grid, q_grid, hbar), p_grid, q_grid, hbar)


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
        d = chirp_z(s, p_grid, q_grid)
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


def test_hudson_classifies_levels_at_two_hbar_at_hbar_one():
    from qmg.wigner import HudsonClass

    mixed = Strategy.superpose([Strategy.hermite(0), Strategy.hermite(0, RiskParams(0.7, 2.5))], [1, 1])
    with pytest.raises(ParameterRangeError, match="leave no default"):
        mixed.hbar
    rep = hudson_check(mixed)
    assert rep.density.hbar == 1.0
    assert rep.classification is HudsonClass.NON_GAUSSIAN_NEGATIVE
    # the sign pattern does not depend on hbar
    assert all(is_giffen(wigner_transform(mixed, hbar=hb)) for hb in (0.7, 2.5))
    # two copies of one Gaussian that differ only in hbar are classified positive
    same_length = RiskParams(hbar_e=0.5, theta=TWO_PI, m=0.5)
    twin = Strategy.superpose([Strategy.hermite(0), Strategy.hermite(0, same_length)], [1, 1])
    assert hudson_check(twin).classification is HudsonClass.GAUSSIAN_POSITIVE


def test_hudson_keeps_the_default_hbar_of_a_strategy_that_has_one():
    s = Strategy.hermite(2, RiskParams(0.7, 2.5))
    rep = hudson_check(s)
    assert rep.density.hbar == s.hbar == 0.7
    assert _same_bits(rep.density.values, wigner_transform(s).values)


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
    d = PhaseSpaceDensity(np.zeros((16, 16)), g, g, 1.0)
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
    assert dual is s.dual(2.0)
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
        # omega squared overflows where m omega squared would not
        (lambda: excited_wigner(1, RiskParams(hbar_e=1.0, theta=1e-300, m=1e-300), G16, G16), ParameterRangeError),
        # the chord step needs more than 2^21 psi points, or its ratio is inf
        # (the closed form computes both Gaussians: the chirp-z is called alone)
        (lambda: _chirp_z(Strategy.gaussian(0, 1, 1e5), Grid(1e5 - 4, 1e5 + 4, 241), Grid(-8, 8, 241), 1.0),
         ParameterRangeError),
        (lambda: _chirp_z(Strategy.gaussian(0, 1, 1e300), G16, G16, 1.0), ParameterRangeError),
        (lambda: wigner_transform(Strategy.hermite(1), Grid(-1e308, 1e308, 16), G16, hbar=1e-300), ParameterRangeError),
    ],
    ids=[
        "eta-nan", "eta-inf", "p0-nan", "q0-inf", "hbar-nan",
        "level-float", "level-too-high", "beta-nan", "transform-hbar-nan", "terms-float",
        "beta-underflows", "beta-spread-overflows", "series-h-overflows",
        "omega-squared-overflows", "hbar-omega-underflows", "omega-squared-alone-overflows", "psi-points-capped",
        "chord-ratio-huge", "chord-ratio-inf",
    ],
)
def test_non_finite_reals_and_bad_counts_are_refused(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "density",
    [
        lambda: wigner_transform(Strategy.gaussian(0, 1e-150)),
        lambda: coherent_wigner(CoherentParams(0.0, 1e-200)),
        lambda: coherent_wigner(CoherentParams(0.0, 1e300)),
    ],
    ids=["narrow-strategy", "narrow-coherent", "wide-coherent"],
)
def test_curves_of_densities_at_the_ends_of_the_doubles(density):
    # grids 1e-150 to 1e301 wide: the slices' spline integrals stay finite
    d = density()
    assert d.mass() == pytest.approx(1.0, abs=3e-15)
    c = dominant_curves(d)
    assert c.demand[0] == 0.0 and c.demand[-1] == 1.0
    assert c.demand[d.q_grid.n // 2] == pytest.approx(0.5, abs=1e-12)
    assert c.demand_normalized and c.supply_normalized
    assert c.demand_monotone and c.supply_monotone


def _allocating_ladder(z):
    # the ladder as it ran before the in-place buffers: a fresh array per level
    m_prev = np.exp(-0.5 * z)
    yield m_prev
    m_cur = (1.0 - z) * m_prev
    for k in itertools.count(1):
        yield m_cur
        m_prev, m_cur = m_cur, ((2 * k + 1 - z) * m_cur - k * m_prev) / (k + 1)


def _full_grid_z(risk, p_grid, q_grid):
    # z = 4H/(hbar omega) at every grid point; on a grid with lo == -hi the
    # mirrored points x_i and x_{n-1-i} both take the smaller |x|
    def axis(g):
        a = np.abs(g.points)
        return np.minimum(a, a[::-1]) if g.lo == -g.hi else g.points

    p = axis(p_grid)[:, None]
    q = axis(q_grid)[None, :]
    h = p * p / (2.0 * risk.m) + 0.5 * risk.m * risk.omega**2 * q * q
    return 4.0 * h / (risk.hbar_eff * risk.omega)


def _full_grid_series(beta, risk, p_grid, q_grid, terms):
    # the level sum over every grid point, with no reduction to distinct values
    hb = risk.hbar_eff
    s = math.exp(-beta * hb * risk.omega)
    z = _full_grid_z(risk, p_grid, q_grid)
    values = np.zeros_like(z)
    ladder = _allocating_ladder(z)
    for k in range(terms):
        weight = (1.0 - s) * s**k
        values += weight * ((-1.0) ** k / (math.pi * hb)) * next(ladder)
    return values


def _full_grid_level(n, risk, p_grid, q_grid):
    hb = risk.hbar_eff
    z = _full_grid_z(risk, p_grid, q_grid)
    level_n = next(itertools.islice(_allocating_ladder(z), n, None))
    return ((-1.0) ** n / (math.pi * hb)) * level_n


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _within_1e_15(got, want):
    # a few ulps of the density's scale: sums of the same levels in another order
    return got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))


@st.composite
def _oscillator_grid(draw, scale):
    # asymmetric ends or lo == -hi, odd or even sizes, and p and q sizes drawn apart
    lo = draw(st.floats(-8.0, -0.5)) * scale
    hi = draw(st.one_of(st.floats(0.5, 8.0).map(lambda u: u * scale), st.just(-lo)))
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
    # the excited level holds the loop's bits; the thermal series sums the same
    # levels as a product of two 1-D ladders, in another order, within 1e-15
    series = thermal_wigner(beta, risk, p_grid, q_grid, mode="series", series_terms=terms)
    assert _within_1e_15(series.values, _full_grid_series(beta, risk, p_grid, q_grid, terms))
    excited = excited_wigner(n, risk, p_grid, q_grid)
    assert _same_bits(excited.values, _full_grid_level(n, risk, p_grid, q_grid))
    # the default grids are symmetric, where most z values repeat
    default = thermal_wigner(beta, risk, mode="series", series_terms=terms)
    assert _within_1e_15(
        default.values,
        _full_grid_series(beta, risk, default.p_grid, default.q_grid, terms),
    )


def test_in_place_ladder_matches_the_allocating_ladder_bit_for_bit():
    z = np.concatenate([np.linspace(0.0, 1400.0, 4001), RandomSource(7).rng.uniform(0.0, 1400.0, 2000)])
    for k, got, want in zip(range(301), _laguerre_ladder(z), _allocating_ladder(z)):
        assert got.tobytes() == want.tobytes(), k


_RISK = RiskParams(hbar_e=1.3, theta=4.0, m=0.7, theta_nc=0.2)


def _cli_thermal_grids(beta, risk):
    # the grids the scenario runner's thermal kind builds: six thermal spreads, 201 points
    spread = 1.0 / math.tanh(0.5 * beta * risk.hbar_eff * risk.omega)
    sq = math.sqrt(0.5 * risk.hbar_eff / (risk.m * risk.omega) * spread)
    sp = math.sqrt(0.5 * risk.hbar_eff * risk.m * risk.omega * spread)
    return Grid(-6 * sp, 6 * sp, 201), Grid(-6 * sq, 6 * sq, 201)


@pytest.mark.parametrize(
    "grids",
    [
        (None, None),
        _cli_thermal_grids(0.7, _RISK),
        (Grid(-3.3, 3.3, 40), Grid(-2.9, 2.9, 57)),
        (Grid(-1.7, 1.7, 57), Grid(-4.1, 4.1, 8)),
    ],
    ids=["default-241", "cli-201", "even-by-odd", "odd-by-even"],
)
@pytest.mark.parametrize(
    "density",
    [
        lambda p, q: thermal_wigner(0.7, _RISK, p, q),
        lambda p, q: thermal_wigner(0.7, _RISK, p, q, mode="series"),
        lambda p, q: excited_wigner(0, _RISK, p, q),
        lambda p, q: excited_wigner(7, _RISK, p, q),
    ],
    ids=["thermal-closed", "thermal-series", "excited-0", "excited-7"],
)
def test_oscillator_densities_are_exactly_even_on_symmetric_grids(density, grids):
    w = density(*grids).values
    assert _same_bits(w[::-1, :], w)  # W[n-1-i, j] == W[i, j]
    assert _same_bits(w[:, ::-1], w)  # W[i, m-1-j] == W[i, j]


@pytest.mark.parametrize("n, m", [(8, 8), (9, 8), (40, 57), (241, 241)])
def test_the_ladder_runs_once_per_distinct_abs_p_abs_q_pair(monkeypatch, n, m):
    # the thermal series runs the 1-D ladder once on the distinct |p|, once on
    # the distinct |q|; the excited level runs the 2-D ladder on their pairs
    seen = {"_half_laguerre_ladder": [], "_laguerre_ladder": []}
    for name, seen_by in seen.items():
        ladder = getattr(wigner_module, name)

        def spy(x, *count, ladder=ladder, seen_by=seen_by):
            seen_by.append(x.size)
            return ladder(x, *count)

        monkeypatch.setattr(wigner_module, name, spy)
    p_grid, q_grid = Grid(-2.5, 2.5, n), Grid(-3.5, 3.5, m)
    thermal_wigner(0.7, _RISK, p_grid, q_grid, mode="series")
    excited_wigner(5, _RISK, p_grid, q_grid)
    assert seen["_half_laguerre_ladder"] == [math.ceil(n / 2), math.ceil(m / 2)]
    assert seen["_laguerre_ladder"] == [math.ceil(n / 2) * math.ceil(m / 2)]


def test_the_half_ladder_matches_scipy():
    from scipy.special import eval_genlaguerre

    x = np.concatenate([np.linspace(0.0, 1400.0, 4001), RandomSource(7).rng.uniform(0.0, 1400.0, 2000)])
    got = _half_laguerre_ladder(x, 300)
    want = eval_genlaguerre(np.arange(300)[:, None], -0.5, x) * np.exp(-0.5 * x)
    assert np.max(np.abs(got - want)) < 1e-13


@given(
    xy=st.lists(st.tuples(st.floats(0.0, 700.0), st.floats(0.0, 700.0)), min_size=1, max_size=20),
    count=st.integers(1, 300),
)
@example(xy=[(0.0, 0.0), (0.0, 700.0), (700.0, 0.0)], count=300)
def test_the_laguerre_addition_formula_splits_each_level(xy, count):
    # e^{-z/2} L_k(X + Y) = sum_{i+j=k} a_i(X) b_j(Y), a and b the alpha = -1/2 ladder
    x, y = np.array(xy).T
    a, b = _half_laguerre_ladder(x, count), _half_laguerre_ladder(y, count)
    for k, level in zip(range(count), _laguerre_ladder(x + y)):
        split = np.einsum("ij,ij->j", a[: k + 1], b[k::-1])
        assert np.max(np.abs(split - level)) < 1e-12, k


def test_the_series_stops_where_its_tail_drops_below_a_bit():
    # at beta hbar omega 2.07 the cut falls near level 21: a count of 10^9
    # sums the same levels as 200, without a table of 10^9 weights
    tracemalloc.start()
    try:
        huge = thermal_wigner(1.0, _RISK, mode="series", series_terms=10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert _same_bits(huge.values, thermal_wigner(1.0, _RISK, mode="series").values)


@pytest.mark.parametrize(
    "beta, check",
    [
        # s = e^{-beta hbar omega} rounds to 1: every level weighs 1 - s = 0
        (1e-17, lambda d: np.all(d.values == 0.0)),
        # s underflows to 0: the ground state alone
        (1e3, lambda d: _within_1e_15(d.values, excited_wigner(0, UNIT_RISK, d.p_grid, d.q_grid).values)),
    ],
    ids=["s-is-1", "s-is-0"],
)
def test_the_series_cut_takes_one_level_where_the_weights_leave_no_choice(monkeypatch, beta, check):
    counts = []
    ladder = wigner_module._half_laguerre_ladder

    def spy(x, count):
        counts.append(count)
        return ladder(x, count)

    monkeypatch.setattr(wigner_module, "_half_laguerre_ladder", spy)
    assert check(thermal_wigner(beta, UNIT_RISK, mode="series", series_terms=10**9))
    assert counts == [1, 1]


@pytest.mark.parametrize("mode", ["closed", "series"])
@pytest.mark.parametrize("grids", [(None, None), (G16, G16)], ids=["default-grids", "given-grids"])
def test_thermal_refuses_an_hbar_omega_that_underflows(mode, grids):
    # each is a normal double; their product is below the least subnormal, which RiskParams refuses
    with pytest.raises(ParameterRangeError, match="hbar omega underflows"):
        thermal_wigner(1.0, RiskParams(hbar_e=1e-200, theta=1e200), *grids, mode=mode)


def test_a_kernel_that_underflows_to_no_oscillation_takes_the_q_grid_as_chord_grid():
    # p_max / hbar underflows to 0, so the Nyquist step is inf: r = 1, not 0
    d = chirp_z(Strategy.hermite(2), Grid(-1e-20, 1e-20, 64), Grid(-6, 6, 64), 1e308)
    assert d.values.shape == (64, 64) and np.all(np.isfinite(d.values))


def _reference_transform(s, p_grid, q_grid, hb):
    # the transform as it stood with the chord step tied to the q spacing:
    # step at most h, a power-of-two FFT, a fresh padded array per block
    p_abs = max(abs(p_grid.lo), abs(p_grid.hi))
    freq = p_abs / hb + _slope_bound(s.form)
    dx_nyquist = math.pi / freq if freq > 0 else math.inf
    dx_max = min(q_grid.spacing, 0.5 * dx_nyquist, _sample_spacing(s.form))
    h, nq, n_p = q_grid.spacing, q_grid.n, p_grid.n
    r = math.ceil(2.0 * h / dx_max)
    dx = 2.0 * h / r
    m_top = math.ceil((nq - 1) * r / 2)
    half_grid = q_grid.lo + np.arange(-m_top, (nq - 1) * r + m_top + 1) * (h / r)
    windows = np.lib.stride_tricks.sliding_window_view(s.evaluate(half_grid), m_top + 1)
    plus = windows[m_top::r]
    minus = windows[::r][:nq, ::-1]
    m = np.arange(m_top + 1)
    alpha = p_grid.spacing * dx
    pre = np.exp(-1j * (p_grid.lo * dx * m + 0.5 * alpha * m * m) / hb)
    pre[0] *= 0.5
    k = np.arange(n_p)
    post = np.exp(-0.5j * alpha * k * k / hb)
    n_fft = 1 << (m_top + n_p - 1).bit_length()
    chirp = np.zeros(n_fft, dtype=complex)
    lags = np.arange(-m_top, n_p)
    chirp[lags] = np.exp(0.5j * alpha * lags * lags / hb)
    chirp_f = np.fft.fft(chirp)
    values = np.empty((n_p, nq))
    block = max(1, 2**18 // n_fft)
    for j0 in range(0, nq, block):
        chord = plus[j0 : j0 + block] * np.conj(minus[j0 : j0 + block])
        chord *= pre
        buf = np.fft.fft(chord, n_fft)
        buf *= chirp_f
        np.fft.ifft(buf, out=buf)
        values[:, j0 : j0 + block] = (buf[:, :n_p] * post).real.T
    values *= dx / (math.pi * hb)
    return values


def _phase_space_cases():
    """The four strategy shapes of the phase-space benchmark, fixed phases."""
    phases = np.exp(2j * math.pi * np.array([0.1, 0.7, 0.35, 0.9, 0.2, 0.55])) / math.sqrt(6)
    levels = Strategy.superpose([Strategy.hermite(n) for n in range(6)], list(phases))
    cat = Strategy.superpose(
        [Strategy.gaussian(-1.8, 0.5), Strategy.gaussian(2.2, 0.5)], [1.0, 1j]
    )
    sloped = Strategy.gaussian(0.4, 0.8, slope=-1.5)
    table = Grid(-8.0, 8.0, 321)
    sampled = Strategy.sampled(levels.evaluate(table.points), table)
    return {"levels": levels, "cat": cat, "sloped": sloped, "sampled": sampled}


PHASE_SPACE_CASES = _phase_space_cases()
# largest distance from the reference transform measured over these sizes:
# 1.4e-14 (levels), 1.8e-14 (cat), 6.5e-15 (sloped); the sampled table
# 1.5e-9 at 961^2 and 7.8e-9 at 301 x 641, where the chord step grows to
# the node spacing and the kinks of the spline interpolant's third
# derivative alias in the trapezoid sum
ANALYTIC_BOUND = 1e-13
SAMPLED_BOUND = 2e-8


@pytest.mark.parametrize("sizes", [(241, 241), (481, 481), (961, 961), (301, 641), (777, 199)])
@pytest.mark.parametrize("label", sorted(PHASE_SPACE_CASES))
def test_transform_matches_the_reference_with_the_step_tied_to_q(label, sizes):
    s = PHASE_SPACE_CASES[label]
    d0 = wigner_transform(s)
    n_p, nq = sizes
    p_grid = Grid(d0.p_grid.lo, d0.p_grid.hi, n_p)
    q_grid = Grid(d0.q_grid.lo, d0.q_grid.hi, nq)
    d = chirp_z(s, p_grid, q_grid, d0.hbar)
    want = _reference_transform(s, p_grid, q_grid, d.hbar)
    bound = SAMPLED_BOUND if label == "sampled" else ANALYTIC_BOUND
    assert np.max(np.abs(d.values - want)) <= bound


# largest distance from the chirp-z measured over these sizes: 1.1e-14
# (levels), 1.7e-14 (cat), 6.4e-15 (sloped)
@pytest.mark.parametrize("sizes", [(241, 241), (481, 481), (961, 961), (301, 641), (777, 199)])
@pytest.mark.parametrize("label", ["cat", "levels", "sloped"])
def test_closed_forms_match_the_chirp_z(label, sizes):
    s = PHASE_SPACE_CASES[label]
    d0 = wigner_transform(s)
    n_p, nq = sizes
    p_grid = Grid(d0.p_grid.lo, d0.p_grid.hi, n_p)
    q_grid = Grid(d0.q_grid.lo, d0.q_grid.hi, nq)
    d = wigner_transform(s, p_grid, q_grid)
    assert np.max(np.abs(d.values - chirp_z(s, p_grid, q_grid, d0.hbar).values)) <= ANALYTIC_BOUND


def _unpaired_transform(s, p_grid, q_grid, hb):
    # the transform as it stood with one q row per chirp-z: chords over
    # x >= 0 only, the real part doubled, an FFT of m_top + n_p points
    r = _chord_ratio(s, p_grid, q_grid, hb)
    h, nq, n_p = q_grid.spacing, q_grid.n, p_grid.n
    dx = 2.0 * h / r
    m_top = math.ceil((nq - 1) * r / 2)
    half_grid = q_grid.lo + np.arange(-m_top, (nq - 1) * r + m_top + 1) * (h / r)
    windows = np.lib.stride_tricks.sliding_window_view(s.evaluate(half_grid), m_top + 1)
    plus = windows[m_top::r]
    minus = windows[::r][:nq, ::-1]
    m = np.arange(m_top + 1)
    alpha = p_grid.spacing * dx
    pre = np.exp(-1j * (p_grid.lo * dx * m + 0.5 * alpha * m * m) / hb)
    pre[0] *= 0.5
    k = np.arange(n_p)
    post = np.exp(-0.5j * alpha * k * k / hb) * (dx / (math.pi * hb))
    n_fft = _smooth_length(m_top + n_p)
    chirp = np.zeros(n_fft, dtype=complex)
    lags = np.arange(-m_top, n_p)
    chirp[lags] = np.exp(0.5j * alpha * lags * lags / hb)
    chirp_f = np.fft.fft(chirp)
    values = np.empty((nq, n_p))
    block = min(nq, max(1, 2**18 // n_fft))
    for j0 in range(0, nq, block):
        buf = np.fft.fft(np.conj(minus[j0 : j0 + block]) * plus[j0 : j0 + block] * pre, n_fft)
        buf *= chirp_f
        np.fft.ifft(buf, out=buf)
        values[j0 : j0 + block] = (buf[:, :n_p] * post).real
    return values.T


# odd and even nq, square and unequal sides, r = 1 and r >= 2
PAIRED_SIZES = [
    (8, 8), (9, 8), (8, 9), (64, 64), (100, 33), (241, 240), (777, 199), (240, 962), (961, 961)
]
# largest distance from the unpaired transform measured over these sizes:
# 1.4e-14 (levels), 2.1e-14 (cat), 8.5e-15 (sloped), 5.5e-15 (sampled);
# both transforms read psi at the same points, so one bound serves all four
PAIRED_BOUND = 1e-13


@pytest.mark.parametrize("label", sorted(PHASE_SPACE_CASES))
def test_two_rows_per_fft_match_the_unpaired_transform(label):
    s = PHASE_SPACE_CASES[label]
    d0 = wigner_transform(s)
    kinds = set()
    for n_p, nq in PAIRED_SIZES:
        p_grid = Grid(d0.p_grid.lo, d0.p_grid.hi, n_p)
        q_grid = Grid(d0.q_grid.lo, d0.q_grid.hi, nq)
        kinds.add((_chord_ratio(s, p_grid, q_grid, d0.hbar) == 1, nq % 2))
        d = chirp_z(s, p_grid, q_grid, d0.hbar)
        want = _unpaired_transform(s, p_grid, q_grid, d.hbar)
        assert np.max(np.abs(d.values - want)) <= PAIRED_BOUND
    assert kinds == {(True, 0), (True, 1), (False, 0), (False, 1)}


def test_densities_take_over_a_fresh_array_and_the_constructor_copies():
    risk = UNIT_RISK
    g = Grid(-4.0, 4.0, 33)
    made = [
        wigner_transform(Strategy.hermite(2), g, g),
        coherent_wigner(CoherentParams(r=0.3, eta=1.0), p_grid=g, q_grid=g),
        excited_wigner(2, risk, g, g),
        thermal_wigner(1.0, risk, g, g),
        thermal_wigner(1.0, risk, g, g, mode="series"),
    ]
    for d in made:
        # nothing else holds the array, and nothing can write to it
        assert d.values.base is None
        assert d.values.flags.c_contiguous and not d.values.flags.writeable
    arr = np.ascontiguousarray(made[0].values.T)
    for given in (arr, arr.T, arr.astype(np.float32)):
        d = PhaseSpaceDensity(given, g, g, 1.0)
        assert not np.shares_memory(d.values, arr)
        assert d.values.flags.c_contiguous and not d.values.flags.writeable
        assert np.array_equal(d.values, given)
    assert arr.flags.writeable
    # a read-only array that owns its memory is taken over as it is
    frozen = arr.copy()
    frozen.setflags(write=False)
    assert PhaseSpaceDensity(frozen, g, g, 1.0).values is frozen


@pytest.mark.parametrize("label", sorted(PHASE_SPACE_CASES))
def test_default_curve_slices_are_the_moment_means(label):
    # the slices come from the marginals; they must be moments()'s means, bit for bit, snapped to the grid
    d0 = wigner_transform(PHASE_SPACE_CASES[label])
    grid = lambda g: Grid(g.lo, g.hi, 481)
    d = wigner_transform(PHASE_SPACE_CASES[label], grid(d0.p_grid), grid(d0.q_grid))
    assert d._marginals()[2] == d.mass()
    m = d.moments()
    snap = lambda g, x: float(g.points[min(max(round((x - g.lo) / g.spacing), 0), g.n - 1)])
    got = dominant_curves(d)
    assert (got.p_slice, got.q_slice) == (snap(d.p_grid, m.p_mean), snap(d.q_grid, m.q_mean))
    assert abs(got.p_slice - m.p_mean) <= 0.5 * d.p_grid.spacing
    assert abs(got.q_slice - m.q_mean) <= 0.5 * d.q_grid.spacing


def _normal_pdf(x, mean, std):
    return np.exp(-0.5 * ((x - mean) / std) ** 2) / (std * math.sqrt(2.0 * math.pi))


def _marginal_case(family, coeffs, packet, n_table, n_p, nq):
    """(strategy, p grid, q grid, |psi|^2 on q, |psi~|^2 on p, bound), hbar = 1.

    levels: sum_n c_n phi_n, whose dual is sum_n c_n (-i)^n phi_n; sloped:
    one gaussian packet; mixed: that packet plus one 0.6 times as wide,
    which no closed form takes; sampled: the levels up to n = 2 tabulated
    on n_table nodes.
    """
    if family == "mixed":
        center, width, slope = packet
        packets = [(center, width, slope), (-0.5 * center, 0.6 * width, -0.5 * slope)]
        c = [complex(*coeffs[0]), complex(*(coeffs[1:] or [(0.5, 0.0)])[0])]
        q_grid = Grid(min(a - 8.0 * w for a, w, _ in packets), max(a + 8.0 * w for a, w, _ in packets), nq)
        p_grid = Grid(min(k - 4.0 / w for _, w, k in packets), max(k + 4.0 / w for _, w, k in packets), n_p)
        s = Strategy.superpose([Strategy.gaussian(*packet) for packet in packets], c)
        # each packet's dual, (2 w^2 / pi)^(1/4) exp(-w^2 (p - k)^2 - i (p - k) a) at hbar = 1
        dual = sum(
            cn * (2.0 * w * w / math.pi) ** 0.25 * np.exp(-((w * (p_grid.points - k)) ** 2) - 1j * (p_grid.points - k) * a)
            for cn, (a, w, k) in zip(c, packets)
        )
        return s, p_grid, q_grid, np.abs(s.evaluate(q_grid.points)) ** 2, np.abs(dual) ** 2, ANALYTIC_MARGINAL_BOUND
    if family == "sloped":
        center, width, slope = packet
        spread = 0.5 / width
        q_grid = Grid(center - 8.0 * width, center + 8.0 * width, nq)
        p_grid = Grid(slope - 8.0 * spread, slope + 8.0 * spread, n_p)
        s = Strategy.gaussian(center, width, slope=slope)
        return (
            s, p_grid, q_grid, _normal_pdf(q_grid.points, center, width),
            _normal_pdf(p_grid.points, slope, spread), ANALYTIC_MARGINAL_BOUND,
        )
    if family == "sampled":
        coeffs = coeffs[:3]
    c = np.array([complex(re, im) for re, im in coeffs])
    c /= np.linalg.norm(c)
    half = 8.0 * math.sqrt(len(c) - 0.5)  # eight spreads of the top level
    q_grid, p_grid = Grid(-half, half, nq), Grid(-half, half, n_p)
    q, p = q_grid.points, p_grid.points
    s = Strategy.superpose([Strategy.hermite(n) for n in range(len(c))], list(c))
    dens_p = np.abs(sum(cn * (-1j) ** n * hermite_function(n, p) for n, cn in enumerate(c))) ** 2
    if family == "levels":
        return s, p_grid, q_grid, np.abs(s.evaluate(q)) ** 2, dens_p, ANALYTIC_MARGINAL_BOUND
    table = Grid(-half, half, n_table)
    s = Strategy.sampled(s.evaluate(table.points), table)
    # q side: the interpolant itself; p side: the dual of the tabulated levels
    return s, p_grid, q_grid, np.abs(s.evaluate(q)) ** 2, dens_p, SAMPLED_MARGINAL_BOUND


# largest marginal error measured over the drawn cases (levels up to n = 5,
# 97 to 400 points a side): 6.8e-15 for the analytic forms, 1.7e-14 for the
# mixed widths (400 draws, through the chirp-z); 4.2e-7 for
# the sampled tables (levels up to n = 2 on 321 to 641 nodes), where the
# spline interpolant's slowly decaying dual reaches past the p grid
ANALYTIC_MARGINAL_BOUND = 1e-13
SAMPLED_MARGINAL_BOUND = 1e-6

# both step rules (r = 1, the q grid itself, and r >= 2) meet both FFT
# lengths (a power of two, and a 5-smooth length short of one), on forms
# that the chirp-z computes: mixed widths and sampled tables
_EXAMPLE_COEFFS = [(0.6, 0.1), (0.0, -0.5), (0.3, 0.4)]
MARGINAL_EXAMPLES = [
    ("mixed", _EXAMPLE_COEFFS, (0.2, 1.0, 0.5), 321, 97, 163),
    ("mixed", _EXAMPLE_COEFFS, (0.2, 1.0, 0.5), 321, 111, 394),
    ("sampled", _EXAMPLE_COEFFS, (0.2, 1.0, 0.5), 321, 97, 97),
    ("sampled", _EXAMPLE_COEFFS, (0.2, 1.0, 0.5), 321, 97, 306),
]


def _with_examples(test):
    for family, coeffs, packet, n_table, n_p, nq in MARGINAL_EXAMPLES:
        test = example(
            family=family, coeffs=coeffs, packet=packet, n_table=n_table, n_p=n_p, nq=nq
        )(test)
    return test


def _plan(case):
    s, p_grid, q_grid = case[:3]
    r = _chord_ratio(s, p_grid, q_grid, 1.0)
    # the chirp-z sums chords over m = -m_top..m_top against n_p outputs
    return r, _smooth_length(2 * math.ceil((q_grid.n - 1) * r / 2) + p_grid.n)


def test_fft_length_is_the_least_5_smooth_bound():
    def smooth(m):
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        return m == 1

    for n in range(1, 5000):
        want = next(m for m in itertools.count(n) if smooth(m))
        assert _smooth_length(n) == want


def test_marginal_examples_reach_both_step_rules_and_both_fft_lengths():
    cases = [_marginal_case(*example) for example in MARGINAL_EXAMPLES]
    for s, p_grid, q_grid, *_ in cases:
        assert _closed_form(s.form, p_grid, q_grid, 1.0) is None  # each example reaches the chirp-z
    kinds = {(r == 1, n_fft & (n_fft - 1) == 0) for r, n_fft in map(_plan, cases)}
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


_coefficient = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@given(
    family=st.sampled_from(["levels", "sloped", "mixed", "sampled"]),
    # a ground-level weight of at least 0.1 keeps every truncation normalizable
    coeffs=st.lists(_coefficient, min_size=1, max_size=6).filter(lambda cs: math.hypot(*cs[0]) > 0.1),
    packet=st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 1.5), st.floats(-3.0, 3.0)),
    n_table=st.integers(321, 641),
    n_p=st.integers(97, 400),
    nq=st.integers(97, 400),
)
@_with_examples
def test_marginals_match_both_price_densities(family, coeffs, packet, n_table, n_p, nq):
    s, p_grid, q_grid, dens_q, dens_p, bound = _marginal_case(
        family, coeffs, packet, n_table, n_p, nq
    )
    d = wigner_transform(s, p_grid, q_grid, hbar=1.0)
    assert np.max(np.abs(d.marginal_q() - dens_q)) <= bound
    assert np.max(np.abs(d.marginal_p() - dens_p)) <= bound


@pytest.mark.parametrize(
    "center, width, slope, p_grid",
    [(0.3, 1.0, 1e5, Grid(1e5 - 4.0, 1e5 + 4.0, 241)), (0.0, 1e30, 0.0, Grid(-4e-30, 4e-30, 241))],
    ids=["slope-1e5", "width-1e30"],
)
def test_gaussians_past_the_chord_cap_compute_in_closed_form(center, width, slope, p_grid):
    s = Strategy.gaussian(center, width, slope)
    d = wigner_transform(s)
    # on the default grids the chirp-z's chord step needs more than 2^21 psi points
    with pytest.raises(ParameterRangeError, match="psi points"):
        _chirp_z(s, d.p_grid, d.q_grid, d.hbar)
    # a p grid across the p spread (the default one is at least 1e-6 wide)
    d = wigner_transform(s, p_grid, d.q_grid)
    dens_q = _normal_pdf(d.q_grid.points, center, width)
    dens_p = _normal_pdf(p_grid.points, slope, 0.5 / width)  # hbar slope, spread hbar / (2 width)
    assert np.max(np.abs(d.marginal_q() - dens_q)) <= 1e-10 * dens_q.max()
    assert np.max(np.abs(d.marginal_p() - dens_p)) <= 1e-10 * dens_p.max()


def _forbid_evaluate(monkeypatch):
    def evaluate(self, x):
        raise AssertionError("the closed form evaluated psi")

    monkeypatch.setattr(Strategy, "evaluate", evaluate)


@pytest.mark.parametrize("label", ["cat", "levels", "sloped"])
def test_analytic_forms_take_the_closed_form_without_evaluating_psi(monkeypatch, label):
    s = PHASE_SPACE_CASES[label]
    d0 = wigner_transform(s)
    _forbid_evaluate(monkeypatch)
    d = wigner_transform(s, d0.p_grid, d0.q_grid)
    assert np.array_equal(d.values, d0.values)
    # a nested superposition (a dual's phase wrapper) flattens into the same leaves
    nested = Strategy.superpose([s, Strategy.superpose([s], [0.5j])], [1.0, 1.0])
    assert np.max(np.abs(wigner_transform(nested, d0.p_grid, d0.q_grid).values
                         - abs(1 + 0.5j) ** 2 * d0.values)) <= ANALYTIC_BOUND


@pytest.mark.parametrize(
    "s",
    [
        PHASE_SPACE_CASES["sampled"],
        Strategy.superpose([Strategy.gaussian(-1, 0.5), Strategy.gaussian(1, 0.6)], [1, 1]),
        Strategy.superpose([Strategy.gaussian(0, 1 / math.sqrt(2)), Strategy.hermite(1)], [1, 1j]),
        Strategy.superpose([Strategy.hermite(1), Strategy.hermite(2, RiskParams(1.0, 3.0))], [1, 1]),
        Strategy.superpose([Strategy.gaussian(0.1 * k, 0.5) for k in range(9)], [1] * 9),
        Strategy.hermite(32),
        Strategy.superpose([Strategy.superpose([Strategy.gaussian(0, 1)], [1e-200])], [1e-200]),
    ],
    ids=["sampled", "two-widths", "gaussian-and-level", "two-length-scales", "nine-gaussians", "level-32",
         "coefficient-underflows"],
)
def test_other_forms_keep_the_chirp_z(monkeypatch, s):
    g = Grid(-6.0, 6.0, 33)
    assert _closed_form(s.form, g, g, 1.0) is None
    want = chirp_z(s, g, g).values
    _forbid_evaluate(monkeypatch)
    with pytest.raises(AssertionError, match="evaluated psi"):
        wigner_transform(s, g, g, hbar=1.0)
    monkeypatch.undo()
    assert np.array_equal(wigner_transform(s, g, g, hbar=1.0).values, want)


_complex = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(lambda c: abs(c) > 0.05)


@st.composite
def _one_width_packets(draw):
    n = draw(st.integers(1, 5))
    width = draw(st.floats(0.3, 2.0))
    parts = [Strategy.gaussian(draw(st.floats(-3.0, 3.0)), width, draw(st.floats(-3.0, 3.0))) for _ in range(n)]
    return Strategy.superpose(parts, [draw(_complex) for _ in range(n)]), draw(st.floats(0.3, 3.0))


@st.composite
def _levels_of_one_risk(draw):
    risk = RiskParams(draw(st.floats(0.5, 2.0)), draw(st.floats(3.0, 12.0)), draw(st.floats(0.5, 2.0)))
    levels = draw(st.lists(st.integers(0, 7), min_size=1, max_size=5))
    parts = [Strategy.hermite(n, risk) for n in levels]
    # hbar drawn apart from risk.hbar_eff: the ladder in p is read at any hbar
    return Strategy.superpose(parts, [draw(_complex) for _ in levels]), draw(st.floats(0.3, 3.0))


@given(
    case=st.one_of(_one_width_packets(), _levels_of_one_risk()),
    n_p=st.integers(16, 160),
    nq=st.integers(16, 160),
    widen=st.floats(1.0, 1.5),
)
def test_closed_forms_match_the_chirp_z_on_drawn_grids(case, n_p, nq, widen):
    s, hb = case
    q_lo, q_hi = s.support_bounds()
    p_lo, p_hi = s.dual(hb).support_bounds()
    q_grid, p_grid = Grid(widen * q_lo, widen * q_hi, nq), Grid(widen * p_lo, widen * p_hi, n_p)
    closed = _closed_form(s.form, p_grid, q_grid, hb)
    want = _chirp_z(s, p_grid, q_grid, hb)
    # |W| <= ||psi||^2 / (pi hbar), the scale of the chirp-z's rounding; the largest
    # |W| on a coarse grid can sit far below it (6e-4 against 0.079 on 16 points)
    peak = strategy_norm(s) ** 2 / (math.pi * hb)
    assert np.max(np.abs(closed - want)) <= 1e-13 * peak


_extreme = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e308, max_value=1e308)


@given(
    centers=st.lists(_extreme, min_size=1, max_size=3),
    slope=_extreme,
    width=st.floats(1e-150, 1e150),
    coefficient=st.builds(complex, _extreme, _extreme).filter(lambda c: c != 0),
    level=st.integers(0, 31),
    hb=st.floats(5e-324, 1e308),
    ends=st.tuples(_extreme, _extreme).filter(lambda e: e[0] < e[1]),
)
# a grid whose span overflows: its points are not finite
@example(centers=[0.0], slope=0.0, width=1.0, coefficient=1j, level=0, hb=1.0, ends=(-1e308, 8e307))
def test_closed_forms_at_the_ends_of_the_doubles_are_finite_or_declined(
    centers, slope, width, coefficient, level, hb, ends
):
    # a closed form whose factors leave the doubles goes to the chirp-z, which refuses or computes
    g = Grid(ends[0], ends[1], 16)
    packets = [Strategy.gaussian(c, width, slope) for c in centers]
    risk = RiskParams(hbar_e=1.0, theta=2.0 * math.pi)
    for s in (Strategy.superpose(packets, [coefficient] * len(packets)),
              Strategy.superpose([Strategy.hermite(level, risk)], [coefficient])):
        values = _closed_form(s.form, g, g, hb)
        assert values is None or np.all(np.isfinite(values))
