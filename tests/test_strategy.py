import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qmg.clearing import clear_round, pair_execution_frequency
from qmg.errors import (
    ContractViolationError,
    DegenerateStateError,
    ImproperStateError,
    ParameterRangeError,
    RepresentationError,
)
from qmg.numerics import BLOCK, Grid, RandomSource, fourier_p_to_q, fourier_q_to_p, integrate
from qmg.strategy import (
    DistributionTable,
    GaussianForm,
    MarketState,
    Representation,
    RiskParams,
    SampledForm,
    Strategy,
    SuperposedForm,
    UNIT_RISK,
    buy_probability,
    hermite_function,
    moments,
    norm,
    normalize,
    parse_strategy,
    sample,
    sell_probability,
    to_demand_rep,
    to_supply_rep,
)
from qmg.wigner import wigner_transform

PHI_1 = 0.8413447460685429  # standard normal CDF at 1


def test_risk_params_derived_quantities():
    rp = RiskParams(hbar_e=1.0, theta=2.0)
    assert rp.omega == pytest.approx(math.pi)
    assert rp.h_e == pytest.approx(2 * math.pi)
    assert rp.hbar_eff == 1.0
    rp2 = RiskParams(hbar_e=1.0, theta=1.0, theta_nc=0.75)
    assert rp2.hbar_eff == 1.25


def test_risk_params_validation():
    with pytest.raises(ParameterRangeError):
        RiskParams(hbar_e=0.0, theta=1.0)
    with pytest.raises(ParameterRangeError):
        RiskParams(hbar_e=1.0, theta=-1.0)
    with pytest.raises(ParameterRangeError):
        RiskParams(hbar_e=1.0, theta=1.0, theta_nc=-0.1)
    for bad in ({"hbar_e": math.nan}, {"theta": math.inf}, {"m": math.inf}, {"theta_nc": math.nan}):
        with pytest.raises(ParameterRangeError):
            RiskParams(**{"hbar_e": 1.0, "theta": 1.0, **bad})


def test_gaussian_is_normalized_with_width_as_std():
    s = Strategy.gaussian(0.7, 0.4)
    assert norm(s) == pytest.approx(1.0, abs=1e-12)
    mean, std = moments(s)
    assert mean == pytest.approx(0.7, abs=1e-12)
    assert std == pytest.approx(0.4, abs=1e-10)


def test_hermite_levels_orthonormal():
    g = Grid(-10.0, 10.0, 2001)
    for m in range(4):
        for n in range(4):
            hm = hermite_function(m, g.points)
            hn = hermite_function(n, g.points)
            val = integrate(hm * hn, g)
            assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-10)


def test_hermite_length_scale():
    rp = RiskParams.from_omega(1.0, 4.0)
    s = Strategy.hermite(0, rp)
    _, std = moments(s)
    # ground state std = sqrt(hbar / (2 m omega))
    assert std == pytest.approx(math.sqrt(1.0 / 8.0), abs=1e-9)


def test_buy_probability_matches_normal_cdf():
    # P(q <= ln c) for a unit gaussian demand strategy
    s = Strategy.gaussian(0.0, 1.0)
    assert buy_probability(s, 1.0) == pytest.approx(PHI_1, abs=1e-6)
    assert buy_probability(s, 0.0) == pytest.approx(0.5, abs=1e-9)


def test_buy_probability_requires_demand_rep():
    sup = Strategy.gaussian(0.0, 1.0, rep=Representation.SUPPLY)
    with pytest.raises(RepresentationError):
        buy_probability(sup, 0.0)


def test_sell_probability_of_self_dual_state():
    # width 1/sqrt(2) demand gaussian has the same supply density;
    # P(sell at log price ln c) = P(p <= -ln c)
    s = Strategy.gaussian(0.0, 1.0 / math.sqrt(2.0))
    assert sell_probability(s, 0.0) == pytest.approx(0.5, abs=1e-8)
    p = sell_probability(s, 1.0)  # z = -1 / (1/sqrt 2)
    from scipy.special import ndtr

    assert p == pytest.approx(float(ndtr(-math.sqrt(2.0))), abs=1e-8)


def test_supply_rep_of_displaced_gaussian():
    # demand gaussian(c, w, slope s) -> supply density normal(hbar s, hbar / 2w)
    s = Strategy.gaussian(1.5, 0.5, slope=-0.8)
    sup = to_supply_rep(s)
    mean, std = moments(sup)
    assert mean == pytest.approx(-0.8, abs=1e-9)
    assert std == pytest.approx(1.0, abs=1e-8)


def test_round_trip_through_representations():
    s = Strategy.gaussian(0.3, 0.9, slope=0.4)
    back = to_demand_rep(to_supply_rep(s))
    g = back.default_grid()  # native grid: no interpolation in the comparison
    a = s.amplitudes_on(g)
    b = back.amplitudes_on(g)
    assert np.max(np.abs(a - b)) < 1e-10


def test_rep_conversion_rejects_existing_rep():
    s = Strategy.gaussian(0.0, 1.0)
    with pytest.raises(RepresentationError):
        to_demand_rep(s)


def test_improper_strategies():
    d = Strategy.delta(0.25)
    assert d.is_improper
    assert buy_probability(d, 0.3) == 1.0
    assert buy_probability(d, 0.2) == 0.0
    with pytest.raises(ImproperStateError):
        to_supply_rep(d)


def test_discrete_strategy_probabilities():
    s = Strategy.discrete([-0.5, 0.5], [1.0, 3.0])
    assert s.is_improper
    assert buy_probability(s, 0.0) == pytest.approx(0.25)
    assert buy_probability(s, 1.0) == pytest.approx(1.0)


_DISCRETE = st.lists(
    st.tuples(st.floats(-50.0, 50.0), st.floats(1e-3, 1e3)), min_size=1, max_size=8
).map(lambda pairs: Strategy.discrete([a for a, _ in pairs], [w for _, w in pairs]))
_GAUSSIAN = st.builds(Strategy.gaussian, st.floats(-5.0, 5.0), st.floats(0.05, 5.0), st.floats(-5.0, 5.0))
_HERMITE = st.builds(Strategy.hermite, st.integers(0, 40))


def _superposed_of(*kinds):
    @st.composite
    def superposed(draw):
        parts = draw(st.lists(st.one_of(*kinds), min_size=2, max_size=4))
        phases = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=len(parts), max_size=len(parts)))
        moduli = draw(st.lists(st.floats(0.1, 1.0), min_size=len(parts), max_size=len(parts)))
        return Strategy.superpose(parts, [r * np.exp(1j * a) for r, a in zip(moduli, phases)])

    return superposed()


@st.composite
def _sampled(draw):
    # a Gaussian envelope with a random wobble, tabulated on a grid of its own
    lo = draw(st.floats(-10.0, 2.0))
    grid = Grid(lo, lo + draw(st.floats(1.0, 12.0)), draw(st.integers(8, 300)))
    centre = draw(st.floats(grid.lo, grid.hi))
    width = draw(st.floats(0.05, 3.0)) * (grid.hi - grid.lo)
    wobble = draw(st.lists(st.floats(0.0, 1.0), min_size=grid.n, max_size=grid.n))
    amps = np.exp(-((grid.points - centre) / width) ** 2) * (0.5 + np.array(wobble))
    return Strategy.sampled(amps * np.exp(1j * grid.points), grid)


_CONTINUOUS = st.one_of(_GAUSSIAN, _HERMITE, _superposed_of(_GAUSSIAN, _HERMITE))


def _check_cdf(s, inclusive):
    if s.is_improper:
        lo, hi = min(s.form.atoms), max(s.form.atoms)
        atoms = np.array(s.form.atoms)
        probes = np.concatenate([atoms, np.nextafter(atoms, -np.inf), np.nextafter(atoms, np.inf)])
        slack = 0.0
    else:
        lo, hi = s.support_bounds()
        probes = np.array([])
        # the spline's antiderivative rounds: measured dips of at most 2.2e-16 near 1
        slack = 4 * np.finfo(float).eps
    x = np.sort(np.concatenate([probes, np.linspace(lo - 1.0, hi + 1.0, 4001)]))
    c = s.cdf(x, inclusive)
    assert np.all((c >= 0.0) & (c <= 1.0))
    assert np.all(np.diff(c) >= -slack)
    assert np.all(s.cdf(x[x < lo], inclusive) == 0.0)
    assert np.all(s.cdf(x[x > hi], inclusive) == 1.0)


@given(s=st.one_of(_DISCRETE, _CONTINUOUS), inclusive=st.booleans())
def test_cdf_is_monotone_within_0_and_1_and_reaches_both(s, inclusive):
    _check_cdf(s, inclusive)


@given(s=_sampled(), inclusive=st.booleans())
def test_sampled_cdf_is_monotone_within_0_and_1_and_reaches_both(s, inclusive):
    _check_cdf(s, inclusive)


@given(s=_sampled(), offset=st.floats(0.0, 1.0))
def test_a_sampled_density_is_the_squared_modulus_of_its_amplitudes(s, offset):
    # one interpolant: the table reads |evaluate|^2, between the nodes too
    g = s.form.grid
    x = np.clip(g.points + offset * g.spacing, g.lo, g.hi)
    dens = np.abs(s.evaluate(x)) ** 2 / s.table._mass
    assert np.allclose(s.table.pdf(x), dens, rtol=1e-13, atol=1e-15 * dens.max())


@given(s=_sampled())
def test_a_sampled_norm_is_the_root_of_its_table_mass(s):
    assert norm(s) ** 2 == pytest.approx(s.table._mass, rel=1e-14)
    assert norm(normalize(s)) == pytest.approx(1.0, abs=1e-14)


@given(s=st.one_of(_CONTINUOUS, _superposed_of(_GAUSSIAN, _HERMITE, _sampled()), _sampled()))
@example(s=Strategy.gaussian(0.3, 0.8, 1.5))
def test_the_norm_of_every_form_is_the_root_of_its_table_mass(s):
    assert norm(s) == math.sqrt(s.table._mass)


def test_norm_and_moments_refuse_a_table_that_the_cdf_refuses():
    # the 2048 nodes over 1e10 +- 8 round by more than 2^-22 of their spacing
    s = Strategy.gaussian(1e10, 1.0)
    for read in (norm, moments, lambda s: s.cdf(1e10)):
        with pytest.raises(ParameterRangeError, match="too far from 0"):
            read(s)


@pytest.mark.parametrize(
    "make",
    [lambda: Strategy.gaussian(0.3, 0.8), lambda: Strategy.sampled(np.exp(-np.linspace(-6, 6, 97) ** 2 / 4), Grid(-6, 6, 97))],
    ids=["gaussian", "sampled"],
)
def test_the_node_check_runs_once_per_grid(monkeypatch, make):
    # the table checks its grid, and its spline checks the same grid again
    checked = []
    test = Grid._nodes_round_finely.func

    def counted(grid):
        checked.append(grid)
        return test(grid)

    prop = functools.cached_property(counted)
    prop.__set_name__(Grid, "_nodes_round_finely")
    monkeypatch.setattr(Grid, "_nodes_round_finely", prop)
    s = make()
    norm(s), moments(s), s.cdf(0.1), s.table.pdf(0.1)
    assert len(checked) == 1 and checked[0] is s.table.grid
    # a refused table is built again on every read, each time on a fresh grid tested once
    far = Strategy.gaussian(1e10, 1.0)
    for read in (norm, moments, lambda s: s.cdf(1e10)):
        with pytest.raises(ParameterRangeError, match="too far from 0"):
            read(far)
    assert len(checked) == 4 and len({id(g) for g in checked}) == 4


def test_norm_moments_and_cdf_evaluate_the_strategy_once(monkeypatch):
    points = []
    evaluate = Strategy.evaluate
    monkeypatch.setattr(Strategy, "evaluate", lambda s, x: points.append(np.size(x)) or evaluate(s, x))
    s = Strategy.superpose([Strategy.hermite(k) for k in range(4)], [1.0, 0.5j, -0.3, 0.2])
    norm(s), moments(s), s.cdf(np.linspace(-3.0, 3.0, 7))
    assert points == [2048]


def test_moments_build_no_spline_and_norm_builds_one(monkeypatch):
    import qmg.strategy as strategy_module

    built = []

    class CountingSpline(strategy_module.Spline):
        def __init__(self, grid, values):
            built.append(grid.n)
            super().__init__(grid, values)

    monkeypatch.setattr(strategy_module, "Spline", CountingSpline)
    s = Strategy.superpose([Strategy.hermite(k) for k in range(4)], [1.0, 0.5j, -0.3, 0.2])
    moments(s)
    assert built == []
    norm(s), s.cdf(0.0)
    assert built == [2048]


@given(c=st.floats(-200.0, 200.0), k=st.floats(-50.0, 50.0))
def test_a_sampled_gaussian_round_trips_through_both_duals(c, k):
    g = Grid(c - 64.0, c + 64.0, 8192)
    s = Strategy.sampled(Strategy.gaussian(c, 1.0, k).evaluate(g.points), g)
    back = to_demand_rep(to_supply_rep(s))
    assert isinstance(back.form, SampledForm)
    # both sides read a cubic spline between their nodes, and the source's
    # spline of exp(i k x) errs by up to 5/384 (k dx)^4 of the peak
    x = np.linspace(c - 60.0, c + 60.0, 4001)
    peak = (2.0 * math.pi) ** -0.25
    bound = 5.0 / 384.0 * ((abs(k) + 2.0) * g.spacing) ** 4 * peak + 1e-9
    assert np.max(np.abs(back.evaluate(x) - s.evaluate(x))) <= bound


def test_the_dual_of_a_dual_of_an_off_centre_table_returns_to_it():
    g = Grid(2.0, 10.0, 256)
    s = Strategy.sampled(Strategy.gaussian(6.0, 0.5).evaluate(g.points), g)
    back = to_demand_rep(to_supply_rep(s))
    mean, std = moments(back)
    assert abs(mean - 6.0) < 1e-6 and abs(std - 0.5) < 1e-6
    assert buy_probability(back, 6.0) == pytest.approx(0.5, abs=1e-6)


def test_the_dual_of_a_table_far_from_0_is_smooth_between_its_nodes():
    # the source's centre is the dual's slope, not a phase its samples turn by
    g = Grid(50.0 - 64.0, 50.0 + 64.0, 8192)
    dual = to_supply_rep(Strategy.sampled(Strategy.gaussian(50.0, 1.0).evaluate(g.points), g))
    assert dual.form.slope == -50.0
    dg = dual.form.grid
    y = dg.points[:-1] + 0.37 * dg.spacing
    exact = np.abs(Strategy.gaussian(0.0, 0.5).evaluate(y)) ** 2
    assert np.max(np.abs(np.abs(dual.evaluate(y)) ** 2 - exact)) < 1e-6


def test_a_sampled_table_whose_squares_overflow_is_refused():
    with pytest.raises(ParameterRangeError, match="sum past the doubles"):
        Strategy.sampled(np.full(16, 1e160), Grid(0.0, 1.5, 16))


def test_a_table_far_from_0_for_its_spacing_is_refused():
    # the default grid's nodes round by 1.6e-2 of their spacing at 1e12; the CDF read 0.8413440
    with pytest.raises(ParameterRangeError, match="too far from 0"):
        buy_probability(Strategy.gaussian(1e12, 1.0), 1e12 + 1.0)
    assert buy_probability(Strategy.gaussian(1e6, 1.0), 1e6 + 1.0) == pytest.approx(PHI_1, abs=1e-9)


def test_superpose_requires_matching_rep():
    a = Strategy.hermite(0)
    b = to_supply_rep(Strategy.hermite(1))
    with pytest.raises(RepresentationError):
        Strategy.superpose([a, b], [1.0, 1.0])


def test_superpose_rejects_improper_parts():
    with pytest.raises(ImproperStateError):
        Strategy.superpose([Strategy.hermite(0), Strategy.delta(0.0)], [1.0, 1.0])


def test_normalize_superposition():
    s = Strategy.superpose([Strategy.hermite(0), Strategy.hermite(1)], [3.0, 4.0])
    assert norm(s) == pytest.approx(5.0, abs=1e-9)  # orthonormal parts
    assert norm(normalize(s)) == pytest.approx(1.0, abs=1e-9)


def test_normalize_zero_state_fails():
    # a table with no norm is refused where it is built, before normalize could divide by 0
    g = Grid(-1.0, 1.0, 64)
    with pytest.raises(DegenerateStateError):
        Strategy.sampled(np.zeros(64), g)


def test_sampling_matches_density():
    s = Strategy.gaussian(0.2, 0.7)
    draws = sample(s, RandomSource(5), 200_000)
    assert draws.mean() == pytest.approx(0.2, abs=0.01)
    assert draws.std() == pytest.approx(0.7, abs=0.01)


def test_sampling_hermite_inverse_cdf():
    s = Strategy.hermite(1)
    draws = sample(s, RandomSource(9), 100_000)
    # level 1 densities are symmetric with variance 3/2
    assert draws.mean() == pytest.approx(0.0, abs=0.02)
    assert draws.var() == pytest.approx(1.5, abs=0.03)


def test_sampling_agrees_with_buy_and_sell_probability():
    s = normalize(Strategy.superpose([Strategy.hermite(0), Strategy.hermite(2)], [1.0, 0.8j]))
    n = 40_000
    q = sample(s, RandomSource(3), n)
    p = sample(s, RandomSource(4), n, rep=Representation.SUPPLY)
    # selling at ln c means p <= -ln c, so P(-p <= x) = 1 - sell_probability
    for x in (-1.2, 0.0, 0.5, 1.7):
        for draws, prob in ((q, buy_probability(s, x)), (-p, 1.0 - sell_probability(s, x))):
            se = math.sqrt(prob * (1.0 - prob) / n)
            assert abs(np.mean(draws <= x) - prob) <= 4.0 * se


def test_distribution_table_is_built_once(monkeypatch):
    import qmg.strategy as strategy_module

    built = []

    class CountingTable(strategy_module.DistributionTable):
        def __init__(self, s):
            built.append(s)
            super().__init__(s)

    monkeypatch.setattr(strategy_module, "DistributionTable", CountingTable)
    s = Strategy.hermite(3)
    values = [buy_probability(s, x) for x in np.linspace(-2.0, 2.0, 25)]
    sample(s, RandomSource(0), 10)
    assert built == [s]
    assert np.all(np.diff(values) >= 0)


@given(
    n=st.integers(8, 300),
    zero_runs=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.4)), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_quantile_is_interp_bit_for_bit(n, zero_runs, seed):
    rng = np.random.default_rng(seed)
    g = Grid(-3.0, 3.0, n)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    for start, length in zero_runs:  # flat stretches of the CDF
        i = int(start * n)
        amps[i : i + max(1, int(length * n))] = 0.0
    amps[rng.integers(n)] = 1.0
    table = DistributionTable(Strategy.sampled(amps, g))
    c, x = table._cdf_nodes, g.points
    special = np.concatenate([c, [0.0, np.nextafter(1.0, 0.0), 1.0 - 1e-12, 0.5]])
    for size in (n // 2, 4 * n):  # below and above one draw per node
        u = np.where(rng.random(size) < 0.5, rng.uniform(0.0, 1.0, size), rng.choice(special, size))
        got = table.quantile(u)
        assert np.array_equal(got.view(np.uint64), np.interp(u, c, x).view(np.uint64))


@pytest.mark.parametrize("size", [2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 7])
def test_quantile_blocks_are_interp_bit_for_bit(size):
    assert BLOCK == 2**15
    table = DistributionTable(Strategy.hermite(2))
    c, x = table._cdf_nodes, table.grid.points
    u = np.random.default_rng(size).random(size)
    u[: len(c)] = c  # draws on the nodes themselves
    u[-3:] = [0.0, np.nextafter(1.0, 0.0), 1.0]
    got = table.quantile(u)
    assert np.array_equal(got.view(np.uint64), np.interp(u, c, x).view(np.uint64))


def test_sample_draws_the_uniform_stream():
    # rng.random(size) is rng.uniform(0.0, 1.0, size): the same bits and stream position
    s = Strategy.hermite(1)
    gen_a, gen_b = RandomSource(9).rng, RandomSource(9).rng
    got = sample(s, gen_a, 5000)
    want = s.table.quantile(gen_b.uniform(0.0, 1.0, 5000))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert gen_a.random() == gen_b.random()


def test_every_read_of_a_source_replays_its_stream():
    src = RandomSource(123)
    assert np.array_equal(src.rng.normal(size=8), src.rng.normal(size=8))
    s = Strategy.superpose([Strategy.hermite(0), Strategy.hermite(1)], [1.0, 0.5j])
    assert np.array_equal(sample(s, src, 64), sample(s, src, 64))
    # a generator continues its stream from one call to the next
    gen = src.rng
    assert not np.array_equal(sample(s, gen, 64), sample(s, gen, 64))
    assert src == RandomSource(np.int64(123)) and type(RandomSource(np.int64(123)).seed) is int


def test_quantile_is_interp_where_a_slope_overflows():
    table = DistributionTable(Strategy.hermite(0))
    c = table._cdf_nodes.copy()
    c[:4] = [0.0, 5e-324, 1e-323, 1.5e-323]  # node gaps far below dx / DBL_MAX
    table._cdf_nodes = c
    u = np.resize(c[:6], 4 * len(c))
    got = table.quantile(u)
    assert np.array_equal(got.view(np.uint64), np.interp(u, c, table.grid.points).view(np.uint64))


def test_sampled_form_on_its_own_nodes_is_its_table():
    g = Grid(-3.0, 3.0, 101)
    amps = np.exp(-g.points**2) * np.exp(0.3j * g.points) + 1e-3 * np.sin(7 * g.points)
    s = Strategy.sampled(amps, g)
    assert np.array_equal(s.evaluate(g.points), s.form.amplitudes)
    assert np.array_equal(s.evaluate(np.linspace(-3.0, 3.0, 101)), s.form.amplitudes)


def test_sampling_delta_and_discrete():
    assert np.all(sample(Strategy.delta(0.4), RandomSource(1), 10) == 0.4)
    draws = sample(Strategy.discrete([0.0, 1.0], [1.0, 1.0]), RandomSource(2), 40_000)
    assert draws.mean() == pytest.approx(0.5, abs=0.02)


def test_parse_strategy_literals():
    s = parse_strategy("gaussian(0.5, 1.5, -0.2)")
    mean, std = moments(s)
    assert mean == pytest.approx(0.5, abs=1e-9)
    assert std == pytest.approx(1.5, abs=1e-9)
    h = parse_strategy("hermite(3)")
    assert norm(h) == pytest.approx(1.0, abs=1e-9)
    d = parse_strategy("delta(-0.1)")
    assert d.is_improper
    disc = parse_strategy("discrete(-0.5: 1, 0.5: 3)")
    assert buy_probability(disc, 0.0) == pytest.approx(0.25)


def test_parse_strategy_sampled_csv(tmp_path):
    g = Grid(-8.0, 8.0, 64)
    amp = np.exp(-0.5 * g.points**2)
    path = tmp_path / "amp.csv"
    lines = ["x,re,im"] + [
        f"{float(x)!r},{float(a)!r},0.0" for x, a in zip(g.points, amp)
    ]
    path.write_text("\n".join(lines) + "\n")
    s = parse_strategy(f"sampled(@{path.name})", base_dir=tmp_path)
    mean, _ = moments(normalize(s))
    assert mean == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("width", [1e-300, 1e-160, 5.349e153, 1e154, 1e155, 1e200])
def test_gaussian_width_whose_square_leaves_the_normal_doubles_is_refused(width):
    # the normalization takes (2 pi width^2)^(-1/4) and the exponent divides by
    # 4 width^2; at 1e154 both overflow, and the exponent would read inf/inf
    with pytest.raises(ParameterRangeError, match="squares outside the normal doubles"):
        Strategy.gaussian(0.0, width)


@pytest.mark.parametrize("width", [1.5e-154, 5.348e153])
def test_gaussian_width_at_the_ends_of_the_normal_squares_evaluates(width):
    s = Strategy.gaussian(0.0, width)
    values = s.evaluate(np.array([0.0, width]))
    assert np.isfinite(values).all() and np.all(values != 0.0)


def test_evaluations_past_the_doubles_are_zero_without_a_warning():
    # (x - center)^2 overflows far from the centre, x / length_scale for a tiny scale
    assert np.all(Strategy.gaussian(-1e300, 1.0).evaluate(np.array([0.0, 1.0])) == 0.0)
    values = hermite_function(2, np.array([0.0, 1.0, 1e300]), 1e-160)
    assert np.isfinite(values[0]) and values[0] != 0.0 and np.all(values[1:] == 0.0)


def test_discrete_weights_whose_sum_overflows_are_refused():
    with pytest.raises(ParameterRangeError, match="sum past the doubles"):
        Strategy.discrete([0.0, 1.0], [1.7e308, 1.7e308])


@pytest.mark.parametrize("hbar_e", [1e-200, 1e200])
def test_a_table_at_length_scales_of_1e100_and_1e_minus_100_has_unit_mass(hbar_e):
    # the oscillator length scale is 1e-100 or 1e100: the spline's coefficients
    # never divide by the grid spacing, so nothing overflows
    s = Strategy.hermite(2, RiskParams(hbar_e=hbar_e, theta=2.0 * math.pi))
    assert s.table._mass == pytest.approx(1.0, abs=1e-14)
    lo, hi = s.support_bounds()
    assert s.cdf(np.array([lo, 0.0, hi])) == pytest.approx([0.0, 0.5, 1.0], abs=1e-14)


def test_a_sampled_density_past_the_doubles_is_refused_without_a_warning():
    # |psi|^2 = 1e300 over a width of 2e300 integrates past the doubles: the
    # integral is refused, and nothing warns (RuntimeWarning is an error in this suite)
    s = Strategy.sampled(np.full(64, 1e150), Grid(-1e300, 1e300, 64))
    with pytest.raises(ParameterRangeError, match="no finite integral"):
        s.table


def test_a_table_on_nodes_that_coincide_in_doubles_is_refused():
    # 2048 nodes over 1e15 +- 8 land on 129 distinct doubles
    with pytest.raises(ParameterRangeError, match="coincide"):
        Strategy.gaussian(1e15, 1.0).table


def test_a_sampled_strategy_builds_one_interpolant(monkeypatch):
    import qmg.strategy as strategy_module

    built = []

    class CountingSpline(strategy_module.Spline):
        def __init__(self, grid, values):
            built.append(values.dtype)
            super().__init__(grid, values)

    monkeypatch.setattr(strategy_module, "Spline", CountingSpline)
    g = Grid(-4.0, 4.0, 33)
    s = Strategy.sampled(np.exp(-0.25 * g.points**2 + 0.7j * g.points), g)
    x = np.linspace(-3.9, 3.9, 7)
    first, again = s.evaluate(x), s.evaluate(x)
    assert built == [np.dtype(complex)]
    assert first.tobytes() == again.tobytes()
    assert np.max(np.abs(first - np.exp(-0.25 * x**2 + 0.7j * x))) < 2e-3


@pytest.mark.parametrize("s", [Strategy.gaussian(0.3, 1.0, 1e4), Strategy.gaussian(0.0, 1.0, 1e300)])
def test_a_dual_far_from_the_default_grid_is_exact(s):
    # the dual is the Gaussian at hbar * slope, however far that is from the source's grid
    dual = to_supply_rep(s)
    phase, part = (1.0, dual) if isinstance(dual.form, GaussianForm) else (dual.form.coefficients[0], dual.form.parts[0])
    assert phase == cmath.exp(1j * s.form.slope * s.form.center)
    assert part == Strategy(GaussianForm(s.form.slope, 0.5, -s.form.center), Representation.SUPPLY)
    if s.form.slope < 1e300:  # the default grid around 1e300 is a single double
        mean, std = moments(dual)
        assert abs(mean - 1e4) < 1e-9 and abs(std - 0.5) < 1e-9


def test_a_dual_whose_phase_leaves_the_doubles_is_refused():
    # the global phase exp(i slope center) of slope * center = inf has no value
    with pytest.raises(ParameterRangeError, match=r"phase slope \* center"):
        to_supply_rep(Strategy.gaussian(1e10, 1.0, 1e300))


def test_a_supply_gaussian_samples_its_demand_dual_at_minus_hbar_slope():
    # the inverse transform centres the demand density at -hbar * slope
    s = Strategy.gaussian(0.0, 1.0, 0.8, rep=Representation.SUPPLY)
    draws = sample(s, RandomSource(1), 200_000, rep=Representation.DEMAND)
    mean, std = moments(to_demand_rep(s))
    assert mean == pytest.approx(-0.8, abs=1e-12) and std == pytest.approx(0.5, abs=1e-12)
    assert abs(draws.mean() - mean) < 4.0 * std / math.sqrt(draws.size)
    # and the forward direction keeps +hbar * slope, with hbar_eff
    risk = RiskParams(hbar_e=0.6, theta=1.0, theta_nc=0.8)
    draws = sample(Strategy.gaussian(0.0, 1.0, 0.8), RandomSource(2), 200_000, Representation.SUPPLY, risk.hbar_eff)
    assert abs(draws.mean() - 0.8) < 4.0 * 0.5 / math.sqrt(draws.size)


_RISK = st.builds(
    RiskParams, st.floats(0.3, 3.0), st.floats(1.0, 10.0), st.floats(0.3, 3.0), st.one_of(st.just(0.0), st.floats(0.0, 1.0))
)
_DUAL_GAUSSIAN = st.builds(Strategy.gaussian, st.floats(-5.0, 5.0), st.floats(0.2, 3.0), st.floats(-5.0, 5.0))
_DUAL_HERMITE = st.builds(Strategy.hermite, st.integers(0, 20), _RISK)


def _in_rep(s, rep):
    if isinstance(s.form, SuperposedForm):
        return Strategy.superpose([_in_rep(p, rep) for p in s.form.parts], s.form.coefficients)
    return Strategy(s.form, rep)


@st.composite
def _dual_source(draw):
    """A Gaussian, a Hermite level or a superposition of both, in either representation."""
    s = draw(st.one_of(_DUAL_GAUSSIAN, _DUAL_HERMITE, _superposed_of(_DUAL_GAUSSIAN, _DUAL_HERMITE)))
    return _in_rep(s, draw(st.sampled_from(Representation)))


def _convert(s, risk):
    return (to_supply_rep if s.rep is Representation.DEMAND else to_demand_rep)(s, risk.hbar_eff)


@given(s=_dual_source(), risk=_RISK)
def test_closed_form_duals_match_the_fft_on_a_fine_grid(s, risk):
    # the reference: numerics' FFT on a grid whose span and reciprocal both
    # reach 12 standard deviations of the source and of the dual
    dual = _convert(s, risk)
    hbar = risk.hbar_eff
    lo, hi = s.support_bounds()
    mid, half = 0.5 * (lo + hi), 0.75 * (hi - lo)
    dual_lo, dual_hi = dual.support_bounds()
    reach = abs(0.5 * (dual_lo + dual_hi)) + 0.75 * (dual_hi - dual_lo)
    dx = math.pi * hbar / reach
    n = 1 << math.ceil(math.log2(2.0 * half / dx))
    grid = Grid(mid - 0.5 * n * dx, mid + (0.5 * n - 1) * dx, n)
    transform = fourier_q_to_p if s.rep is Representation.DEMAND else fourier_p_to_q
    reference, reciprocal = transform(s.amplitudes_on(grid), grid, hbar)
    assert np.max(np.abs(dual.amplitudes_on(reciprocal) - reference)) < 1e-10 * np.max(np.abs(reference))


@given(s=_dual_source(), risk=_RISK)
def test_closed_form_duals_convert_back_to_the_source(s, risk):
    back = _convert(_convert(s, risk), risk)
    g = s.default_grid()
    assert back.rep is s.rep
    assert np.max(np.abs(back.amplitudes_on(g) - s.amplitudes_on(g))) < 1e-13


@given(
    parts=st.lists(st.one_of(_DUAL_GAUSSIAN, _DUAL_HERMITE), min_size=1, max_size=4),
    risk=_RISK,
    data=st.data(),
)
def test_superposed_duals_are_the_dual_of_the_superposition(parts, risk, data):
    coefficients = [complex(*data.draw(st.tuples(st.floats(-1.0, 1.0), st.floats(0.1, 1.0)))) for _ in parts]
    whole = to_supply_rep(Strategy.superpose(parts, coefficients), risk.hbar_eff)
    from_parts = Strategy.superpose([to_supply_rep(p, risk.hbar_eff) for p in parts], coefficients)
    g = whole.default_grid()
    assert np.max(np.abs(from_parts.amplitudes_on(g) - whole.amplitudes_on(g))) < 1e-13


@given(
    s=st.one_of(_DUAL_HERMITE, _DUAL_GAUSSIAN, _sampled()),
    hbar=st.one_of(st.none(), st.floats(0.3, 3.0)),
    log_price=st.floats(-2.0, 2.0),
)
def test_a_one_part_superposition_is_its_part_bit_for_bit(s, hbar, log_price):
    # the default hbar is the part's own, however deep it sits
    nested = Strategy.superpose([Strategy.superpose([s], [1])], [1])
    assert nested.hbar == s.hbar
    a, b = wigner_transform(s, hbar=hbar), wigner_transform(nested, hbar=hbar)
    assert (a.p_grid, a.q_grid, a.hbar) == (b.p_grid, b.q_grid, b.hbar)
    assert np.array_equal(a.values, b.values)
    x = s.dual(hbar).default_grid().points
    assert np.array_equal(s.dual(hbar).evaluate(x), nested.dual(hbar).evaluate(x))
    assert sell_probability(s, log_price, hbar) == sell_probability(nested, log_price, hbar)
    for rep in Representation:
        draws = [sample(t, RandomSource(5), 300, rep, hbar) for t in (s, nested)]
        assert np.array_equal(*draws)


def test_two_risks_of_one_hbar_share_one_dual():
    s = Strategy.superpose([Strategy.gaussian(0.3, 0.8, 1.2), Strategy.hermite(1)], [1.0, 0.5j])
    one, other = RiskParams(hbar_e=0.7, theta=2.0), RiskParams(hbar_e=0.7, theta=5.0, m=3.0)
    assert s.dual(one.hbar_eff) is s.dual(other.hbar_eff)
    assert s.dual() is s.dual(1.0)
    assert list(s._duals) == [0.7, 1.0]


def test_levels_of_two_hbars_need_an_explicit_hbar():
    s = Strategy.superpose([Strategy.hermite(0), Strategy.hermite(1, RiskParams(hbar_e=0.7, theta=2.0))], [1, 1])
    for default in (s.dual, lambda: wigner_transform(s), lambda: sample(s, RandomSource(0), 4, Representation.SUPPLY)):
        with pytest.raises(ParameterRangeError, match=r"hbar \[0.7, 1.0\]"):
            default()
    # an explicit hbar, or no transform at all, needs no default
    assert to_supply_rep(s, 0.7).rep is Representation.SUPPLY
    assert sample(s, RandomSource(0), 4).shape == (4,)


_G = Strategy.gaussian(0.0, 1.0)
_G_SUPPLY = Strategy.gaussian(0.0, 1.0, rep=Representation.SUPPLY)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-310],
                         ids=["nan", "inf", "-inf", "zero", "negative", "subnormal"])
@pytest.mark.parametrize(
    "call",
    [
        lambda h: _G.dual(h),
        lambda h: to_supply_rep(_G, h),
        lambda h: to_demand_rep(_G_SUPPLY, h),
        lambda h: sell_probability(_G_SUPPLY, 0.3, h),  # no transform: refused all the same
        lambda h: sample(_G, RandomSource(0), 4, hbar=h),
        lambda h: clear_round(MarketState((_G, _G_SUPPLY)), RandomSource(0), h),
        lambda h: pair_execution_frequency(_G, _G_SUPPLY, 4, RandomSource(0), h),
        lambda h: wigner_transform(_G, hbar=h),
    ],
    ids=["dual", "to_supply_rep", "to_demand_rep", "sell_probability", "sample", "clear_round",
         "pair_execution_frequency", "wigner_transform"],
)
def test_a_bad_hbar_is_refused_by_name(call, bad):
    with pytest.raises(ParameterRangeError, match="^hbar must be positive and finite"):
        call(bad)


def test_only_sampled_strategies_convert_through_the_fft(monkeypatch):
    import qmg.strategy as strategy_module

    def refuse(*args, **kwargs):
        raise AssertionError("an FFT ran")

    g = Grid(-6.0, 6.0, 64)
    sampled = Strategy.sampled(np.exp(-0.25 * g.points**2), g)
    monkeypatch.setattr(strategy_module, "fourier_q_to_p", refuse)
    monkeypatch.setattr(strategy_module, "fourier_p_to_q", refuse)
    analytic = [
        Strategy.gaussian(0.4, 0.7, -1.2),
        Strategy.hermite(3, RiskParams(hbar_e=0.5, theta=2.0, m=1.5, theta_nc=0.3)),
        Strategy.superpose([Strategy.gaussian(1.0, 0.5, 0.2), Strategy.hermite(2)], [1.0, 0.5j]),
    ]
    for s in analytic:
        to_demand_rep(to_supply_rep(s))
    with pytest.raises(AssertionError, match="an FFT ran"):
        to_supply_rep(sampled)
    with pytest.raises(AssertionError, match="an FFT ran"):
        to_demand_rep(Strategy(sampled.form, Representation.SUPPLY))


def test_parse_strategy_rejects_garbage():
    for bad in ("gauss(1,2)", "gaussian(1)", "hermite(-1)", "discrete()", "delta(a)"):
        with pytest.raises((ContractViolationError, ParameterRangeError)):
            parse_strategy(bad)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: Strategy.hermite(2.5), ContractViolationError),
        (lambda: Strategy.hermite(True), ContractViolationError),
        (lambda: Strategy.hermite(-1), ParameterRangeError),
        (lambda: hermite_function(2.5, np.zeros(3)), ContractViolationError),
        (lambda: hermite_function(1, np.zeros(3), math.nan), ParameterRangeError),
        (lambda: sample(Strategy.gaussian(0, 1), RandomSource(0), 2.5), ContractViolationError),
        (lambda: sample(Strategy.gaussian(0, 1), RandomSource(0), True), ContractViolationError),
        (lambda: sample(Strategy.gaussian(0, 1), RandomSource(0), -1), ParameterRangeError),
        (lambda: Strategy.superpose([Strategy.hermite(0), Strategy.hermite(1)], [1.0, math.nan]),
         ParameterRangeError),
        (lambda: SuperposedForm((complex(math.inf, 0.0),), (Strategy.hermite(0),)), ParameterRangeError),
    ],
    ids=[
        "order-float", "order-bool", "order-negative", "function-order-float",
        "function-scale-nan", "size-float", "size-bool", "size-negative",
        "coefficient-nan", "coefficient-inf",
    ],
)
def test_counts_are_refused_unless_integers(call, error):
    with pytest.raises(error):
        call()


def _loop_hermite_function(n, x, length_scale):
    # the recurrence as a loop of its own, before it became a shared ladder
    u = np.asarray(x, dtype=float) / length_scale
    prev, phi = np.zeros_like(u), math.pi ** (-0.25) * np.exp(-0.5 * u * u)
    for k in range(n):
        prev, phi = phi, math.sqrt(2.0 / (k + 1)) * u * phi - math.sqrt(k / (k + 1.0)) * prev
    return phi / math.sqrt(length_scale)


@given(n=st.integers(0, 300), length_scale=st.floats(0.05, 20.0), reach=st.floats(1.0, 60.0))
def test_hermite_ladder_is_the_loop_bit_for_bit(n, length_scale, reach):
    x = np.linspace(-reach, 0.7 * reach, 301)
    assert hermite_function(n, x, length_scale).tobytes() == _loop_hermite_function(n, x, length_scale).tobytes()


@given(
    x=st.floats(-30.0, 30.0),
    gap=st.floats(-2.0, 2.0),
    size=st.integers(0, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_delta_is_a_one_atom_discrete_bit_for_bit(x, gap, size, seed):
    from qmg.auction import AuctionInstance, transaction_probabilities, vickrey_truthfulness_check

    supply = Representation.SUPPLY
    point, atom = Strategy.delta(x), Strategy.discrete([x])
    probes = np.array([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf), x - gap, x + 1.0])
    for inclusive in (True, False):
        assert point.cdf(probes, inclusive).tobytes() == atom.cdf(probes, inclusive).tobytes()
    # a point draws nothing: the generator's next draw is its first
    gen_point, gen_atom = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = sample(point, gen_point, size)
    assert draws.tobytes() == sample(atom, gen_atom, size).tobytes()
    assert np.all(draws == x)
    assert gen_point.random() == gen_atom.random() == np.random.default_rng(seed).random()

    def report(buyer, seller):
        inst = AuctionInstance((buyer, Strategy.gaussian(x + gap, 1.0)), seller)
        return transaction_probabilities(inst)

    assert report(point, Strategy.delta(-x - gap, supply)) == report(atom, Strategy.discrete([-x - gap], rep=supply))
    valuation = math.exp(-x)
    bids = (0.5 * valuation, valuation, 2.0 * valuation)
    by_delta = vickrey_truthfulness_check(valuation, bids, [Strategy.delta(x + gap)], Strategy.delta(gap, supply))
    by_atom = vickrey_truthfulness_check(
        valuation, bids, [Strategy.discrete([x + gap])], Strategy.discrete([gap], rep=supply)
    )
    assert by_delta.exact and by_delta == by_atom

