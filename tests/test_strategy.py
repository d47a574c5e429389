import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmg.errors import (
    ContractViolationError,
    DegenerateStateError,
    ImproperStateError,
    ParameterRangeError,
    RepresentationError,
)
from qmg.numerics import Grid, RandomSource, integrate
from qmg.strategy import (
    DistributionTable,
    Representation,
    RiskParams,
    Strategy,
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
    g = Grid(-1.0, 1.0, 64)
    s = Strategy.sampled(np.zeros(64), g)
    with pytest.raises(DegenerateStateError):
        normalize(s)


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
    ],
    ids=[
        "order-float", "order-bool", "order-negative", "function-order-float",
        "function-scale-nan", "size-float", "size-bool", "size-negative",
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

