"""Measurement-interleaved evolution: survival probabilities and freezing."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmg import (
    ContractViolationError,
    DegenerateStateError,
    FreezeRow,
    Grid,
    ParameterRangeError,
    RandomSource,
    RiskParams,
    Strategy,
    TruncationError,
    UNIT_RISK,
    ZenoRun,
    freeze_experiment,
    freeze_table_to_csv,
    hermite_coefficients,
    normalize,
    norm,
    survival_probability,
)
from qmg.strategy import GaussianForm, _hermite_ground, _hermite_ladder
from qmg.zeno import MAX_BASIS_SIZE, _closed_form_vector

# closed form for the equal |0>,|1> superposition: S(n) = cos(wT/2n)^(2n),
# evaluated at 50 digits and rounded to float
S_PI = {
    10: 0.78054606978114017,
    100: 0.97562691414390028,
    1000: 0.99753563941957021,
}
# coherent state, |alpha|^2 = 1.125 (displacement 1.5 at unit scale), wT = 2:
# S(n) = exp(-2 |alpha|^2 n (1 - cos(wT/n)))
S_COHERENT = {1: 0.041323233519798519, 3: 0.23568455727325979, 25: 0.83535038409459482}


def two_level() -> Strategy:
    h0 = Strategy.hermite(0)
    h1 = Strategy.hermite(1)
    return Strategy.superpose([h0, h1], [math.sqrt(0.5), math.sqrt(0.5)])


def test_two_level_sparse_measurements():
    # wT = pi: a single observation lands on the orthogonal state,
    # two observations keep a quarter of the amplitude
    s = two_level()
    assert survival_probability(ZenoRun(s, 0.5, 1)) == pytest.approx(0.0, abs=1e-12)
    assert survival_probability(ZenoRun(s, 0.5, 2)) == pytest.approx(0.25, abs=1e-12)


def test_two_level_frozen_values():
    s = two_level()
    for n, expect in S_PI.items():
        got = survival_probability(ZenoRun(s, 0.5, n))
        # |amp|^(2n) amplifies roundoff by ~2n ulps, hence the looser bound
        assert got == pytest.approx(expect, abs=5e-12)


def test_survival_increases_toward_freeze():
    rows = freeze_experiment(ZenoRun(two_level(), 0.5, 1), [1, 10, 100, 1000])
    values = [r.survival for r in rows]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 0.99


def test_eigenstates_never_move():
    for level in (0, 3, 7):
        s = Strategy.hermite(level)
        for n in (1, 2, 17, 400):
            assert survival_probability(ZenoRun(s, 0.8, n)) == 1.0


def test_full_revival_at_oscillator_period():
    # wT = 2 pi realigns every phase up to a global factor
    s = two_level()
    assert survival_probability(ZenoRun(s, 1.0, 1)) == pytest.approx(1.0, abs=1e-12)


def test_quarter_turn_freeze_table():
    rows = freeze_experiment(ZenoRun(two_level(), 0.25, 1), [1, 10, 100, 1000])
    values = [r.survival for r in rows]
    assert all(isinstance(r, FreezeRow) for r in rows)
    assert [r.n for r in rows] == [1, 10, 100, 1000]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(0.5, abs=1e-12)


def test_decay_rate_halves_with_doubled_measurements():
    # 1 - S(n) ~ C/n in the Zeno limit
    s = two_level()
    loss_n = 1.0 - survival_probability(ZenoRun(s, 0.5, 100))
    loss_2n = 1.0 - survival_probability(ZenoRun(s, 0.5, 200))
    assert loss_2n <= 0.55 * loss_n


def test_quadrature_projection_of_ground_state():
    # gaussian with the oscillator's own width is |0> up to quadrature error
    s = Strategy.gaussian(0.0, math.sqrt(0.5))
    coeffs = hermite_coefficients(s, UNIT_RISK, 32)
    assert abs(coeffs[0]) == pytest.approx(1.0, abs=1e-9)
    assert float(np.sum(np.abs(coeffs[1:]) ** 2)) < 1e-12
    assert survival_probability(ZenoRun(s, 0.37, 5)) == pytest.approx(1.0, abs=1e-9)


def test_coherent_state_closed_form():
    # displaced ground state: S(n) = exp(-2 |alpha|^2 n (1 - cos(wT/n)))
    s = Strategy.gaussian(1.5, math.sqrt(0.5))
    for n, expect in S_COHERENT.items():
        got = survival_probability(ZenoRun(s, 1.0 / math.pi, n))
        assert got == pytest.approx(expect, abs=1e-12)


def test_off_scale_eigenfunction_goes_through_quadrature():
    # hermite(2) built for a different omega is not an eigenstate here
    tight = RiskParams.from_omega(1.0, 4.0)
    s = Strategy.hermite(2, tight)
    coeffs = hermite_coefficients(s, UNIT_RISK, 128)
    weights = np.abs(coeffs) ** 2
    assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-8)
    # parity is preserved: odd levels stay empty
    assert float(np.sum(weights[1::2])) < 1e-12
    assert weights[2] < 0.9  # genuinely spread over several levels
    got = survival_probability(ZenoRun(s, 0.5, 1, risk=UNIT_RISK))  # a run starts at 128 levels
    weights = weights / np.sum(weights)
    expect = abs(np.dot(weights, np.exp(-1j * (np.arange(128) + 0.5) * math.pi))) ** 2
    assert got == pytest.approx(float(expect), abs=1e-12)


def test_wide_strategy_exceeds_basis():
    s = Strategy.gaussian(0.0, 40.0)
    with pytest.raises(TruncationError):
        survival_probability(ZenoRun(s, 0.5, 1))


def test_mass_beyond_the_turning_point_is_truncation():
    # the central packet fits 128 levels; the far one sits beyond the turning point
    # of the largest basis, 2048 levels (80 oscillator lengths out), so its mass
    # is missing however the capture is measured
    assert MAX_BASIS_SIZE == 2048
    far = Strategy.superpose([Strategy.gaussian(0.0, 1.0), Strategy.gaussian(90.0, 0.5)], [1.0, 0.05])
    with pytest.raises(TruncationError):
        survival_probability(ZenoRun(far, 0.5, 1))
    near = Strategy.superpose([Strategy.gaussian(0.0, 1.0), Strategy.gaussian(3.0, 0.5)], [1.0, 0.05])
    assert 0.0 <= survival_probability(ZenoRun(near, 0.5, 1)) <= 1.0


def test_basis_doubles_until_captured():
    # width 4 needs more than the default 128 levels but fits within 2048
    s = Strategy.gaussian(0.0, 4.0)
    run = ZenoRun(s, 0.5, 3)
    got = survival_probability(run)
    assert 0.0 <= got <= 1.0
    coeffs = hermite_coefficients(s, UNIT_RISK, 512)
    assert float(np.sum(np.abs(coeffs) ** 2)) >= 1.0 - 1e-8


def test_run_validation():
    s = two_level()
    with pytest.raises(ContractViolationError):
        ZenoRun(Strategy.delta(0.0), 0.5, 1)
    with pytest.raises(ParameterRangeError):
        ZenoRun(s, -0.1, 1)
    with pytest.raises(ParameterRangeError):
        ZenoRun(s, 0.5, 0)
    with pytest.raises(ContractViolationError):
        ZenoRun(s, 0.5, 2.5)


def test_sweep_validation():
    run = ZenoRun(two_level(), 0.5, 1)
    with pytest.raises(ContractViolationError):
        freeze_experiment(run, [])
    with pytest.raises(ContractViolationError):
        freeze_experiment(run, [1, 10, 10])
    with pytest.raises(ParameterRangeError):
        freeze_experiment(run, [0, 5])


def test_survival_bounded_for_random_superpositions():
    gen = RandomSource(99).rng
    parts = [Strategy.hermite(k) for k in range(6)]
    for _ in range(10):
        raw = gen.normal(size=6) + 1j * gen.normal(size=6)
        s = Strategy.superpose(parts, raw)
        n = int(gen.integers(1, 50))
        t = float(gen.uniform(0.0, 3.0))
        got = survival_probability(ZenoRun(s, t, n))
        assert 0.0 <= got <= 1.0


def test_freeze_table_csv(tmp_path):
    rows = freeze_experiment(ZenoRun(two_level(), 0.5, 1), [1, 2, 10])
    path = tmp_path / "zeno.csv"
    freeze_table_to_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,survival"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == rows[0].survival


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: ZenoRun(two_level(), 0.5, True), ContractViolationError),
        (lambda: freeze_experiment(ZenoRun(two_level(), 0.5, 1), [1, 2.5]), ContractViolationError),
        (lambda: hermite_coefficients(two_level(), UNIT_RISK, 2.5), ContractViolationError),
        (lambda: hermite_coefficients(two_level(), UNIT_RISK, 0), ParameterRangeError),
    ],
    ids=["measurements-bool", "sweep-float", "size-float", "size-zero"],
)
def test_counts_are_refused_unless_integers(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("risk", [UNIT_RISK, RiskParams(hbar_e=0.7, theta=2.5, m=1.3)], ids=["exact", "quadrature"])
def test_a_superposition_that_cancels_is_refused_on_either_path(risk):
    # level 0 of the unit operator is exact under UNIT_RISK, off the basis under the other
    s = Strategy.superpose([Strategy.hermite(0), Strategy.hermite(0)], [1.0, -1.0])
    with pytest.raises(DegenerateStateError, match="zero norm"):
        hermite_coefficients(s, risk)


_RISKS = st.builds(
    RiskParams,
    hbar_e=st.floats(0.3, 3.0),
    theta=st.floats(0.5, 10.0),
    m=st.floats(0.3, 3.0),
    theta_nc=st.floats(0.0, 1.0),
)
_SWEEPS = st.lists(st.integers(1, 10_000), min_size=1, max_size=8, unique=True).map(sorted)
# real parts of one sign: coefficients of a repeated level cannot cancel
_COEFFICIENTS = st.builds(complex, st.floats(0.1, 1.0), st.floats(-1.0, 1.0))
# (center, width, slope) in units of the oscillator length
_PACKETS = st.tuples(st.floats(-2.0, 2.0), st.floats(0.4, 2.0), st.floats(-2.0, 2.0))


def _packet(risk, packet):
    ell = math.sqrt(risk.hbar_eff / (risk.m * risk.omega))
    center, width, slope = packet
    return Strategy.gaussian(center * ell, width * ell, slope / ell)


@given(
    risk=_RISKS,
    total_time=st.floats(0.0, 50.0),
    n_values=_SWEEPS,
    level=st.integers(0, 60),
    doubled=st.booleans(),
    coefficients=st.tuples(_COEFFICIENTS, _COEFFICIENTS),
)
def test_eigenstates_survive_exactly(risk, total_time, n_values, level, doubled, coefficients):
    s = Strategy.hermite(level, risk)
    if doubled:  # the same level twice is still one eigenstate
        s = Strategy.superpose([s, Strategy.hermite(level, risk)], coefficients)
    rows = freeze_experiment(ZenoRun(s, total_time, 1, risk=risk), n_values)
    assert [r.survival for r in rows] == [1.0] * len(n_values)


def _table(risk, packet, nodes):
    # the packet tabulated over its support: a sampled table, which only the quadrature expands
    g = _packet(risk, packet)
    lo, hi = g.support_bounds()
    grid = Grid(lo, hi, nodes)
    return Strategy.sampled(g.amplitudes_on(grid), grid)


@given(
    risk=_RISKS,
    total_time=st.floats(0.0, 50.0),
    n_values=_SWEEPS,
    levels=st.lists(st.integers(0, 12), min_size=2, max_size=5, unique=True),
    coefficients=st.lists(_COEFFICIENTS, min_size=5, max_size=5),
    packet=_PACKETS,
    kind=st.sampled_from(["levels", "packet", "table"]),
)
def test_survival_lies_in_the_unit_interval(
    risk, total_time, n_values, levels, coefficients, packet, kind
):
    if kind == "levels":  # a finite combination of eigenstates: expanded exactly
        parts = [Strategy.hermite(k, risk) for k in levels]
        s = Strategy.superpose(parts, coefficients[: len(parts)])
    elif kind == "packet":  # a displaced, squeezed, tilted packet: expanded by its recurrence
        s = _packet(risk, packet)
    else:  # the same packet as a sampled table: projected by quadrature
        s = _table(risk, packet, 256)
    rows = freeze_experiment(ZenoRun(s, total_time, 1, risk=risk), n_values)
    assert [r.n for r in rows] == n_values
    assert all(0.0 <= r.survival <= 1.0 for r in rows)


def _per_level_trapezoid(s, risk, size, grid):
    # the projection as one np.trapezoid per level, summed in numpy's order
    scale = math.sqrt(risk.hbar_eff / (risk.m * risk.omega))
    amps = s.amplitudes_on(grid)
    u = grid.points / scale
    prev = np.zeros_like(u)
    cur = np.pi ** -0.25 * np.exp(-0.5 * u * u) / math.sqrt(scale)
    coeffs, bounds = [], []
    for k in range(size):
        coeffs.append(np.trapezoid(cur * amps, dx=grid.spacing))
        bounds.append(np.sum(np.abs(cur * amps)) * grid.spacing)
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * u * cur - math.sqrt(k / (k + 1)) * prev
    return np.array(coeffs), np.array(bounds)


@given(
    risk=_RISKS,
    packet=_PACKETS,
    size=st.integers(1, 160),
    kind=st.sampled_from(["table", "off-scale", "packet-and-table"]),
    nodes=st.integers(16, 400),
    levels=st.lists(st.integers(0, 12), min_size=1, max_size=3, unique=True),
    omega_ratio=st.floats(0.25, 4.0).filter(lambda r: abs(r - 1.0) > 1e-6),
    coefficients=st.tuples(_COEFFICIENTS, _COEFFICIENTS, _COEFFICIENTS),
)
def test_projection_matches_per_level_trapezoid(
    risk, packet, size, kind, nodes, levels, omega_ratio, coefficients
):
    # the strategies that keep the quadrature: sampled tables, levels of another length,
    # and a Gaussian superposed with a table
    ell = math.sqrt(risk.hbar_eff / (risk.m * risk.omega))
    if kind == "table":
        s = _table(risk, packet, nodes)
    elif kind == "off-scale":
        other = RiskParams.from_omega(risk.hbar_eff, risk.omega * omega_ratio, risk.m)
        parts = [Strategy.hermite(k, other) for k in levels]
        s = Strategy.superpose(parts, coefficients[: len(parts)])
    else:
        s = Strategy.superpose([_packet(risk, packet), _table(risk, packet[::-1], nodes)], coefficients[:2])
    assert _closed_form_vector(s, ell, size) is None
    s = normalize(s)
    got = hermite_coefficients(s, risk, size)
    # the grid hermite_coefficients chooses for a normalized strategy of this size
    lo, hi = s.support_bounds()
    turning = math.sqrt(2.0 * size + 1.0) * ell * 1.25
    half = min(max(abs(lo), abs(hi)), turning)
    waves = half * math.sqrt(2.0 * size + 1.0) / (math.pi * ell)
    grid = Grid(-half, half, max(4096, 8 * math.ceil(waves)))
    want, bound = _per_level_trapezoid(s, risk, size, grid)
    # two summation orders of n terms differ by at most ~n eps sum|terms|
    tol = 2.0 * grid.n * np.finfo(float).eps * bound
    assert np.all(np.abs(got - want) <= tol)


def _trapezoid_reference(form, ell, size):
    # <phi_n|psi> as a 400 001-node trapezoid over +-(|c| + 12w + 12L); the grid is
    # symmetric, so the ladder runs over u >= 0 and pairs each node with its mirror
    reach = abs(form.center) + 12.0 * form.width + 12.0 * ell
    x = np.linspace(-reach, reach, 400_001)
    psi = Strategy(form).evaluate(x) * (x[1] - x[0])
    psi[[0, -1]] *= 0.5
    mid = len(x) // 2
    right, left = psi[mid:], psi[mid::-1]
    folded = np.stack([right + left, right - left])  # even and odd levels
    folded[:, 0] = [psi[mid], 0.0]
    folded = np.stack([folded.real, folded.imag], axis=1)  # parity, re/im, node
    u = x[mid:] / ell
    ground, shift = _hermite_ground(u)
    ladder = _hermite_ladder(u, ground / math.sqrt(ell), shift)
    out = np.array([folded[n % 2] @ level for n, level in zip(range(size), ladder)])
    return out[:, 0] + 1j * out[:, 1]


@settings(max_examples=6)
@given(
    risk=_RISKS,
    center=st.floats(-2.0, 2.0),
    width=st.floats(0.1, 10.0),
    slope=st.floats(-2.0, 2.0),
    size=st.integers(1, 2048),
)
def test_closed_form_coefficients_match_a_fine_trapezoid(risk, center, width, slope, size):
    ell = risk.length_scale
    form = GaussianForm(center * ell, width * ell, slope / ell)
    got = hermite_coefficients(Strategy(form), risk, size)
    assert np.max(np.abs(got - _trapezoid_reference(form, ell, size))) <= 1e-10


@given(
    risk=_RISKS,
    center=st.floats(-50.0, 50.0),
    width=st.floats(0.02, 50.0),
    slope=st.floats(-50.0, 50.0),
    size=st.integers(1, 2048),
)
def test_closed_form_weights_never_sum_past_one(risk, center, width, slope, size):
    ell = risk.length_scale
    s = Strategy.gaussian(center * ell, width * ell, slope / ell)
    assert float(np.sum(np.abs(hermite_coefficients(s, risk, size)) ** 2)) <= 1.0 + 1e-12


@given(risk=_RISKS, center=st.floats(-2.0, 2.0), width=st.floats(0.3, 3.0), slope=st.floats(-2.0, 2.0))
def test_a_packet_near_the_origin_is_captured_by_512_levels(risk, center, width, slope):
    ell = risk.length_scale
    s = Strategy.gaussian(center * ell, width * ell, slope / ell)
    assert float(np.sum(np.abs(hermite_coefficients(s, risk, 512)) ** 2)) == pytest.approx(1.0, abs=1e-12)


@given(
    risk=_RISKS,
    packet=_PACKETS,
    levels=st.lists(st.integers(0, 200), min_size=1, max_size=4, unique=True),
    coefficients=st.lists(_COEFFICIENTS, min_size=5, max_size=5),
    size=st.integers(1, 300),
)
def test_a_packet_with_levels_is_the_sum_of_its_leaves_over_the_table_norm(risk, packet, levels, coefficients, size):
    g = _packet(risk, packet)
    s = Strategy.superpose([g, *(Strategy.hermite(k, risk) for k in levels)], coefficients[: len(levels) + 1])
    got = hermite_coefficients(s, risk, size)
    want = coefficients[0] * hermite_coefficients(g, risk, max(size, max(levels) + 1))
    for c, k in zip(coefficients[1:], levels):
        want[k] += c
    np.testing.assert_allclose(got, want / norm(s), rtol=0.0, atol=1e-14)


def test_a_packet_whose_ground_coefficient_underflows_still_freezes():
    # |alpha|^2 = 55^2 / 2 = 1512.5 lies inside the 2048-level basis, but c_0 = e^(-756) does
    # not lie inside the doubles
    s = Strategy.gaussian(55.0, 0.5**0.5)
    assert [r.n for r in freeze_experiment(ZenoRun(s, 0.37, 1), [1])] == [1]
    total_time = 0.005
    rows = freeze_experiment(ZenoRun(s, total_time, 1), [1, 3, 10, 100])
    for row in rows:
        expect = math.exp(-2.0 * 1512.5 * row.n * (1.0 - math.cos(2.0 * math.pi * total_time / row.n)))
        assert expect > 1e-3
        assert row.survival == pytest.approx(expect, rel=1e-9)


def test_a_sampled_packet_far_out_is_projected_past_the_ground_level_underflow():
    # the table reaches 51 oscillator lengths, where e^(-u^2/2) is 0 in doubles but the
    # levels near |alpha|^2 = 1012.5 are not
    s = _table(UNIT_RISK, (45.0, 0.5**0.5, 0.0), 801)
    total_time = 0.005
    for row in freeze_experiment(ZenoRun(s, total_time, 1), [1, 3, 10]):
        expect = math.exp(-2.0 * 1012.5 * row.n * (1.0 - math.cos(2.0 * math.pi * total_time / row.n)))
        assert row.survival == pytest.approx(expect, abs=1e-8)


@pytest.mark.parametrize("n, u, expect", [(1500, 55.0, 0.08274310768935218), (1500, -41.3, 0.01944993174053707)])
def test_the_shifted_ladder_rises_from_an_underflowed_ground_level(n, u, expect):
    # reference values: mpmath at 50 digits
    points = np.array([u, 10.0])
    ground, shift = _hermite_ground(points)
    shifted = next(itertools.islice(_hermite_ladder(points, ground, shift), n, None))
    plain = next(itertools.islice(_hermite_ladder(points, np.pi**-0.25 * np.exp(-0.5 * points**2)), n, None))
    assert shifted[0] == pytest.approx(expect, rel=1e-10)
    assert plain[0] == 0.0
    assert shifted[1].tobytes() == plain[1].tobytes()  # where nothing underflows, bit for bit
