"""Measurement-interleaved evolution: survival probabilities and freezing."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmg import (
    ContractViolationError,
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
    survival_probability,
)

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
        assert got == pytest.approx(expect, abs=1e-6)


def test_off_scale_eigenfunction_goes_through_quadrature():
    # hermite(2) built for a different omega is not an eigenstate here
    tight = RiskParams.from_omega(1.0, 4.0)
    s = Strategy.hermite(2, tight)
    coeffs = hermite_coefficients(s, UNIT_RISK, 64)
    weights = np.abs(coeffs) ** 2
    assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-8)
    # parity is preserved: odd levels stay empty
    assert float(np.sum(weights[1::2])) < 1e-12
    assert weights[2] < 0.9  # genuinely spread over several levels
    got = survival_probability(ZenoRun(s, 0.5, 1, risk=UNIT_RISK, basis_size=64))
    weights = weights / np.sum(weights)
    expect = abs(np.dot(weights, np.exp(-1j * (np.arange(64) + 0.5) * math.pi))) ** 2
    assert got == pytest.approx(float(expect), abs=1e-12)


def test_wide_strategy_exceeds_basis():
    s = Strategy.gaussian(0.0, 40.0)
    with pytest.raises(TruncationError):
        survival_probability(ZenoRun(s, 0.5, 1))


def test_mass_beyond_the_turning_point_is_truncation():
    # the central packet fits 32 levels; the far one sits beyond their
    # turning point, so its mass is missing however the capture is measured
    far = Strategy.superpose([Strategy.gaussian(0.0, 1.0), Strategy.gaussian(14.0, 0.5)], [1.0, 0.05])
    with pytest.raises(TruncationError):
        survival_probability(ZenoRun(far, 0.5, 1, basis_size=16, max_basis_size=32))
    near = Strategy.superpose([Strategy.gaussian(0.0, 1.0), Strategy.gaussian(3.0, 0.5)], [1.0, 0.05])
    assert 0.0 <= survival_probability(ZenoRun(near, 0.5, 1, basis_size=16, max_basis_size=32)) <= 1.0


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
    with pytest.raises(ParameterRangeError):
        ZenoRun(s, 0.5, 1, basis_size=256, max_basis_size=128)


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
        (lambda: ZenoRun(two_level(), 0.5, 1, basis_size=2.5), ContractViolationError),
        (lambda: hermite_coefficients(two_level(), UNIT_RISK, 2.5), ContractViolationError),
        (lambda: hermite_coefficients(two_level(), UNIT_RISK, 0), ParameterRangeError),
    ],
    ids=["measurements-bool", "sweep-float", "basis-float", "size-float", "size-zero"],
)
def test_counts_are_refused_unless_integers(call, error):
    with pytest.raises(error):
        call()


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


@given(
    risk=_RISKS,
    total_time=st.floats(0.0, 50.0),
    n_values=_SWEEPS,
    levels=st.lists(st.integers(0, 12), min_size=2, max_size=5, unique=True),
    coefficients=st.lists(_COEFFICIENTS, min_size=5, max_size=5),
    packet=_PACKETS,
    quadrature=st.booleans(),
)
def test_survival_lies_in_the_unit_interval(
    risk, total_time, n_values, levels, coefficients, packet, quadrature
):
    if quadrature:  # a displaced, squeezed, tilted packet: projected by quadrature
        s = _packet(risk, packet)
    else:  # a finite combination of eigenstates: expanded exactly
        parts = [Strategy.hermite(k, risk) for k in levels]
        s = Strategy.superpose(parts, coefficients[: len(parts)])
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
)
def test_projection_matches_per_level_trapezoid(risk, packet, size):
    s = _packet(risk, packet)
    ell = math.sqrt(risk.hbar_eff / (risk.m * risk.omega))
    got = hermite_coefficients(s, risk, size)
    # the grid hermite_coefficients chooses for a normalized packet of this size
    lo, hi = s.support_bounds()
    turning = math.sqrt(2.0 * size + 1.0) * ell * 1.25
    half = min(max(abs(lo), abs(hi)), turning)
    waves = half * math.sqrt(2.0 * size + 1.0) / (math.pi * ell)
    grid = Grid(-half, half, max(4096, 8 * math.ceil(waves)))
    want, bound = _per_level_trapezoid(s, risk, size, grid)
    # two summation orders of n terms differ by at most ~n eps sum|terms|
    tol = 2.0 * grid.n * np.finfo(float).eps * bound
    assert np.all(np.abs(got - want) <= tol)
