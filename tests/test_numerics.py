import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmg.errors import BracketingError, ContractViolationError, ParameterRangeError
from qmg.numerics import (
    Grid,
    RandomSource,
    check_count,
    find_root,
    fourier_p_to_q,
    fourier_q_to_p,
    integrate,
    reciprocal_grid,
)


def test_grid_basics():
    g = Grid(-2.0, 3.0, 11)
    assert g.spacing == pytest.approx(0.5)
    assert g.points[0] == -2.0 and g.points[-1] == 3.0
    assert g.contains(0.0) and not g.contains(3.5)
    assert Grid(-2.0, 3.0, np.int64(11)).points.size == 11  # numpy integers are counts too


def test_grid_validation():
    with pytest.raises(ParameterRangeError):
        Grid(1.0, 1.0, 16)
    with pytest.raises(ParameterRangeError):
        Grid(0.0, 1.0, 4)
    with pytest.raises(ParameterRangeError):
        Grid(0.0, math.inf, 16)


def test_grid_points_are_read_only():
    g = Grid(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        g.points[0] = 99.0


def test_integrate_polynomial():
    g = Grid(0.0, 1.0, 2001)
    # trapezoid on x^2: error O(dx^2)
    assert integrate(g.points**2, g) == pytest.approx(1.0 / 3.0, abs=1e-7)


def test_integrate_shape_mismatch():
    g = Grid(0.0, 1.0, 16)
    with pytest.raises(ContractViolationError):
        integrate(np.ones(15), g)


def test_reciprocal_grid_pairing():
    g = Grid(-6.0, 6.0, 256)
    gp = reciprocal_grid(g, hbar=0.7)
    # dp dq n = 2 pi hbar and zero frequency on the grid
    assert gp.spacing * g.spacing * g.n == pytest.approx(2 * math.pi * 0.7, rel=1e-12)
    assert gp.points[g.n // 2] == pytest.approx(0.0, abs=1e-12)


def test_fourier_gaussian_self_dual():
    # exp(-q^2/2) / pi^(1/4) maps to itself at hbar = 1
    g = Grid(-12.0, 12.0, 1024)
    psi = np.pi**-0.25 * np.exp(-0.5 * g.points**2)
    phi, gp = fourier_q_to_p(psi, g)
    expect = np.pi**-0.25 * np.exp(-0.5 * gp.points**2)
    assert np.max(np.abs(phi - expect)) < 1e-12


def test_fourier_round_trip():
    g = Grid(-14.0, 10.0, 512)  # asymmetric window on purpose
    psi = np.exp(-0.5 * (g.points + 1.3) ** 2 + 0.4j * g.points)
    phi, gp = fourier_q_to_p(psi, g, hbar=0.5)
    back, gq = fourier_p_to_q(phi, gp, hbar=0.5, grid_q=g)
    assert gq == g
    assert np.max(np.abs(back - psi)) < 1e-10


def test_fourier_norm_preserved():
    g = Grid(-10.0, 10.0, 700)
    psi = np.exp(-((g.points - 0.5) ** 2)) * (1 + 0.3j)
    phi, gp = fourier_q_to_p(psi, g, hbar=1.3)
    n_q = integrate(np.abs(psi) ** 2, g)
    n_p = integrate(np.abs(phi) ** 2, gp)
    assert n_p == pytest.approx(n_q, rel=1e-10)


@given(
    hbar=st.floats(0.1, 10.0),
    n=st.integers(8, 1024),
    lo=st.floats(-20.0, 10.0),
    width=st.floats(1.0, 30.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fourier_pair_is_unitary_on_reciprocal_grids(hbar, n, lo, width, seed):
    # any amplitudes on any window [lo, lo + width]: the discrete pair is
    # exactly unitary, so nothing here relies on decay toward the edges
    g = Grid(lo, lo + width, n)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    phi, gp = fourier_q_to_p(psi, g, hbar)
    back, gq = fourier_p_to_q(phi, gp, hbar, grid_q=g)
    assert gq == g
    assert np.max(np.abs(back - psi)) <= 1e-10 * np.max(np.abs(psi))
    norm_q = np.sum(np.abs(psi) ** 2) * g.spacing
    norm_p = np.sum(np.abs(phi) ** 2) * gp.spacing
    assert norm_p == pytest.approx(norm_q, rel=1e-10)


def _two_body_q_to_p(amps, grid_q, hbar):
    # the forward transform as a body of its own, before both directions shared one
    gp = reciprocal_grid(grid_q, hbar)
    n, dq, k = grid_q.n, grid_q.spacing, np.arange(grid_q.n)
    out = np.fft.fft(amps * np.exp(-1j * gp.lo * (k * dq) / hbar))
    out *= dq / math.sqrt(2.0 * math.pi * hbar) * np.exp(-1j * gp.points * grid_q.lo / hbar)
    return out, gp


def _two_body_p_to_q(amps, grid_p, hbar, grid_q=None):
    # the inverse transform as a body of its own
    gq = grid_q if grid_q is not None else reciprocal_grid(grid_p, hbar)
    n, dp, j = grid_p.n, grid_p.spacing, np.arange(grid_p.n)
    out = np.fft.ifft(amps * np.exp(1j * (j * dp) * gq.lo / hbar)) * n
    out *= dp / math.sqrt(2.0 * math.pi * hbar) * np.exp(1j * grid_p.lo * gq.points / hbar)
    return out, gq


@given(
    hbar=st.floats(0.1, 10.0),
    n=st.sampled_from([8, 9, 100, 243, 256, 1000, 1024, 2047]),
    lo=st.floats(-20.0, 10.0),
    width=st.floats(1.0, 30.0),
    shift=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fourier_entry_points_match_the_two_bodies_bit_for_bit(hbar, n, lo, width, shift, seed):
    # odd, even and non-power-of-two sizes on asymmetric windows; the
    # inverse both onto its reciprocal grid and onto a pinned, shifted one
    g = Grid(lo, lo + width, n)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    phi, gp = fourier_q_to_p(psi, g, hbar)
    want, want_gp = _two_body_q_to_p(psi, g, hbar)
    assert gp == want_gp and phi.tobytes() == want.tobytes()
    pinned = Grid(g.lo + shift, g.lo + shift + (g.hi - g.lo), n)
    for grid_q in (None, g, pinned):
        back, gq = fourier_p_to_q(phi, gp, hbar, grid_q=grid_q)
        want, want_gq = _two_body_p_to_q(phi, gp, hbar, grid_q)
        assert gq == want_gq and back.tobytes() == want.tobytes()


def test_fourier_rejects_non_reciprocal_target():
    g = Grid(-10.0, 10.0, 512)
    phi, gp = fourier_q_to_p(np.exp(-g.points**2), g)
    with pytest.raises(ContractViolationError):
        fourier_p_to_q(phi, gp, grid_q=Grid(-10.0, 10.0, 500))


def test_find_root_cubic():
    r = find_root(lambda x: x**3 - 2, (0.0, 4.0))
    assert r == pytest.approx(2 ** (1 / 3), abs=1e-12)


def test_find_root_needs_sign_change():
    with pytest.raises(BracketingError):
        find_root(lambda x: x**2 + 1, (-1.0, 1.0))


def test_random_source_reproducible():
    a = RandomSource(123).rng.normal(size=8)
    b = RandomSource(123).rng.normal(size=8)
    assert np.array_equal(a, b)


def test_random_source_streams_differ():
    a = RandomSource(123, stream=0).rng.normal(size=8)
    b = RandomSource(123, stream=1).rng.normal(size=8)
    assert not np.array_equal(a, b)
    c = RandomSource(123, 1).rng.normal(size=8)
    assert np.array_equal(b, c)


def test_random_source_validation():
    with pytest.raises(ParameterRangeError):
        RandomSource(-1)
    with pytest.raises(ParameterRangeError):
        RandomSource(0, stream=-2)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: Grid(0.0, 1.0, 16.0), ContractViolationError),
        (lambda: Grid(0.0, 1.0, True), ContractViolationError),
        (lambda: Grid(0.0, 1.0, 7), ParameterRangeError),
        (lambda: RandomSource(2.5), ContractViolationError),
        (lambda: RandomSource(0, stream=True), ContractViolationError),
        (lambda: RandomSource(2**64), ParameterRangeError),
        (lambda: check_count("3", "n", 0), ContractViolationError),
        (lambda: check_count(np.int64(3), "n", 4), ParameterRangeError),
    ],
    ids=[
        "grid-float", "grid-bool", "grid-small", "seed-float",
        "stream-bool", "seed-wide", "str", "np-small",
    ],
)
def test_counts_refuse_non_integers_and_small_values(call, error):
    with pytest.raises(error):
        call()
