import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from qmg import CoherentParams, coherent_wigner, numerics
from qmg.errors import BracketingError, ContractViolationError, ParameterRangeError
from qmg.numerics import (
    Grid,
    RandomSource,
    check_count,
    exact_sum,
    find_root,
    fourier_p_to_q,
    fourier_q_to_p,
    integrate,
    reciprocal_grid,
)


NAN, INF = math.nan, math.inf
G64 = Grid(-4.0, 4.0, 64)


@pytest.mark.parametrize("bad", [NAN, INF, -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("hbar", lambda v: reciprocal_grid(G64, v), id="reciprocal_grid"),
        pytest.param("hbar", lambda v: fourier_q_to_p(np.ones(64), G64, v), id="fourier_q_to_p"),
        pytest.param(
            "hbar", lambda v: fourier_p_to_q(np.ones(64), G64, v, grid_q=reciprocal_grid(G64)), id="fourier_p_to_q"
        ),
        pytest.param("hbar", lambda v: coherent_wigner(CoherentParams(0.2, 1.0), hbar=v), id="coherent_wigner"),
        pytest.param("tol", lambda v: find_root(lambda x: x - 1.0, (0.0, 2.0), tol=v), id="find_root"),
    ],
)
def test_a_non_finite_or_non_positive_scale_is_refused_by_name(name, call, bad):
    with pytest.raises(ParameterRangeError, match=f"^{name} must be positive and finite"):
        call(bad)


def test_grid_basics():
    g = Grid(-2.0, 3.0, 11)
    assert g.spacing == pytest.approx(0.5)
    assert g.points[0] == -2.0 and g.points[-1] == 3.0
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
    n=st.integers(8, 8192),
    lo=st.floats(-20.0, 10.0),
    log_span=st.floats(-2.0, 2.0),
    noise=st.booleans(),
    complex_values=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=8192, lo=-3.0, log_span=1.0, noise=True, complex_values=True, seed=1)
@example(n=8, lo=-3.0, log_span=0.0, noise=False, complex_values=False, seed=2)
def test_spline_matches_scipy_not_a_knot_cubic_spline(n, lo, log_span, noise, complex_values, seed):
    # scipy, a test requirement only, is the independent reference: the same
    # spline up to rounding, in values and in the antiderivative off and on the nodes
    g = Grid(lo, lo + 10.0**log_span, n)
    rng = np.random.default_rng(seed)
    rows = 2 if complex_values else 1
    if noise:
        parts = rng.normal(size=(rows, n))
    else:  # three Fourier modes of at most 5 periods over the span
        k, phase, amp = rng.uniform(0.0, 5.0, (3, 3, rows, 1))
        parts = np.sum(amp * np.cos(2 * np.pi * (k * (g.points - g.lo) / (g.hi - g.lo) + phase)), axis=0)
    v = parts[0] + 1j * parts[1] if complex_values else parts[0]
    x = rng.uniform(g.lo, g.hi, 500)
    ours, ref = numerics.Spline(g, v), CubicSpline(g.points, v)
    # the nodes sit within an ulp of the largest |x| of their uniform places, and
    # scipy's spline follows them there, with slopes up to about 4 max|v| / dx
    node_shift = 4.0 * np.spacing(max(abs(g.lo), abs(g.hi))) / g.spacing
    tol = (1e-12 + node_shift) * np.max(np.abs(v)) * max(1.0, g.hi - g.lo)
    assert np.max(np.abs(ours(x) - ref(x))) <= tol
    anti = ref.antiderivative()
    assert np.max(np.abs(ours.antiderivative(x) - anti(x))) <= tol
    assert np.max(np.abs(ours.cumulative - anti(g.points))) <= tol


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


@pytest.mark.parametrize("bracket", [(NAN, 1.0), (-1.0, INF), (-INF, INF)], ids=["nan", "inf", "both"])
def test_find_root_refuses_a_bracket_end_that_is_not_finite(bracket):
    with pytest.raises(ParameterRangeError, match="bracket ends must be finite"):
        find_root(lambda x: x - 0.25, bracket)


def test_random_source_reproducible():
    a = RandomSource(123).rng.normal(size=8)
    b = RandomSource(123).rng.normal(size=8)
    assert np.array_equal(a, b)


def test_random_source_validation():
    with pytest.raises(ParameterRangeError):
        RandomSource(-1)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: Grid(0.0, 1.0, 16.0), ContractViolationError),
        (lambda: Grid(0.0, 1.0, True), ContractViolationError),
        (lambda: Grid(0.0, 1.0, 7), ParameterRangeError),
        (lambda: RandomSource(2.5), ContractViolationError),
        (lambda: RandomSource(2**64), ParameterRangeError),
        (lambda: check_count("3", "n", 0), ContractViolationError),
        (lambda: check_count(np.int64(3), "n", 4), ParameterRangeError),
    ],
    ids=[
        "grid-float", "grid-bool", "grid-small", "seed-float",
        "seed-wide", "str", "np-small",
    ],
)
def test_counts_refuse_non_integers_and_small_values(call, error):
    with pytest.raises(error):
        call()


def _sum_outcome(f, x):
    """The sum's bits, or the error it raised."""
    try:
        return np.float64(f(x)).view(np.uint64)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def _fsum(x):
    return math.fsum(x.tolist())


@settings(max_examples=120)  # cheap examples; most should reach the bincount path
@given(
    n=st.sampled_from([0, 7, 1023, 1025, 3000, 3000, 40_000, 40_000, 40_000]),
    exponents=st.tuples(st.integers(-1074, 1023), st.integers(-1074, 1023)),
    signs=st.sampled_from(["positive", "negative", "mixed"]),
    zeros=st.sampled_from([0.0, 0.5, 0.95, 0.999]),
    specials=st.lists(st.sampled_from([math.inf, -math.inf, math.nan, 1.7e308, 5e-324, -0.0]), max_size=1),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_sum_is_fsum_bit_for_bit(n, exponents, signs, zeros, specials, seed):
    rng = np.random.default_rng(seed)
    lo, hi = min(exponents), max(exponents)
    # uniform mantissas over a span of binary exponents, subnormals included
    x = rng.uniform(1.0, 2.0, n) * np.exp2(rng.integers(lo, hi + 1, n).astype(float))
    if signs != "positive":
        x = -x if signs == "negative" else np.where(rng.random(n) < 0.5, -x, x)
    x[rng.random(n) < zeros] = 0.0  # runs of exact zeros
    if n:
        x[rng.integers(0, n, len(specials))] = specials
    assert _sum_outcome(exact_sum, x) == _sum_outcome(_fsum, x)


@pytest.mark.parametrize(
    "x",
    [
        np.zeros(5000),
        -np.zeros(5000),
        np.concatenate([np.zeros(2000), -np.zeros(3000)]),
        np.tile([1.0, -1.0], 2000),
        np.full(4000, 2.0**-1074),
        np.full(4000, 1e300),  # the exact sum overflows: fsum raises
        np.concatenate([np.full(2000, 1.7e308), np.full(2000, -1.7e308)]),
        np.concatenate([np.full(2000, 1.0), [math.inf, -math.inf]]),
        np.concatenate([np.full(2000, 1.0), [math.nan]]),
    ],
    ids=["zeros", "negative-zeros", "mixed-zeros", "cancels", "subnormal", "overflows", "huge-cancels", "inf-minus-inf", "nan"],
)
def test_exact_sum_edge_cases_match_fsum(x):
    assert _sum_outcome(exact_sum, x) == _sum_outcome(_fsum, x)


def test_exact_sum_across_blocks_and_chunks(monkeypatch):
    # a chunk that is not a whole number of blocks, over five chunks
    monkeypatch.setattr(numerics, "BLOCK", 1000)
    monkeypatch.setattr(numerics, "_EXACT_SUM_CHUNK", 4500)
    rng = np.random.default_rng(4)
    x = rng.normal(size=21_001) * np.exp2(rng.integers(-40, 40, 21_001).astype(float))
    assert _sum_outcome(exact_sum, x) == _sum_outcome(_fsum, x)


# ---------------------------------------------------------------------------
# repr's text for float arrays


def _repr_mismatch(values):
    """None when ``_repr_text`` writes every value as repr does, else the first value it does not, both texts."""
    x = np.asarray(values, dtype=float).ravel()
    got = b"".join(numerics._repr_text(x, b"\n").tolist())
    if got == ("\n".join(map(repr, x.tolist())) + "\n").encode():
        return None
    return next((v, text) for v, text in zip(x.tolist(), got.decode().splitlines()) if text != repr(v))


@settings(max_examples=300)
@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([0.0, -0.0, NAN, -NAN, INF, -INF, 5e-324, -5e-324, 1.7976931348623157e308])
@example([1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-5, 1e22, 1e23, 0.1, 100.0])
def test_repr_text_is_repr_for_every_double(xs):
    assert _repr_mismatch(xs) is None


def _subnormals():
    # every subnormal mantissa below 2^22
    for start in range(1, 1 << 22, 1 << 18):
        yield np.arange(start, min(start + (1 << 18), 1 << 22), dtype=np.uint64).view(float)


def _powers():
    # 2^k and 10^k, one ulp either side, for every exponent
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             np.array([float(f"1e{k}") for k in range(-323, 309)])])
    yield np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, INF), -powers])


def _integers():
    # integers around 2^53, where the ulp passes 1 and then 2, and small ones
    near = np.arange(2**53 - 2**16, 2**53 + 2**16, dtype=np.int64).astype(float)
    yield np.concatenate([near, -near, np.arange(-20000.0, 20000.0)])


def _random_bits():
    # 2^20 random bit patterns: every sign, exponent and special
    bits = np.random.default_rng(20201013).integers(0, 2**64, 1 << 20, dtype=np.uint64)
    yield from (block.view(float) for block in np.split(bits, 4))


@pytest.mark.parametrize("blocks", [_subnormals, _powers, _integers, _random_bits],
                         ids=["subnormals", "powers", "integers", "random-bits"])
def test_repr_text_is_repr_over_the_sweep(blocks):
    for values in blocks():
        assert _repr_mismatch(values) is None


def test_repr_text_keeps_the_shape_and_takes_an_end_byte_per_column():
    x = np.array([[1.5, -0.0, 2e-310], [NAN, 123456789.0, -1e100]])
    text = numerics._repr_text(x, b",;\n")
    assert text.shape == (2, 3)
    assert text.tolist() == [[b"1.5,", b"-0.0;", b"2e-310\n"], [b"nan,", b"123456789.0;", b"-1e+100\n"]]


def test_the_power_table_brackets_each_power_of_ten():
    tables = numerics._text_tables()
    g = [(int(hi) << 63) + int(lo_hi) * 2**32 + int(lo_lo)
         for hi, lo_hi, lo_lo in zip(tables.g1, tables.g0_hi, tables.g0_lo)]
    assert [(int(hi) << 32) + int(lo) for hi, lo in zip(tables.g1_hi, tables.g1_lo)] == [v >> 63 for v in g]
    for k, gk in zip(range(numerics._K_MIN, numerics._K_MAX + 1), g):
        assert 2**125 <= gk < 2**126
        # g - 1 <= 10^-k 2^(125 - floor(log2 10^-k)) < g
        r = 125 - ((-k * 1741647) >> 19)
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        num, den = (num << r, den) if r >= 0 else (num, den << -r)
        assert (gk - 1) * den <= num < gk * den


def test_the_text_tables_are_built_on_first_use():
    import subprocess
    import sys

    code = "import qmg, qmg.numerics as n; print(n._text_tables.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "0"
