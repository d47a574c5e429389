"""Numerical substrate: grids, quadrature, the scaled Fourier pair, root
finding, and seeds (``RandomSource``) that replay one random stream each.

The Fourier convention is the symmetric one,

    psi~(p) = (2 pi hbar)^(-1/2) Integral exp(-i p q / hbar) psi(q) dq,

realised with an FFT on uniform grids.  Forward and inverse are exact
mutual inverses on reciprocal grids, where dp * dq * n = 2 pi hbar.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import BracketingError, ContractViolationError, ParameterRangeError

TWO_PI = 2.0 * math.pi


def check_count(value, name: str, minimum: int) -> int:
    """``value`` as an int, refused unless it is an integer >= ``minimum``.

    Bools, floats (2.5, or 3.0 alike) and other non-integers raise
    ContractViolationError; an integer below ``minimum`` raises
    ParameterRangeError.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ContractViolationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ParameterRangeError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_positive(value, name: str) -> float:
    """``value`` as a float, refused with ParameterRangeError unless it is positive and finite."""
    if not (value > 0 and math.isfinite(value)):
        raise ParameterRangeError(f"{name} must be positive and finite, got {value}")
    return float(value)


def check_hbar(value) -> float:
    """An hbar as a float, refused with ParameterRangeError unless a positive, finite,
    normal double: a subnormal hbar carries too few bits for its reciprocal grids."""
    if not sys.float_info.min <= value < math.inf:
        raise ParameterRangeError(f"hbar must be positive and finite and a normal double, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``n`` points spanning ``[lo, hi]`` inclusive."""

    lo: float
    hi: float
    n: int

    def __post_init__(self) -> None:
        check_count(self.n, "grid size n", 8)
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ParameterRangeError("grid endpoints must be finite")
        if not self.lo < self.hi:
            raise ParameterRangeError(f"grid needs lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.n - 1)

    @cached_property
    def points(self) -> np.ndarray:
        pts = np.linspace(self.lo, self.hi, self.n)
        pts.setflags(write=False)
        return pts

    @cached_property
    def _nodes_round_finely(self) -> bool:
        """Whether no two nodes coincide and each rounds by at most 2^-22 of the spacing:
        ``check_nodes``'s test, made once."""
        ulp = np.spacing(max(abs(self.lo), abs(self.hi)))
        return bool(ulp <= _NODE_ROUNDING * np.min(np.diff(self.points)))  # a coincidence fails too


# the pole of the cubic B-spline prefilter; |z|^32 < 1e-18, so 65 taps of its
# impulse response sqrt(3) z^|k| invert (c[j-1] + 4 c[j] + c[j+1]) / 6 in doubles
_POLE = math.sqrt(3.0) - 2.0
_TAPS = 32
_PREFILTER = math.sqrt(3.0) * _POLE ** np.abs(np.arange(-_TAPS, _TAPS + 1))
# an end mode z^j falls below 1e-22 of its start within 40 coefficients
_END_MODE = _POLE ** np.arange(40)
_FOURTH_DIFFERENCE = np.array([1.0, -4.0, 6.0, -4.0, 1.0])
# nodes rounded by ulp(max |x|) = 2^-22 dx off uniform move a Gaussian's CDF by 4.4e-10 at most
_NODE_ROUNDING = 2.0 ** -22
# four-point Gauss-Legendre on [0, 1]: positive weights, exact through degree 7
_GAUSS_NODES = np.array([0.06943184420297371, 0.33000947820757187, 0.6699905217924281, 0.9305681557970262])
_GAUSS_WEIGHTS = np.array([0.17392742256872679, 0.3260725774312732, 0.3260725774312732, 0.17392742256872679])


def check_nodes(grid: Grid) -> None:
    """Refuse a grid whose nodes coincide or round by over 2^-22 of their spacing (ParameterRangeError).

    The nodes are checked once per grid (``Grid._nodes_round_finely``); a
    refused grid is refused again on every call.
    """
    if not grid._nodes_round_finely:
        ulp = np.spacing(max(abs(grid.lo), abs(grid.hi)))
        raise ParameterRangeError(
            f"the nodes of the grid over [{grid.lo}, {grid.hi}] round by {ulp:.3g}, past 2^-22 of their"
            f" spacing {grid.spacing:.3g}, or coincide in double precision: the grid is too far from 0")


class Spline:
    """Not-a-knot cubic spline through real or complex ``values`` on a uniform grid.

    It is kept as a cubic B-spline series (Unser, "Splines: a perfect fit
    for signal and image processing", IEEE SPM 1999).  Its n + 2
    coefficients c satisfy (c[j] + 4 c[j+1] + c[j+2]) / 6 = values[j].  The
    prefilter applied to the mirror-padded values gives one solution; the
    decaying modes alpha z^j and beta z^(n+1-j) added to it are fixed by
    the not-a-knot conditions, a zero fourth difference of c at each end.
    Row i of ``_cells`` holds the cubic of cell [x_i, x_{i+1}] in powers of
    t = (x - x_i) / dx.  Points passed in must lie in [lo, hi].  A grid
    whose nodes coincide or round by over 2^-22 dx raises ParameterRangeError.
    """

    def __init__(self, grid: Grid, values: np.ndarray) -> None:
        check_nodes(grid)
        v = np.asarray(values)
        n = grid.n
        self.grid = grid
        with np.errstate(over="ignore", invalid="ignore"):  # `cumulative` refuses the overflow
            c = np.convolve(np.pad(v, _TAPS + 1, mode="reflect"), _PREFILTER, mode="valid")
            q = _POLE ** (n - 3)  # each end's mode, seen from the other end's conditions
            left, right = _FOURTH_DIFFERENCE @ c[:5], _FOURTH_DIFFERENCE @ c[-5:]
            scale = -1.0 / ((1.0 - _POLE) ** 4 * (1.0 - q * q))
            m = min(len(_END_MODE), n + 2)
            c[:m] += (left - q * right) * scale * _END_MODE[:m]
            c[-m:] += (right - q * left) * scale * _END_MODE[m - 1::-1]
            c0, c1, c2, c3 = c[:-3], c[1:-2], c[2:-1], c[3:]
            self._cells = np.stack(
                [v[:-1], 0.5 * (c2 - c0), 0.5 * (c0 + c2) - c1, (c3 - c0) / 6.0 + 0.5 * (c1 - c2)],
                axis=1,
            )
            self._cell_integrals = (c0 + c3 + 11.0 * (c1 + c2)) * (grid.spacing / 24.0)

    @cached_property
    def cumulative(self) -> np.ndarray:
        """The antiderivative at the nodes, 0 at ``lo``; ParameterRangeError
        where it leaves the doubles (values or their integral past the largest double)."""
        with np.errstate(over="ignore", invalid="ignore"):
            nodes = np.concatenate([[0.0], np.cumsum(self._cell_integrals)])
        if not np.all(np.isfinite(nodes)):
            g = self.grid
            raise ParameterRangeError(
                f"values over [{g.lo}, {g.hi}] have no finite integral in double precision"
            )
        return nodes

    def _locate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the floor (truncation, as x >= lo), then one step either way against
        # the nodes themselves: lo + i dx drifts from them by rounding
        g, pts = self.grid, self.grid.points
        i = np.minimum(((x - g.lo) / g.spacing).astype(np.intp), g.n - 2)
        i -= x < pts[i]
        i += (x >= pts[i + 1]) & (i < g.n - 2)
        return i, (x - pts[i]) / g.spacing

    def __call__(self, x: np.ndarray) -> np.ndarray:
        i, t = self._locate(np.asarray(x, dtype=float))
        a0, a1, a2, a3 = np.take(self._cells, i, axis=0).T
        return a0 + t * (a1 + t * (a2 + t * a3))

    def antiderivative(self, x: np.ndarray) -> np.ndarray:
        """The integral of the spline from ``lo`` to x."""
        i, t = self._locate(np.asarray(x, dtype=float))
        a0, a1, a2, a3 = np.take(self._cells, i, axis=0).T
        inner = a0 + t * (0.5 * a1 + t * (a2 / 3.0 + t * (0.25 * a3)))
        return self.cumulative[i] + self.grid.spacing * t * inner


class SquaredModulus(Spline):
    """|f|^2 of a Spline f, read through f's cells: on a cell a polynomial of
    degree 6 in t, which four-point Gauss-Legendre integrates exactly with
    positive weights, so the antiderivative cannot fall between the nodes.
    The rule is summed in numpy (a BLAS product rounds by memory layout), and
    the antiderivative at ``hi`` is the total itself, so a CDF ends at 1."""

    def __init__(self, f: Spline) -> None:
        self.grid, self._cells = f.grid, f._cells
        self._cell_integrals = self._integral(np.arange(f.grid.n - 1), 1.0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.abs(super().__call__(x)) ** 2

    def _integral(self, i: np.ndarray, t: np.ndarray) -> np.ndarray:
        a0, a1, a2, a3 = np.moveaxis(self._cells[i], -1, 0)[..., None]
        u = np.multiply.outer(t, _GAUSS_NODES)
        with np.errstate(over="ignore", invalid="ignore"):  # `cumulative` refuses the overflow
            squares = np.abs(a0 + u * (a1 + u * (a2 + u * a3))) ** 2
            return (squares * _GAUSS_WEIGHTS).sum(axis=-1) * (t * self.grid.spacing)

    def antiderivative(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        i, t = self._locate(x)
        return np.where(x < self.grid.hi, self.cumulative[i] + self._integral(i, t), self.cumulative[-1])


def integrate(samples: Sequence[float] | np.ndarray, grid: Grid) -> float | complex:
    """Trapezoid quadrature of sampled values over ``grid``."""
    arr = np.asarray(samples)
    if arr.shape != (grid.n,):
        raise ContractViolationError(
            f"expected {grid.n} samples matching the grid, got shape {arr.shape}"
        )
    total = np.trapezoid(arr, dx=grid.spacing)
    if np.iscomplexobj(arr):
        return complex(total)
    return float(total)


# elements per cache-sized block: a 2^15-double array is 256 KB, so the
# temporaries of a block stay in a core's L2 cache
BLOCK = 1 << 15
# below this many nonzero summands math.fsum on a list is the faster exact sum
_EXACT_SUM_MIN = 1024
# summands per accumulation: 2^26 halves of magnitude at most 2^27 sum exactly in float64
_EXACT_SUM_CHUNK = 1 << 26


def exact_sum(values) -> float:
    """``math.fsum(values)``, the correctly rounded sum, without a Python list.

    Each nonzero double is m * 2^(e - 1075) with a signed integer |m| < 2^53
    (subnormals share e = 1).  Its 27-bit high and 26-bit low halves are
    summed per exponent by ``np.bincount``, block by block, whose float64
    partial sums stay exact integers; the bins fold into one Python int,
    rounded once by int true division (a small superaccumulator, Neal,
    arXiv:1505.05571).  Short inputs, and inputs holding inf, NaN or a sum
    that could overflow, go to ``math.fsum`` itself, so results and errors
    match it bit for bit.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size < _EXACT_SUM_MIN:
        return math.fsum(v.tolist())
    nz = v[v != 0.0]
    n = nz.size
    if n < _EXACT_SUM_MIN:
        return math.fsum(nz.tolist())
    # NaN fails the test; otherwise every partial sum stays below 2^1022
    if not max(nz.max(), -nz.min()) < 2.0 ** (1022 - n.bit_length()):
        return math.fsum(v.tolist())
    total = 0
    for c in range(0, n, _EXACT_SUM_CHUNK):
        stop = min(c + _EXACT_SUM_CHUNK, n)
        high = np.zeros(2047)
        low = np.zeros(2047)
        for a in range(c, stop, BLOCK):
            bits = nz[a:min(a + BLOCK, stop)].view(np.int64)
            expo = (bits >> 52) & 0x7FF
            mant = bits & ((1 << 52) - 1)
            np.bitwise_or(mant, 1 << 52, out=mant, where=expo != 0)
            np.negative(mant, out=mant, where=bits < 0)
            np.maximum(expo, 1, out=expo)
            high += np.bincount(expo, weights=mant >> 26, minlength=2047)
            low += np.bincount(expo, weights=mant & ((1 << 26) - 1), minlength=2047)
        for k in np.flatnonzero((high != 0.0) | (low != 0.0)).tolist():
            total += ((int(high[k]) << 26) + int(low[k])) << (k - 1)
    return total / (1 << 1074)


def reciprocal_grid(grid: Grid, hbar: float = 1.0) -> Grid:
    """Conjugate-variable grid with dp chosen so dp * dq * n = 2 pi hbar.

    The zero frequency sits at index n // 2, so symmetric grids map to
    near-symmetric reciprocal grids.
    """
    check_hbar(hbar)
    dp = TWO_PI * hbar / (grid.n * grid.spacing)
    half = grid.n // 2
    return Grid(-half * dp, (grid.n - 1 - half) * dp, grid.n)


def _checked_amplitudes(amplitudes, grid: Grid, hbar: float) -> np.ndarray:
    check_hbar(hbar)
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (grid.n,):
        raise ContractViolationError(
            f"amplitudes shape {amps.shape} does not match grid size {grid.n}"
        )
    return amps


def _fourier(amps: np.ndarray, src: Grid, hbar: float, sign: int, dst: Grid) -> np.ndarray:
    """Continuum transform with kernel exp(sign i x y / hbar) from ``src`` onto ``dst``.

    With y_j = y0 + j dy and x_k = x0 + k dx,
    out_j = C dx e^{sign i y_j x0/h} sum_k psi_k e^{sign i y0 k dx/h} e^{sign 2pi i jk/n}:
    sign -1 (q to p) is ``np.fft.fft``, sign +1 (p to q) is ``ifft`` times n.
    """
    k = np.arange(src.n)
    phased = amps * np.exp(sign * 1j * dst.lo * (k * src.spacing) / hbar)
    out = np.fft.fft(phased) if sign < 0 else np.fft.ifft(phased) * src.n
    out *= src.spacing / math.sqrt(TWO_PI * hbar) * np.exp(sign * 1j * src.lo * dst.points / hbar)
    return out


def fourier_q_to_p(
    amplitudes: np.ndarray, grid_q: Grid, hbar: float = 1.0
) -> tuple[np.ndarray, Grid]:
    """Transform demand-side amplitudes psi(q) to psi~(p).

    Returns the transformed amplitudes together with the reciprocal grid
    they live on.  Amplitudes must decay toward the grid edges for the
    result to approximate the continuum transform.
    """
    amps = _checked_amplitudes(amplitudes, grid_q, hbar)
    gp = reciprocal_grid(grid_q, hbar)
    return _fourier(amps, grid_q, hbar, -1, gp), gp


def fourier_p_to_q(
    amplitudes: np.ndarray,
    grid_p: Grid,
    hbar: float = 1.0,
    grid_q: Grid | None = None,
) -> tuple[np.ndarray, Grid]:
    """Inverse transform, psi~(p) back to psi(q).

    ``grid_q`` may pin the target grid; it must be reciprocal to
    ``grid_p`` (dp * dq * n = 2 pi hbar) but its origin is free.
    """
    amps = _checked_amplitudes(amplitudes, grid_p, hbar)
    gq = grid_q if grid_q is not None else reciprocal_grid(grid_p, hbar)
    if gq.n != grid_p.n:
        raise ContractViolationError("target grid must have the same size")
    ratio = gq.spacing * grid_p.spacing * grid_p.n / (TWO_PI * hbar)
    if abs(ratio - 1.0) > 1e-9:
        raise ContractViolationError(
            "target grid is not reciprocal to the input grid (dp*dq*n != 2*pi*hbar)"
        )
    return _fourier(amps, grid_p, hbar, 1, gq), gq


def find_root(
    f: Callable[[float], float],
    bracket: tuple[float, float],
    tol: float = 1e-12,
) -> float:
    """Bisection root of ``f`` inside ``bracket``.

    Deterministic: equal inputs give bit-identical output.  Raises
    ParameterRangeError when a bracket end is not finite, and
    BracketingError when f does not change sign across the bracket.
    """
    check_positive(tol, "tol")
    a, b = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ParameterRangeError(f"bracket ends must be finite, got [{a}, {b}]")
    if a > b:
        a, b = b, a
    if a == b:
        raise BracketingError("bracket endpoints coincide")
    fa = f(a)
    fb = f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise BracketingError(
            f"no sign change on [{a}, {b}]: f(a)={fa:.6g}, f(b)={fb:.6g}"
        )
    for _ in range(4096):
        if (b - a) <= tol:
            break
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break  # spacing below float resolution
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * (a + b)


@dataclass(frozen=True)
class RandomSource:
    """A seed: every read of ``rng`` replays the one PCG64 stream it keys.

    The generator comes from a SeedSequence with spawn key (0,), so equal
    seeds draw identical sequences.  A call given a source starts that
    stream afresh; pass the generator itself to continue one stream.
    """

    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", check_count(self.seed, "seed", 0))
        if self.seed > 2**64 - 1:
            raise ParameterRangeError(f"seed must fit in 64 unsigned bits, got {self.seed}")

    @property
    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=(0,))))


def as_generator(rand: "RandomSource | np.random.Generator") -> np.random.Generator:
    """A RandomSource's stream from its start, or a numpy Generator as it stands."""
    if isinstance(rand, RandomSource):
        return rand.rng
    if isinstance(rand, np.random.Generator):
        return rand
    raise ContractViolationError(
        f"expected RandomSource or numpy Generator, got {type(rand).__name__}"
    )
