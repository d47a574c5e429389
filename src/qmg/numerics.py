"""Numerical substrate: grids, quadrature, the scaled Fourier pair, root
finding, and seeds (``RandomSource``) that replay one random stream each.

The Fourier convention is the symmetric one,

    psi~(p) = (2 pi hbar)^(-1/2) Integral exp(-i p q / hbar) psi(q) dq,

realised with an FFT on uniform grids.  Forward and inverse are exact
mutual inverses on reciprocal grids, where dp * dq * n = 2 pi hbar.
"""

from __future__ import annotations

import functools
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


# Schubfach (Giulietti, "The Schubfach way to render doubles", 2020) on
# doubles: the decimal exponents k whose powers 10^-k it multiplies by
_K_MIN, _K_MAX = -324, 292
_M32 = 0xFFFF_FFFF
_M63 = (1 << 63) - 1


def _text_words(text: bytes) -> np.ndarray:
    """``text`` as four little-endian words, NUL-padded."""
    return np.frombuffer(text.ljust(32, b"\0"), dtype="<u8")


# column b: the first b bytes of four words set, for b = 0..32
_FIRST_BYTES = np.array([_text_words(b"\xff" * b) for b in range(33)]).T.copy()
# column j: a '.' in byte j, for j = 1..17; none in column 0
_POINT_BYTE = np.array([_text_words(b"\0" * j + b"." if j else b"") for j in range(18)]).T.copy()
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)


@dataclass(frozen=True)
class _TextTables:
    """The tables ``_repr_text`` reads, built on its first call.

    ``g1``, ``g1_hi``, ``g1_lo``, ``g0_hi``, ``g0_lo``: for k = _K_MIN.._K_MAX,
    g(k) = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1, in [2^125, 2^126),
    as g1 2^63 + g0, with the 32-bit halves of g1 and of g0.  ``tiny``:
    (mantissa, digits, exponent) of repr's text for ``_TINY_MANTISSAS``.  ``exponent``: for
    x = -324..308 (index x + 324), repr's exponent text "e-05" to "e+308" in
    a word, and its length in bits in ``exponent_bits``; index 633 is empty.
    """

    g1: np.ndarray
    g1_hi: np.ndarray
    g1_lo: np.ndarray
    g0_hi: np.ndarray
    g0_lo: np.ndarray
    tiny: tuple
    exponent: np.ndarray
    exponent_bits: np.ndarray


# the subnormal mantissas (all below 1e-322) whose shortest decimal has one
# digit, where both of Schubfach's candidates have two: 4.9e-323 for 5e-323
_TINY_MANTISSAS = (10, 12, 14, 16, 18, 20)


@functools.cache
def _text_tables() -> _TextTables:
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        shift = 125 - ((-k * 1741647) >> 19)  # 125 - floor(log2 10^-k)
        num, den = (num << shift, den) if shift >= 0 else (num, den << -shift)
        g.append(num // den + 1)
    g1 = np.array([v >> 63 for v in g], dtype=np.uint64)
    g0 = np.array([v & _M63 for v in g], dtype=np.uint64)
    tiny = []
    for m in _TINY_MANTISSAS:
        mantissa, exponent = repr(m * 5e-324).split("e")
        digits = mantissa.replace(".", "")
        tiny.append((m, int(digits), int(exponent) - len(digits) + 1))
    exponents = [f"e{x:+03d}".encode() for x in range(-324, 309)] + [b""]
    words = (g1, g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32,
             np.array([_text_words(t)[0] for t in exponents]),
             np.array([8 * len(t) for t in exponents], dtype=np.uint64))
    for w in words:
        w.setflags(write=False)  # one copy serves every call
    return _TextTables(*words[:5], tuple(tiny), *words[5:])


def _mul_high(a_hi, a_lo, b_hi, b_lo):
    """floor(a b / 2^64) for a = a_hi 2^32 + a_lo and b = b_hi 2^32 + b_lo with
    a_lo, b_lo < 2^32, a_hi < 2^31 and b_hi < 2^28: the middle sum stays below 2^64."""
    middle = a_lo * b_lo
    middle >>= 32
    middle += a_hi * b_lo
    middle += a_lo * b_hi
    middle >>= 32
    middle += a_hi * b_hi
    return middle


def _round_to_odd(g: tuple, cp: np.ndarray) -> np.ndarray:
    """Schubfach's r_o(g cp / 2^127) for g = g1 2^63 + g0 and cp < 2^60: the
    integer part, its low bit set when the fraction read from the top limbs is not zero."""
    g1, g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> 32, cp & _M32
    z = g1 * cp
    z >>= 1
    z += _mul_high(g0_hi, g0_lo, cp_hi, cp_lo)
    v = _mul_high(g1_hi, g1_lo, cp_hi, cp_lo)
    v += z >> 63
    z &= _M63
    z += _M63
    z >>= 63
    v |= z
    return v


def _shortest_decimal(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest decimal f 10^e that reads back as each positive finite double
    (given by its bits), the one nearest it among those, an even last digit on a
    tie: Schubfach's digits, with repr's own for the ``_TINY_MANTISSAS``."""
    table = _text_tables()
    biased = magnitude >> 52
    t = magnitude & ((1 << 52) - 1)
    c = t | (np.minimum(biased, 1) << 52)
    q = np.maximum(biased, 1).astype(np.int64) - 1075
    irregular = ((t == 0) & (biased > 1)).astype(np.uint64)  # the gap below is half the gap above
    # floor(log10 2^q), or floor(log10 (3/4) 2^q) where the gap below is halved
    k = (q * 1262611 - irregular.astype(np.int64) * 524031) >> 22
    h = (q + ((-k * 1741647) >> 19) + 2).astype(np.uint64)
    row = k - _K_MIN
    g = tuple(np.take(part, row) for part in
              (table.g1, table.g1_hi, table.g1_lo, table.g0_hi, table.g0_lo))
    cb = c << 2
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - 2 + irregular) << h)
    vbr = _round_to_odd(g, (cb + 2) << h)
    odd = c & 1  # an odd c's interval excludes its ends
    s = vb >> 2
    # one digit fewer: s' 10^(k+1) or (s' + 1) 10^(k+1), exactly one in the interval
    s10 = s // 10 * 10
    upper_in = ((s10 + 10) << 2) + odd <= vbr
    shorter = (s >= 100) & ((vbl + odd <= s10 << 2) != upper_in)
    # else s 10^k or (s + 1) 10^k: the one inside, or the nearer, or the even one
    t_in = ((s + 1) << 2) + odd <= vbr
    one_in = (vbl + odd <= s << 2) != t_in
    mid = (s << 2) + 2
    f = np.where(one_in, s + t_in, s + ((vb > mid) | ((vb == mid) & (s & 1 == 1))))
    f = np.where(shorter, np.where(upper_in, s10 + 10, s10), f)
    e = k
    if (biased == 0).any():
        for m, digits, exponent in table.tiny:
            at = (biased == 0) & (t == m)
            f[at], e[at] = digits, exponent
    zeros = np.flatnonzero(f % 10 == 0)
    while zeros.size:
        f[zeros] //= 10
        e[zeros] += 1
        zeros = zeros[f[zeros] % 10 == 0]
    return f, e


def _ascii8(x: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each x < 10^8 as ASCII, zero-padded, in a
    little-endian word: the leading digit in the lowest byte."""
    hi = x // 10000
    v = hi | ((x - hi * 10000) << 32)  # two four-digit halves in 32-bit lanes
    hi = ((v * 5243) >> 19) & 0x0000_007F_0000_007F  # // 100 per lane
    v = hi | ((v - hi * 100) << 16)  # four two-digit pairs in 16-bit lanes
    hi = ((v * 103) >> 10) & 0x000F_000F_000F_000F  # // 10 per lane
    return hi | ((v - hi * 10) << 8) | 0x3030_3030_3030_3030


# repr's text of 0.0, -0.0, inf, -inf, nan, nan (sign bit set)
_SPECIAL_TEXT = ("0.0", "-0.0", "inf", "-inf", "nan", "nan")
_SPECIAL_WORD = np.array([_text_words(t.encode())[0] for t in _SPECIAL_TEXT])
_SPECIAL_BITS = np.array([8 * len(t) for t in _SPECIAL_TEXT], dtype=np.uint64)


def _repr_text(values: np.ndarray, end: bytes) -> np.ndarray:
    """``repr(float(v)).encode()`` and an end byte for every double v, as an
    "S32" array of ``values``' shape: each element left-aligned, NUL-padded,
    so ``tolist`` returns the bytes themselves.  ``end`` is one byte, or one
    per column (the last axis).

    Every byte is repr's.  The digits are Schubfach's (``_shortest_decimal``),
    laid out as repr does: positional, with a trailing ".0" for an integer,
    when -4 < decpt <= 16 (decpt the decimal point's place after the first
    digit), else d.ddde+XX.  The text is built as four little-endian words
    per value in uint64 arithmetic, with no Python call per value; a caller
    with many values passes them in blocks of a few thousand.
    """
    x = np.ascontiguousarray(values, dtype=float)
    bits = x.ravel().view(np.uint64)
    ends = np.broadcast_to(np.frombuffer(end, dtype=np.uint8).astype(np.uint64), x.shape).ravel()
    magnitude = bits & _M63
    special = (magnitude == 0) | (magnitude >= 0x7FF0_0000_0000_0000)
    if not special.any():
        return _finite_text(bits, ends).view("S32").reshape(x.shape)
    text = np.zeros((bits.size, 4), dtype="<u8")
    regular = ~special
    text[regular] = _finite_text(bits[regular], ends[regular])
    key = 2 * (magnitude[special] != 0) + 2 * (magnitude[special] > 0x7FF0_0000_0000_0000)
    key += (bits[special] >> 63).astype(np.intp)
    text[special, 0] = _SPECIAL_WORD[key] | ends[special] << _SPECIAL_BITS[key]
    return text.view("S32").reshape(x.shape)


def _finite_text(bits: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``_repr_text``'s four words per value for the bits of finite nonzero doubles,
    one row per value, each text followed by its byte of ``ends``."""
    negative = bits >> 63
    f, e = _shortest_decimal(bits & _M63)
    # digits in f: t = floor(log10 2^b) for f's bit length b (or b + 1, where
    # f rounds up to a power of 2) is one of floor(log10 f) and the next
    b = (f.astype(float).view(np.uint64) >> 52).astype(np.intp) - 1022
    t = (b * 1233) >> 12
    n = t + (f >= _POW10[t])
    decpt = n + e
    positional = (decpt > -4) & (decpt <= 16)
    # the digit string D: "0" * lead + f's digits, then "0"s; its length, and where the point goes
    lead = positional * np.maximum(1 - decpt, 0)
    length = np.where(positional, np.maximum(lead + n, decpt + 1), n)
    point = np.where(positional, np.maximum(decpt, 1), 1)
    dot = positional | (n > 1)
    # D's first 24 digits are those of V = f 10^shift < 10^24, eight to a word
    shift = 24 - lead - n
    above_8 = 8 - shift
    upper = f // _POW10[np.maximum(above_8, 0)] * _POW10[np.maximum(-above_8, 0)]  # V // 10^8
    chunks = np.empty((3, bits.size), dtype=np.uint64)
    chunks[0] = upper // 10**8
    chunks[1] = upper % 10**8
    chunks[2] = f % 10**8 * _POW10[np.minimum(shift, 8)] % 10**8
    # the text as four words per value, one row per word
    text = np.zeros((4, bits.size), dtype="<u8")
    text[:3] = _ascii8(chunks) & np.take(_FIRST_BYTES[:3], length, axis=1)
    # open a byte for the point: the bytes from `point` on move one on
    keep = np.take(_FIRST_BYTES, point, axis=1)
    moved = text & ~keep
    text &= keep
    text |= moved << 8
    text[1:] |= moved[:-1] >> 56
    text |= np.take(_POINT_BYTE, point * dot, axis=1)
    # the exponent, "e-05" to "e+308", then the end byte, after the digits
    tables = _text_tables()
    row = np.where(positional, 633, decpt + 323)
    suffix = tables.exponent[row] | ends << tables.exponent_bits[row]
    at = (length + dot).astype(np.uint64) << 3  # in bits
    index = (at >> 6).astype(np.intp) * bits.size + np.arange(bits.size)  # the word, in text.ravel()
    at &= 63
    flat = text.ravel()
    flat[index] |= suffix << at
    flat[index + bits.size] |= suffix >> (64 - at)
    # a minus sign moves the text a byte on
    if negative.any():
        signed = text << 8
        signed[1:] |= text[:-1] >> 56
        signed[0] |= 0x2D
        np.copyto(text, signed, where=negative == 1)
    return np.ascontiguousarray(text.T)


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
