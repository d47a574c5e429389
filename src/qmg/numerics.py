"""Numerical substrate: grids, quadrature, the scaled Fourier pair, root
finding, and reproducible random streams.

The Fourier convention is the symmetric one,

    psi~(p) = (2 pi hbar)^(-1/2) Integral exp(-i p q / hbar) psi(q) dq,

realised with an FFT on uniform grids.  Forward and inverse are exact
mutual inverses on reciprocal grids, where dp * dq * n = 2 pi hbar.
"""

from __future__ import annotations

import math
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

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


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


def reciprocal_grid(grid: Grid, hbar: float = 1.0) -> Grid:
    """Conjugate-variable grid with dp chosen so dp * dq * n = 2 pi hbar.

    The zero frequency sits at index n // 2, so symmetric grids map to
    near-symmetric reciprocal grids.
    """
    if hbar <= 0:
        raise ParameterRangeError(f"hbar must be positive, got {hbar}")
    dp = TWO_PI * hbar / (grid.n * grid.spacing)
    half = grid.n // 2
    return Grid(-half * dp, (grid.n - 1 - half) * dp, grid.n)


def _checked_amplitudes(amplitudes, grid: Grid, hbar: float) -> np.ndarray:
    if hbar <= 0:
        raise ParameterRangeError(f"hbar must be positive, got {hbar}")
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
    BracketingError when f does not change sign across the bracket.
    """
    if tol <= 0:
        raise ParameterRangeError(f"tol must be positive, got {tol}")
    a, b = float(bracket[0]), float(bracket[1])
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


class RandomSource:
    """Reproducible random stream keyed by ``(seed, stream)``.

    Wraps a PCG64 generator seeded through SeedSequence spawn keys, so
    distinct streams from one seed are statistically independent while
    equal keys replay the identical sequence.
    """

    def __init__(self, seed: int, stream: int = 0) -> None:
        self.seed = check_count(seed, "seed", 0)
        self.stream = check_count(stream, "stream", 0)
        if self.seed > 2**64 - 1:
            raise ParameterRangeError(f"seed must fit in 64 unsigned bits, got {seed}")
        self._rng: np.random.Generator | None = None

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
            self._rng = np.random.Generator(np.random.PCG64(seq))
        return self._rng

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream={self.stream})"


def as_generator(rand: "RandomSource | np.random.Generator") -> np.random.Generator:
    """Accept either a RandomSource or a bare numpy Generator."""
    if isinstance(rand, RandomSource):
        return rand.rng
    if isinstance(rand, np.random.Generator):
        return rand
    raise ContractViolationError(
        f"expected RandomSource or numpy Generator, got {type(rand).__name__}"
    )
