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


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``n`` points spanning ``[lo, hi]`` inclusive."""

    lo: float
    hi: float
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool):
            raise ContractViolationError("grid size n must be an integer")
        if self.n < 8:
            raise ParameterRangeError(f"grid needs at least 8 points, got n={self.n}")
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


def fourier_q_to_p(
    amplitudes: np.ndarray, grid_q: Grid, hbar: float = 1.0
) -> tuple[np.ndarray, Grid]:
    """Transform demand-side amplitudes psi(q) to psi~(p).

    Returns the transformed amplitudes together with the reciprocal grid
    they live on.  Amplitudes must decay toward the grid edges for the
    result to approximate the continuum transform.
    """
    if hbar <= 0:
        raise ParameterRangeError(f"hbar must be positive, got {hbar}")
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (grid_q.n,):
        raise ContractViolationError(
            f"amplitudes shape {amps.shape} does not match grid size {grid_q.n}"
        )
    gp = reciprocal_grid(grid_q, hbar)
    n = grid_q.n
    dq = grid_q.spacing
    k = np.arange(n)
    # Continuum phases: psi~_j = C dq e^{-i p_j q0/h} sum_k psi_k e^{-i p0 k dq/h} e^{-2pi i jk/n}
    phased = amps * np.exp(-1j * gp.lo * (k * dq) / hbar)
    out = np.fft.fft(phased)
    out *= dq / math.sqrt(TWO_PI * hbar) * np.exp(-1j * gp.points * grid_q.lo / hbar)
    return out, gp


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
    if hbar <= 0:
        raise ParameterRangeError(f"hbar must be positive, got {hbar}")
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (grid_p.n,):
        raise ContractViolationError(
            f"amplitudes shape {amps.shape} does not match grid size {grid_p.n}"
        )
    gq = grid_q if grid_q is not None else reciprocal_grid(grid_p, hbar)
    if gq.n != grid_p.n:
        raise ContractViolationError("target grid must have the same size")
    ratio = gq.spacing * grid_p.spacing * grid_p.n / (TWO_PI * hbar)
    if abs(ratio - 1.0) > 1e-9:
        raise ContractViolationError(
            "target grid is not reciprocal to the input grid (dp*dq*n != 2*pi*hbar)"
        )
    n = grid_p.n
    dp = grid_p.spacing
    j = np.arange(n)
    phased = amps * np.exp(1j * (j * dp) * gq.lo / hbar)
    out = np.fft.ifft(phased) * n
    out *= dp / math.sqrt(TWO_PI * hbar) * np.exp(1j * grid_p.lo * gq.points / hbar)
    return out, gq


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
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
            raise ContractViolationError("seed must be an integer")
        if not isinstance(stream, (int, np.integer)) or isinstance(stream, bool):
            raise ContractViolationError("stream must be an integer")
        if seed < 0 or seed > 2**64 - 1:
            raise ParameterRangeError(f"seed must fit in 64 unsigned bits, got {seed}")
        if stream < 0:
            raise ParameterRangeError(f"stream must be non-negative, got {stream}")
        self.seed = int(seed)
        self.stream = int(stream)
        self._rng: np.random.Generator | None = None

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
            self._rng = np.random.Generator(np.random.PCG64(seq))
        return self._rng

    def spawn(self, stream: int) -> "RandomSource":
        """Fresh source on another stream of the same seed."""
        return RandomSource(self.seed, stream)

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
