"""Measurement-interleaved evolution of a strategy under the risk
Hamiltonian: the market Zeno effect.

A trader keeps quoting (is repeatedly observed on) one side of the
market.  Between observations the strategy evolves freely under H; each
observation projects back onto the initial strategy.  The survival
probability after n equally spaced measurements over total time T is

    S(n) = |<psi0| exp(-i H T / (n hbar)) |psi0>|^(2n),

which tends to 1 as n grows: sufficiently frequent observation freezes
the quoted side.  Sparse observation (small n) lets the strategy drift
toward its Fourier dual, the mechanism behind the crash narrative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    ContractViolationError,
    ParameterRangeError,
    TruncationError,
)
from .numerics import Grid, check_count, integrate
from .strategy import (
    HermiteForm,
    RiskParams,
    Strategy,
    SuperposedForm,
    UNIT_RISK,
    _hermite_ladder,
    normalize,
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ZenoRun:
    """One freezing experiment: initial strategy, horizon, measurement count.

    ``total_time`` is measured in units of the transaction time theta,
    so omega * T = 2 pi * total_time.
    """

    initial: Strategy
    total_time: float
    n_measurements: int
    risk: RiskParams = UNIT_RISK
    basis_size: int = 128
    max_basis_size: int = 2048

    def __post_init__(self) -> None:
        if not isinstance(self.initial, Strategy):
            raise ContractViolationError("initial must be a Strategy")
        if self.initial.is_improper:
            raise ContractViolationError(
                "point strategies cannot be expanded in the oscillator basis"
            )
        if not math.isfinite(self.total_time) or self.total_time < 0:
            raise ParameterRangeError(
                f"total_time must be finite and >= 0, got {self.total_time}"
            )
        check_count(self.n_measurements, "n_measurements", 1)
        check_count(self.basis_size, "basis_size", 1)
        check_count(self.max_basis_size, "max_basis_size", self.basis_size)


def _exact_level_vector(s: Strategy, risk: RiskParams) -> np.ndarray | None:
    """Kronecker coefficients for eigenfunctions and their superpositions.

    Returns None when the strategy is not an exact finite combination
    of this risk operator's eigenfunctions.
    """
    scale = _length_scale(risk)

    def matches(form: HermiteForm) -> bool:
        return math.isclose(form.length_scale, scale, rel_tol=1e-9, abs_tol=0.0)

    form = s.form
    if isinstance(form, HermiteForm):
        if not matches(form):
            return None
        vec = np.zeros(form.n + 1, dtype=complex)
        vec[form.n] = 1.0
        return vec
    if isinstance(form, SuperposedForm):
        parts = []
        for c, part in zip(form.coefficients, form.parts):
            sub = _exact_level_vector(part, risk)
            if sub is None:
                return None
            parts.append((c, sub))
        size = max(len(v) for _, v in parts)
        vec = np.zeros(size, dtype=complex)
        for c, v in parts:
            vec[: len(v)] += c * v
        return vec
    return None


def hermite_coefficients(
    s: Strategy, risk: RiskParams = UNIT_RISK, size: int = 128
) -> np.ndarray:
    """Expansion coefficients of a normalizable strategy in the risk basis.

    Exact (Kronecker) for eigenfunction combinations whose length scale
    matches the risk parameters; quadrature projection otherwise.  The
    quadrature domain is clamped to the top level's classical turning
    point: strategy mass beyond it cannot be represented at this basis
    size and shows up as a norm deficit, which is the point.
    """
    check_count(size, "size", 1)
    s = normalize(s)
    exact = _exact_level_vector(s, risk)
    if exact is not None:
        out = np.zeros(max(size, len(exact)), dtype=complex)
        out[: len(exact)] = exact
        nrm = math.sqrt(float(np.sum(np.abs(out) ** 2)))
        return out / nrm
    scale = _length_scale(risk)
    grid = _projection_grid(s, scale, size)
    # trapezoid weights folded into the amplitudes once; one dot per level
    weighted = s.amplitudes_on(grid) * grid.spacing
    weighted[[0, -1]] *= 0.5
    parts = np.stack([weighted.real, weighted.imag])
    u = grid.points / scale
    ladder = _hermite_ladder(u, np.pi ** -0.25 * np.exp(-0.5 * u * u) / math.sqrt(scale))
    coeffs = np.empty(size, dtype=complex)
    for k, level in zip(range(size), ladder):
        re, im = parts @ level
        coeffs[k] = complex(re, im)
    return coeffs


def _length_scale(risk: RiskParams) -> float:
    return math.sqrt(risk.hbar_eff / (risk.m * risk.omega))


def _projection_grid(s: Strategy, scale: float, size: int) -> Grid:
    """Symmetric grid over s's support, clamped to the top level's turning point.

    >= 8 samples per oscillation of the top level, lower-bounded for
    narrow states; the clamp bounds the node count by the basis size.
    """
    lo, hi = s.support_bounds()
    turning = math.sqrt(2.0 * size + 1.0) * scale * 1.25
    half = min(max(abs(lo), abs(hi)), turning)
    waves = half * math.sqrt(2.0 * size + 1.0) / (math.pi * scale)
    return Grid(-half, half, max(4096, 8 * math.ceil(waves)))


def _projection_norm(run: ZenoRun, size: int) -> float:
    """Squared norm of the initial strategy under the projection's quadrature.

    1, the unit norm, where the grid is clamped short of the support:
    mass beyond the turning point then shows as a deficit.
    """
    s = normalize(run.initial)
    grid = _projection_grid(s, _length_scale(run.risk), size)
    lo, hi = s.support_bounds()
    if grid.hi < max(abs(lo), abs(hi)):
        return 1.0
    return float(integrate(np.abs(s.amplitudes_on(grid)) ** 2, grid))


def _captured_coefficients(run: ZenoRun) -> np.ndarray:
    """Coefficients with guaranteed norm capture, doubling the basis as needed.

    Capture is measured against the unit norm, or else, for a support
    inside the turning point, against the norm under the projection's
    own quadrature: a sampled strategy is unit on its native nodes,
    while the projection integrates its spline interpolant, and the two
    differ by O(dx^4) of the native grid.
    """
    size = run.basis_size
    while True:
        coeffs = hermite_coefficients(run.initial, run.risk, size)
        captured = float(np.sum(np.abs(coeffs) ** 2))
        tol = 1.0 - 1e-8
        if captured >= tol or captured >= tol * _projection_norm(run, size):
            return coeffs / math.sqrt(captured)
        if size >= run.max_basis_size:
            raise TruncationError(
                f"oscillator basis of size {size} captures only {captured:.12f} "
                "of the initial norm; the strategy reaches beyond max_basis_size"
            )
        size = min(2 * size, run.max_basis_size)


def survival_probability(run: ZenoRun) -> float:
    """S(n) after n projective observations spread over the horizon.

    The evolved overlap is a pure phase sum over level weights,
    amp = sum_k |c_k|^2 exp(-i (k + 1/2) omega T / n), and
    S = |amp|^(2n).  Unitarity keeps every weight fixed, so the result
    is deterministic and lies in [0, 1].
    """
    weights = np.abs(_captured_coefficients(run)) ** 2
    return _survival(weights, run.total_time, run.n_measurements)


def _survival(weights: np.ndarray, total_time: float, n: int) -> float:
    if np.count_nonzero(weights) == 1:
        # one occupied level only gains a phase, so |amp| = 1 exactly,
        # which the modulus of a rounded phasor can miss by an ulp
        return 1.0
    omega_t = TWO_PI * total_time
    phases = np.exp(-1j * (np.arange(len(weights)) + 0.5) * omega_t / n)
    amp = complex(np.dot(weights, phases))
    overlap_sq = min(abs(amp) ** 2, 1.0)
    return float(overlap_sq**n)


@dataclass(frozen=True)
class FreezeRow:
    n: int
    survival: float


def freeze_experiment(run: ZenoRun, n_values: Sequence[int]) -> list[FreezeRow]:
    """Survival table over a sweep of measurement counts.

    Each row reruns the same horizon with a different n: the market
    reading is a monopolist quoting the demand side n times, blocking
    the drift into the supply representation.  Eigenstates freeze
    trivially (all ones); superpositions freeze only when watched
    often enough.
    """
    values = [check_count(n, "measurement count", 1) for n in n_values]
    if len(values) == 0:
        raise ContractViolationError("n_values must be nonempty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ContractViolationError("n_values must be strictly ascending")
    # level weights do not depend on n: expand the initial strategy once
    weights = np.abs(_captured_coefficients(run)) ** 2
    return [FreezeRow(n, _survival(weights, run.total_time, n)) for n in values]


def freeze_table_to_csv(rows: Sequence[FreezeRow], path: str | Path) -> None:
    """Write the survival sweep as CSV ``n,survival``."""
    with open(path, "w", newline="\n") as fh:
        fh.write("n,survival\n")
        for row in rows:
            fh.write(f"{row.n},{row.survival!r}\n")
