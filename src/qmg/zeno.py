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
    DegenerateStateError,
    ParameterRangeError,
    TruncationError,
)
from .numerics import TWO_PI, Grid, check_count
from .strategy import (
    HermiteForm,
    RiskParams,
    Strategy,
    SuperposedForm,
    UNIT_RISK,
    _hermite_ladder,
    normalize,
)

# the oscillator basis a run starts from, and the size its doubling stops at
BASIS_SIZE = 128
MAX_BASIS_SIZE = 2048


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


def _exact_level_vector(s: Strategy, risk: RiskParams) -> np.ndarray | None:
    """Kronecker coefficients for eigenfunctions and their superpositions.

    Returns None when the strategy is not an exact finite combination
    of this risk operator's eigenfunctions.
    """
    scale = risk.length_scale

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
    exact = _exact_level_vector(s, risk)
    if exact is not None:  # normalised here, by the levels' own norm
        out = np.zeros(max(size, len(exact)), dtype=complex)
        out[: len(exact)] = exact
        nrm = math.sqrt(float(np.sum(np.abs(out) ** 2)))
        if nrm == 0.0:
            raise DegenerateStateError("strategy has zero norm")
        return out / nrm
    s = normalize(s)
    scale = risk.length_scale
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


def _captured_coefficients(run: ZenoRun) -> np.ndarray:
    """Coefficients capturing the unit norm, which a sampled strategy has under
    the interpolant the projection integrates, doubling the basis as needed."""
    size = BASIS_SIZE
    while True:
        coeffs = hermite_coefficients(run.initial, run.risk, size)
        captured = float(np.sum(np.abs(coeffs) ** 2))
        if captured >= 1.0 - 1e-8:
            return coeffs / math.sqrt(captured)
        if size >= MAX_BASIS_SIZE:
            raise TruncationError(
                f"oscillator basis of size {size} captures only {captured:.12f} "
                "of the initial norm; the strategy reaches beyond the largest basis"
            )
        size *= 2


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
