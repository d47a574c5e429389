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

import cmath
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
    GaussianForm,
    HermiteForm,
    RiskParams,
    Strategy,
    UNIT_RISK,
    _hermite_ground,
    _hermite_ladder,
    _leaves,
    norm,
    normalize,
)

# the oscillator basis a run starts from, and the size its doubling stops at
BASIS_SIZE = 128
MAX_BASIS_SIZE = 2048
# a recurrence mantissa past this is scaled down by it, its exponent carried apart
_RESCALE_BITS = 256
_RESCALE = 2.0**_RESCALE_BITS


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


def _gaussian_vector(form: GaussianForm, scale: float, size: int) -> np.ndarray:
    """<phi_n|psi> for n < size of a Gaussian in the basis of length ``scale``, in closed form.

    A Gaussian is a squeezed coherent state (Yuen, Phys. Rev. A 13, 2226, 1976).  With
    a = 1/(2L^2) + 1/(4w^2) and beta = c/(2w^2) + ik its coefficients obey
    c_0 = A, c_{n+1} = (B c_n + G sqrt(n) c_{n-1}) / sqrt(n + 1), where
    A = (2 pi w^2)^(-1/4) pi^(-1/4) L^(-1/2) sqrt(pi/a) exp(beta^2/(4a) - c^2/(4w^2)),
    B = sqrt(2) beta / (2aL) and G = (2w^2 - L^2)/(2w^2 + L^2); in D = 2w^2 + L^2,
    A = sqrt(2 sqrt(2) w L / D) exp(-(c^2/2 + k^2 w^2 L^2)/D + i c k L^2/D) and
    B = sqrt(2) L (c + 2i k w^2)/D.  The recurrence runs on mantissas, the binary
    exponent of A carried apart and raised as they grow, so a packet whose c_0
    underflows (far out in oscillator lengths) still gets its coefficients.
    """
    c, w2, k, ell = form.center, form.width * form.width, form.slope, scale
    d = 2.0 * w2 + ell * ell
    log_mag = 0.5 * (math.log(2.0 * math.sqrt(2.0) * form.width) + math.log(ell) - math.log(d)) - (
        0.5 * c * c + k * k * w2 * ell * ell
    ) / d
    phase = c * k * ell * ell / d
    if not (-(2.0**40) < log_mag < math.inf and math.isfinite(phase)):
        # so far out in position or slope that no coefficient below any basis size is a double
        return np.zeros(size, dtype=complex)
    b = math.sqrt(2.0) * ell * complex(c, 2.0 * k * w2) / d
    g = (2.0 * w2 - ell * ell) / d
    exp2 = math.floor(log_mag / math.log(2.0))
    cur, prev = cmath.rect(math.exp(log_mag - exp2 * math.log(2.0)), phase), 0j
    roots = np.sqrt(np.arange(size + 1.0)).tolist()
    mantissas, exponents = [], []
    for n in range(size):
        mantissas.append(cur)
        exponents.append(exp2)
        prev, cur = cur, (b * cur + g * roots[n] * prev) / roots[n + 1]
        if abs(cur) > _RESCALE:
            prev, cur, exp2 = prev / _RESCALE, cur / _RESCALE, exp2 + _RESCALE_BITS
    mantissas = np.array(mantissas, dtype=complex)
    out = np.empty(size, dtype=complex)
    out.real = np.ldexp(mantissas.real, exponents)
    out.imag = np.ldexp(mantissas.imag, exponents)
    return out


def _closed_form_vector(s: Strategy, scale: float, size: int) -> np.ndarray | None:
    """The sum over s's leaves of coefficient times the leaf's closed-form vector.

    A level at length ``scale`` is a Kronecker vector and a Gaussian of any centre,
    width and slope its recurrence; the vector is at least ``size`` long and
    reaches the highest level.  None when a leaf has no closed form here: a
    sampled table, or a level of another length.
    """
    leaves = list(_leaves(s.form))
    length = size
    for _, form in leaves:
        if isinstance(form, HermiteForm):
            if not math.isclose(form.length_scale, scale, rel_tol=1e-9, abs_tol=0.0):
                return None
            length = max(length, form.n + 1)
        elif not isinstance(form, GaussianForm):
            return None
    total = np.zeros(length, dtype=complex)
    for c, form in leaves:
        if isinstance(form, HermiteForm):
            total[form.n] += c
        else:
            total += c * _gaussian_vector(form, scale, length)
    return total


def hermite_coefficients(
    s: Strategy, risk: RiskParams = UNIT_RISK, size: int = 128
) -> np.ndarray:
    """Expansion coefficients of a normalizable strategy in the risk basis.

    Exact for levels at the risk's length, Gaussians of any centre, width
    and slope (a three-term recurrence in n), and superpositions of them;
    quadrature projection for sampled tables and levels of another length.
    Levels alone are normalised by their own norm, a bare Gaussian is unit
    by construction, and any other strategy is divided by its table norm.
    The quadrature domain is clamped to the top level's classical turning
    point: strategy mass beyond it cannot be represented at this basis
    size and shows up as a norm deficit, which is the point.
    """
    check_count(size, "size", 1)
    scale = risk.length_scale
    exact = _closed_form_vector(s, scale, size)
    if exact is not None:
        if isinstance(s.form, GaussianForm):
            return exact
        if any(isinstance(f, GaussianForm) for _, f in _leaves(s.form)):
            return exact / norm(s)
        nrm = math.sqrt(float(np.sum(np.abs(exact) ** 2)))
        if nrm == 0.0:
            raise DegenerateStateError("strategy has zero norm")
        return exact / nrm
    s = normalize(s)
    grid = _projection_grid(s, scale, size)
    # trapezoid weights folded into the amplitudes once; one dot per level
    weighted = s.amplitudes_on(grid) * grid.spacing
    weighted[[0, -1]] *= 0.5
    parts = np.stack([weighted.real, weighted.imag])
    u = grid.points / scale
    ground, shift = _hermite_ground(u)  # shifted where e^(-u^2/2) underflows
    ladder = _hermite_ladder(u, ground / math.sqrt(scale), shift)
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
