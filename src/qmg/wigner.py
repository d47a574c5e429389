"""Phase-space analysis of trader strategies.

The central object is the Wigner quasi-density

    W(p, q) = (1/h) Integral exp(-i p x / hbar) psi(q + x/2) psi*(q - x/2) dx,

h = 2 pi hbar, whose marginals reproduce the demand and supply price
distributions.  W may dip below zero; a strategy whose density does is
a giffen strategy, and by Hudson's theorem the only pure strategies
with everywhere non-negative W are Gaussian wave packets.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    ContractViolationError,
    DegenerateDensityError,
    ImproperStateError,
    ParameterRangeError,
    RepresentationError,
)
from .numerics import Grid, check_count
from .strategy import (
    GaussianForm,
    HermiteForm,
    Representation,
    RiskParams,
    SampledForm,
    Strategy,
    SuperposedForm,
    _density_moments,
    moments as strategy_moments,
)

TWO_PI = 2.0 * math.pi
# highest level excited_wigner evaluates
EXCITED_MAX_LEVEL = 512


@dataclass(frozen=True)
class DensityMoments:
    p_mean: float
    q_mean: float
    p_std: float
    q_std: float
    correlation: float


@dataclass(frozen=True, eq=False)
class PhaseSpaceDensity:
    """Quasi-probability density W(p, q) tabulated on a grid pair.

    ``values[i, j]`` is W at (p_grid.points[i], q_grid.points[j]).
    ``kind`` records whether the density came from a single state or a
    statistical mixture.
    """

    values: np.ndarray
    p_grid: Grid
    q_grid: Grid
    hbar: float
    kind: str = "pure"

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.p_grid.n, self.q_grid.n):
            raise ContractViolationError(
                f"values shape {vals.shape} does not match grids "
                f"({self.p_grid.n}, {self.q_grid.n})"
            )
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ParameterRangeError(f"hbar must be positive and finite, got {self.hbar}")
        if self.kind not in ("pure", "mixture"):
            raise ContractViolationError(f"kind must be pure or mixture, got {self.kind!r}")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def mass(self) -> float:
        return float(
            np.trapezoid(
                np.trapezoid(self.values, dx=self.q_grid.spacing, axis=1),
                dx=self.p_grid.spacing,
            )
        )

    def marginal_q(self) -> np.ndarray:
        """Demand-side price density, Integral W dp."""
        return np.trapezoid(self.values, dx=self.p_grid.spacing, axis=0)

    def marginal_p(self) -> np.ndarray:
        """Supply-side price density, Integral W dq."""
        return np.trapezoid(self.values, dx=self.q_grid.spacing, axis=1)

    def moments(self) -> DensityMoments:
        """Means, spreads and correlation of W.

        Means and spreads come from the two marginals; only the
        covariance needs the full grid.
        """
        total = self.mass()
        if abs(total) < 1e-12:
            raise DegenerateDensityError("density has vanishing total mass")
        pm, pvar = _density_moments(self.marginal_p(), self.p_grid)
        qm, qvar = _density_moments(self.marginal_q(), self.q_grid)
        q_weighted = np.trapezoid(
            self.values * (self.q_grid.points - qm), dx=self.q_grid.spacing, axis=1
        )
        cov = float(
            np.trapezoid(q_weighted * (self.p_grid.points - pm), dx=self.p_grid.spacing)
        ) / total
        p_std = math.sqrt(max(pvar, 0.0))
        q_std = math.sqrt(max(qvar, 0.0))
        corr = cov / (p_std * q_std) if p_std > 0 and q_std > 0 else 0.0
        return DensityMoments(pm, qm, p_std, q_std, corr)

    def min_point(self) -> tuple[float, float, float]:
        """Most negative value and where it sits: (value, p, q)."""
        idx = int(np.argmin(self.values))
        i, j = divmod(idx, self.q_grid.n)
        return (
            float(self.values[i, j]),
            float(self.p_grid.points[i]),
            float(self.q_grid.points[j]),
        )

    def to_csv(self, path: str | Path) -> None:
        """Write rows p,q,w in row-major order (p outer, q inner)."""
        q_text = [repr(x) for x in self.q_grid.points.tolist()]
        with open(path, "w", newline="\n") as fh:
            fh.write("p,q,w\n")
            for p, row in zip(self.p_grid.points.tolist(), self.values.tolist()):
                lead = repr(p) + ","
                fh.write("".join(f"{lead}{q},{w!r}\n" for q, w in zip(q_text, row)))


def _resolve_hbar(s: Strategy, hbar: float | None) -> float:
    if hbar is not None:
        if not (hbar > 0 and math.isfinite(hbar)):
            raise ParameterRangeError(f"hbar must be positive and finite, got {hbar}")
        return float(hbar)
    if isinstance(s.form, HermiteForm):
        return s.form.risk.hbar_eff
    return 1.0


def _slope_bound(form) -> float:
    if isinstance(form, GaussianForm):
        return abs(form.slope)
    if isinstance(form, SuperposedForm):
        return max(_slope_bound(p.form) for p in form.parts)
    return 0.0


def _sample_spacing(form) -> float:
    if isinstance(form, SampledForm):
        return form.grid.spacing
    if isinstance(form, SuperposedForm):
        return min(_sample_spacing(p.form) for p in form.parts)
    return math.inf


def wigner_transform(
    s: Strategy,
    p_grid: Grid | None = None,
    q_grid: Grid | None = None,
    hbar: float | None = None,
) -> PhaseSpaceDensity:
    """Numerical Wigner transform of a normalizable strategy.

    Default grids cover eight standard deviations of each marginal with
    241 points; the default p-grid reads the strategy's cached supply
    dual, so it needs a demand-representation strategy.  The chord
    integral is done by trapezoid quadrature with the x step chosen
    against the Nyquist limit of the kernel, so oscillatory (sloped or
    superposed) strategies stay resolved.

    The step is rounded down to dx = 2h/r (h the q spacing, r an
    integer), so every chord end q_j +- x_m/2 lies on the half-step
    grid q_lo + l h/r and psi is evaluated once, there.  The chord
    C(x) = psi(q + x/2) psi*(q - x/2) obeys C(-x) = conj C(x), so only
    x >= 0 is summed and the real part doubled.  The sum over x at
    every p is a chirp-z transform (Bluestein): O(N log N) per q column,
    done in column blocks whose FFT buffer stays near 4 MB.
    """
    if not isinstance(s, Strategy):
        raise ContractViolationError("wigner_transform expects a Strategy")
    if s.is_improper:
        raise ImproperStateError("point strategies have no Wigner density")
    hb = _resolve_hbar(s, hbar)
    if q_grid is None:
        lo, hi = s.support_bounds()
        q_grid = Grid(lo, hi, 241)
    if p_grid is None:
        if s.rep is not Representation.DEMAND:
            raise RepresentationError("the default p-grid needs a demand-representation strategy")
        pm, ps = strategy_moments(s.dual(_wigner_risk(hb)))
        span = max(8.0 * ps, 1e-6)
        p_grid = Grid(pm - span, pm + span, 241)

    # chord grid: resolve both the kernel oscillation at pmax and any
    # intrinsic phase slope of the amplitudes
    p_abs = max(abs(p_grid.lo), abs(p_grid.hi))
    freq = p_abs / hb + _slope_bound(s.form)
    dx_nyquist = math.pi / freq if freq > 0 else math.inf
    dx_max = min(q_grid.spacing, 0.5 * dx_nyquist, _sample_spacing(s.form))
    h, nq, n_p = q_grid.spacing, q_grid.n, p_grid.n
    r = math.ceil(2.0 * h / dx_max)
    dx = 2.0 * h / r
    # chords reach x = +-(q_hi - q_lo); x_m = m dx, m = 0..m_top
    m_top = math.ceil((nq - 1) * r / 2)
    half_grid = q_grid.lo + np.arange(-m_top, (nq - 1) * r + m_top + 1) * (h / r)
    windows = np.lib.stride_tricks.sliding_window_view(s.evaluate(half_grid), m_top + 1)
    plus = windows[m_top::r]  # row j: psi(q_j + x_m / 2), m ascending
    minus = windows[::r][:nq, ::-1]  # row j: psi(q_j - x_m / 2)

    # Bluestein: p_i x_m / hb = (p_lo x_m + alpha (i^2 + m^2 - (i - m)^2) / 2) / hb
    m = np.arange(m_top + 1)
    alpha = p_grid.spacing * dx
    pre = np.exp(-1j * (p_grid.lo * dx * m + 0.5 * alpha * m * m) / hb)
    pre[0] *= 0.5  # the x = 0 chord is real and counted once after doubling
    k = np.arange(n_p)
    post = np.exp(-0.5j * alpha * k * k / hb)
    n_fft = 1 << (m_top + n_p - 1).bit_length()
    chirp = np.zeros(n_fft, dtype=complex)
    lags = np.arange(-m_top, n_p)  # negative lags wrap: a circular convolution
    chirp[lags] = np.exp(0.5j * alpha * lags * lags / hb)
    chirp_f = np.fft.fft(chirp)

    values = np.empty((n_p, nq))
    block = max(1, 2**18 // n_fft)  # 4 MB of complex FFT buffer per block
    for j0 in range(0, nq, block):
        chord = plus[j0 : j0 + block] * np.conj(minus[j0 : j0 + block])
        chord *= pre
        buf = np.fft.fft(chord, n_fft)
        buf *= chirp_f
        np.fft.ifft(buf, out=buf)
        values[:, j0 : j0 + block] = (buf[:, :n_p] * post).real.T
    values *= dx / (math.pi * hb)  # 2 Re(...) dx / (2 pi hb)
    return PhaseSpaceDensity(values, p_grid, q_grid, hb, kind="pure")


def _wigner_risk(hbar: float) -> RiskParams:
    # helper risk whose effective dispersion equals the requested hbar
    return RiskParams(hbar_e=hbar, theta=TWO_PI)


# ---------------------------------------------------------------------------
# closed-form densities


@dataclass(frozen=True)
class CoherentParams:
    """Correlated coherent strategy parameters.

    r is the correlation coefficient (|r| < 1 for a finite spread),
    eta sets the dispersion scale: Delta_p = hbar / (2 eta) and
    Delta_q = eta / sqrt(1 - r^2).  p0, q0 center the packet.
    """

    r: float
    eta: float
    p0: float = 0.0
    q0: float = 0.0

    def __post_init__(self) -> None:
        if not (-1.0 <= self.r <= 1.0):
            raise ParameterRangeError(f"correlation must lie in [-1, 1], got {self.r}")
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ParameterRangeError(f"eta must be positive and finite, got {self.eta}")
        if not (math.isfinite(self.p0) and math.isfinite(self.q0)):
            raise ParameterRangeError(f"center ({self.p0}, {self.q0}) must be finite")

    def delta_p(self, hbar: float) -> float:
        return hbar / (2.0 * self.eta)

    def delta_q(self) -> float:
        return self.eta / math.sqrt(1.0 - self.r * self.r)


def coherent_wigner(
    params: CoherentParams,
    hbar: float = 1.0,
    p_grid: Grid | None = None,
    q_grid: Grid | None = None,
) -> PhaseSpaceDensity:
    """Wigner density of a correlated coherent strategy.

    An everywhere positive Gaussian with marginal spreads Delta_p and
    Delta_q, cross term +2r in the exponent, and uncertainty product
    saturating Delta_p Delta_q sqrt(1 - r^2) = hbar / 2.  The + sign on
    the cross term makes the measured p-q correlation equal -r.
    """
    if hbar <= 0:
        raise ParameterRangeError(f"hbar must be positive, got {hbar}")
    if abs(params.r) == 1.0:
        raise DegenerateDensityError("|r| = 1 collapses the density to a line")
    dp_w = params.delta_p(hbar)
    dq_w = params.delta_q()
    if q_grid is None:
        q_grid = Grid(params.q0 - 8 * dq_w, params.q0 + 8 * dq_w, 241)
    if p_grid is None:
        p_grid = Grid(params.p0 - 8 * dp_w, params.p0 + 8 * dp_w, 241)
    u = (p_grid.points[:, None] - params.p0) / dp_w
    v = (q_grid.points[None, :] - params.q0) / dq_w
    one_m = 1.0 - params.r * params.r
    # det check: (Delta_p Delta_q)^2 (1 - r^2) = hbar^2/4, so the peak is 1/(pi hbar)
    quad = (u * u + 2.0 * params.r * u * v + v * v) / (2.0 * one_m)
    values = np.exp(-quad) / (TWO_PI * dp_w * dq_w * math.sqrt(one_m))
    return PhaseSpaceDensity(values, p_grid, q_grid, hbar, kind="pure")


def _laguerre_ladder(z: np.ndarray) -> Iterator[np.ndarray]:
    """e^{-z/2} L_k(z) for k = 0, 1, 2, ... by the scaled three-term recurrence.

    The bare polynomial reaches ~e^{z/2} and overflows around z = 1400;
    the scaled sequence is bounded by 1 in magnitude for z >= 0.  Levels
    are computed lazily, one per ``next``.
    """
    m_prev = np.exp(-0.5 * z)
    yield m_prev
    m_cur = (1.0 - z) * m_prev
    for k in itertools.count(1):
        yield m_cur
        m_prev, m_cur = m_cur, ((2 * k + 1 - z) * m_cur - k * m_prev) / (k + 1)


def _per_distinct(z: np.ndarray, f) -> np.ndarray:
    """f applied once per distinct value of z, gathered back to z's shape.

    z = 4H/(hbar omega) repeats across the grid (H is even in p and in
    q), so a level sum over the distinct values does a third to a half
    of the work.  f is elementwise, so every gathered value carries the
    same bits as f(z) itself.
    """
    distinct, inverse = np.unique(z, return_inverse=True)
    return f(distinct)[inverse.reshape(z.shape)]


def _oscillator_h(
    p_grid: Grid, q_grid: Grid, risk: RiskParams
) -> np.ndarray:
    """H on the grid, refused where it or z = 4H/(hbar omega) would overflow.

    Both grow with |p| and |q|, so the corner farthest out bounds them;
    checked there in numpy scalars, where an overflow or a zero hbar
    omega gives inf or nan, before any array overflows.
    """
    p_top = max(-p_grid.lo, p_grid.hi)
    q_top = max(-q_grid.lo, q_grid.hi)
    omega = np.float64(risk.omega)
    with np.errstate(all="ignore"):
        h_top = p_top * p_top / (2.0 * risk.m) + 0.5 * risk.m * omega * omega * q_top * q_top
        z_top = 4.0 * h_top / (risk.hbar_eff * omega)
    if not np.isfinite(z_top):
        raise ParameterRangeError(
            f"the risk Hamiltonian overflows a double on the grid corner ({p_top}, {q_top})"
        )
    p = p_grid.points[:, None]
    q = q_grid.points[None, :]
    return p * p / (2.0 * risk.m) + 0.5 * risk.m * risk.omega**2 * q * q


def _oscillator_grids(
    n_level: float, risk: RiskParams, p_grid: Grid | None, q_grid: Grid | None
) -> tuple[Grid, Grid]:
    hb = risk.hbar_eff
    sq = math.sqrt((n_level + 0.5) * hb / (risk.m * risk.omega))
    sp = math.sqrt((n_level + 0.5) * hb * risk.m * risk.omega)
    if q_grid is None:
        q_grid = Grid(-8 * sq, 8 * sq, 241)
    if p_grid is None:
        p_grid = Grid(-8 * sp, 8 * sp, 241)
    return p_grid, q_grid


def excited_wigner(
    n: int,
    risk: RiskParams,
    p_grid: Grid | None = None,
    q_grid: Grid | None = None,
) -> PhaseSpaceDensity:
    """Closed-form Wigner density of the n-th risk eigenstate.

    W_n = ((-1)^n / (pi hbar)) e^{-2H/(hbar omega)} L_n(4H/(hbar omega))
    with H the oscillator Hamiltonian of the risk parameters, for
    n <= EXCITED_MAX_LEVEL.  The Laguerre ladder runs once per distinct
    value of z = 4H/(hbar omega) on the grid; the values are the same,
    bit for bit, as a ladder over every grid point.
    """
    check_count(n, "level n", 0)
    if n > EXCITED_MAX_LEVEL:
        raise ParameterRangeError(
            f"level {n} exceeds the supported maximum {EXCITED_MAX_LEVEL}"
        )
    hb = risk.hbar_eff
    p_grid, q_grid = _oscillator_grids(float(n), risk, p_grid, q_grid)
    z = 4.0 * _oscillator_h(p_grid, q_grid, risk) / (hb * risk.omega)
    sign = (-1.0) ** n / (math.pi * hb)

    def level_n(u: np.ndarray) -> np.ndarray:
        return sign * next(itertools.islice(_laguerre_ladder(u), n, None))

    values = _per_distinct(z, level_n)
    return PhaseSpaceDensity(values, p_grid, q_grid, hb, kind="pure")


def thermal_wigner(
    beta: float,
    risk: RiskParams,
    p_grid: Grid | None = None,
    q_grid: Grid | None = None,
    mode: str = "closed",
    series_terms: int = 200,
) -> PhaseSpaceDensity:
    """Gibbs mixture of risk eigenstates at inverse temperature beta.

    mode="closed" uses W = (omega / 2 pi) x e^{-x H} with
    x = (2 / hbar omega) tanh(beta hbar omega / 2); mode="series" sums
    the level densities with geometric weights, which converges to the
    closed form and is kept for cross-checks.  All ``series_terms``
    levels are summed, in order, once per distinct value of
    z = 4H/(hbar omega) on the grid, and gathered back: the same values,
    bit for bit, as the sum over every grid point.  A beta so small that
    the thermal spread overflows, or a grid on which H overflows, raises
    ParameterRangeError.
    """
    if not (beta > 0 and math.isfinite(beta)):
        raise ParameterRangeError(f"beta must be positive and finite, got {beta}")
    if mode not in ("closed", "series"):
        raise ContractViolationError(f"mode must be closed or series, got {mode!r}")
    hb = risk.hbar_eff
    x = (2.0 / (hb * risk.omega)) * math.tanh(0.5 * beta * hb * risk.omega)
    scaled = hb * risk.omega * x
    spread = 1.0 / scaled if scaled > 0 else math.inf
    if not math.isfinite(spread):
        raise ParameterRangeError(f"beta {beta} is too small: the thermal spread overflows")
    # thermal spread expressed as an effective level count for the grids
    level = max(spread - 0.5, 0.0)
    p_grid, q_grid = _oscillator_grids(level + 0.5, risk, p_grid, q_grid)
    h = _oscillator_h(p_grid, q_grid, risk)
    if mode == "closed":
        values = (risk.omega / TWO_PI) * x * np.exp(-x * h)
        return PhaseSpaceDensity(values, p_grid, q_grid, hb, kind="mixture")
    check_count(series_terms, "series_terms", 1)
    s = math.exp(-beta * hb * risk.omega)

    def gibbs_sum(u: np.ndarray) -> np.ndarray:
        total = np.zeros_like(u)
        for k, level in zip(range(series_terms), _laguerre_ladder(u)):
            weight = (1.0 - s) * s**k  # Gibbs weight of level k
            total += weight * ((-1.0) ** k / (math.pi * hb)) * level
        return total

    values = _per_distinct(4.0 * h / (hb * risk.omega), gibbs_sum)
    return PhaseSpaceDensity(values, p_grid, q_grid, hb, kind="mixture")


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class GiffenReport:
    """Outcome of a negativity scan over a phase-space density."""

    negative: bool
    min_value: float
    witness: tuple[float, float] | None
    tolerance: float

    def __bool__(self) -> bool:
        return self.negative


def is_giffen(d: PhaseSpaceDensity, tol: float | None = None) -> GiffenReport:
    """Scan for negativity; a giffen strategy has W < -tol somewhere."""
    if not isinstance(d, PhaseSpaceDensity):
        raise ContractViolationError("is_giffen expects a PhaseSpaceDensity")
    peak = float(np.max(np.abs(d.values)))
    if tol is None:
        tol = 1e-9 * max(peak, 1.0)
    if not (tol >= 0 and math.isfinite(tol)):
        raise ParameterRangeError(f"tolerance must be finite and non-negative, got {tol}")
    mn, p_at, q_at = d.min_point()
    if mn < -tol:
        return GiffenReport(True, mn, (p_at, q_at), tol)
    return GiffenReport(False, mn, None, tol)


class HudsonClass(enum.Enum):
    GAUSSIAN_POSITIVE = "gaussian-positive"
    NON_GAUSSIAN_NEGATIVE = "non-gaussian-negative"


@dataclass(frozen=True)
class HudsonReport:
    classification: HudsonClass
    min_value: float
    witness: tuple[float, float] | None
    density: PhaseSpaceDensity


def hudson_check(
    s: Strategy,
    p_grid: Grid | None = None,
    q_grid: Grid | None = None,
    hbar: float | None = None,
    tol: float | None = None,
) -> HudsonReport:
    """Classify a pure strategy by Wigner positivity.

    Hudson's theorem: a pure state has an everywhere non-negative
    Wigner function exactly when it is a Gaussian wave packet.  Mixed
    densities are out of scope; pass strategies only.
    """
    if not isinstance(s, Strategy):
        raise ContractViolationError(
            "hudson_check classifies pure strategies, not densities"
        )
    d = wigner_transform(s, p_grid=p_grid, q_grid=q_grid, hbar=hbar)
    report = is_giffen(d, tol=tol)
    cls = (
        HudsonClass.NON_GAUSSIAN_NEGATIVE
        if report.negative
        else HudsonClass.GAUSSIAN_POSITIVE
    )
    return HudsonReport(cls, report.min_value, report.witness, d)


# ---------------------------------------------------------------------------
# dominant strategy curves


@dataclass(frozen=True, eq=False)
class DominantCurves:
    """Demand and supply cumulative curves sliced from a density.

    F_d(ln c) accumulates the q-slice of W at fixed p; F_s(ln c)
    accumulates the p-slice up to -ln c.  For positive densities both
    are monotone; giffen densities may break that, which the flags
    record.  Curves are renormalized to end at 1 when the slice carries
    usable mass.
    """

    lnc: np.ndarray
    demand: np.ndarray
    supply: np.ndarray
    p_slice: float
    q_slice: float
    demand_monotone: bool
    supply_monotone: bool
    demand_normalized: bool
    supply_normalized: bool

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("lnc,Fd,Fs\n")
            for x, fd, fs in zip(self.lnc, self.demand, self.supply):
                fh.write(f"{float(x)!r},{float(fd)!r},{float(fs)!r}\n")


def _cumulative_slice(slice_vals: np.ndarray, grid: Grid) -> tuple[np.ndarray, bool, bool]:
    # spline antiderivative: trapezoid accumulation at typical grid sizes
    # (n ~ 241) leaves O(1e-4) error, two orders too coarse for the curves
    cum = CubicSpline(grid.points, slice_vals).antiderivative()(grid.points)
    if not np.all(np.isfinite(cum)):
        # the spline's powers of the spacing overflow, or its coefficients underflow
        raise ParameterRangeError(
            f"the density slice over [{grid.lo}, {grid.hi}] has no finite integral in double precision"
        )
    cum = cum - cum[0]
    total = cum[-1]
    scale = float(np.max(np.abs(slice_vals))) * (grid.hi - grid.lo)
    normalized = abs(total) > 1e-9 * max(scale, 1e-300)
    if normalized:
        cum = cum / total
    monotone = bool(np.all(np.diff(cum) >= -1e-12))
    return cum, monotone, normalized


def dominant_curves(
    d: PhaseSpaceDensity,
    p_slice: float | None = None,
    q_slice: float | None = None,
) -> DominantCurves:
    """Cut cumulative demand and supply curves out of a density.

    Slices default to the density's mean point.  The requested slice is
    snapped to the nearest grid line.
    """
    if not isinstance(d, PhaseSpaceDensity):
        raise ContractViolationError("dominant_curves expects a PhaseSpaceDensity")
    mom = d.moments() if (p_slice is None or q_slice is None) else None
    p_at = float(p_slice) if p_slice is not None else mom.p_mean
    q_at = float(q_slice) if q_slice is not None else mom.q_mean
    if not d.p_grid.contains(p_at):
        raise ParameterRangeError(f"p_slice {p_at} outside grid [{d.p_grid.lo}, {d.p_grid.hi}]")
    if not d.q_grid.contains(q_at):
        raise ParameterRangeError(f"q_slice {q_at} outside grid [{d.q_grid.lo}, {d.q_grid.hi}]")
    i = int(round((p_at - d.p_grid.lo) / d.p_grid.spacing))
    j = int(round((q_at - d.q_grid.lo) / d.q_grid.spacing))
    i = min(max(i, 0), d.p_grid.n - 1)
    j = min(max(j, 0), d.q_grid.n - 1)

    fd, fd_mono, fd_norm = _cumulative_slice(d.values[i, :], d.q_grid)
    gs, gs_mono, gs_norm = _cumulative_slice(d.values[:, j], d.p_grid)
    # supply curve at ln c integrates the p-slice up to -ln c
    lnc = d.q_grid.points
    fs = np.interp(-lnc, d.p_grid.points, gs, left=0.0, right=float(gs[-1]))
    return DominantCurves(
        lnc=lnc.copy(),
        demand=fd,
        supply=fs,
        p_slice=float(d.p_grid.points[i]),
        q_slice=float(d.q_grid.points[j]),
        demand_monotone=fd_mono,
        supply_monotone=gs_mono,
        demand_normalized=fd_norm,
        supply_normalized=gs_norm,
    )
