"""Trader strategies as wavefunctions over log-price.

A strategy assigns complex amplitudes to log-prices.  In the demand
representation the squared modulus |<q|psi>|^2 is the distribution of
logarithms of buying prices the trader is prepared to pay; the supply
representation <p|psi> is the Fourier dual (scaled by the economical
Planck constant) and plays the same role for selling.  Discrete forms
(a delta is the one-atom case) are improper: they have well-defined
probabilities but no finite norm, so operations that need L2 structure
reject them.
"""

from __future__ import annotations

import csv
import enum
import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence, Union

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    ContractViolationError,
    DegenerateStateError,
    ImproperStateError,
    ParameterRangeError,
    RepresentationError,
)
from .numerics import (
    Grid,
    RandomSource,
    as_generator,
    check_count,
    fourier_p_to_q,
    fourier_q_to_p,
    integrate,
)

TWO_PI = 2.0 * math.pi
# support half-width in standard deviations, and the default grid's node count
_SUPPORT_SIGMAS = 8.0
_DEFAULT_GRID_N = 2048


class Representation(enum.Enum):
    """Which side of the market the amplitudes describe."""

    DEMAND = "demand"
    SUPPLY = "supply"


@dataclass(frozen=True)
class RiskParams:
    """Market-scale constants for risk analysis.

    hbar_e    economical Planck constant (dispersion scale of the
              demand/supply Fourier pair)
    theta     characteristic transaction time; the angular frequency of
              the risk oscillator is omega = 2 pi / theta
    m         inertia-like weight of the supply quadrature
    theta_nc  noncommutative deformation parameter Theta; zero recovers
              the plain model
    """

    hbar_e: float
    theta: float
    m: float = 1.0
    theta_nc: float = 0.0

    def __post_init__(self) -> None:
        for name in ("hbar_e", "theta", "m", "theta_nc"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterRangeError(f"{name} must be finite, got {value}")
        if self.hbar_e <= 0:
            raise ParameterRangeError(f"hbar_e must be positive, got {self.hbar_e}")
        if self.theta <= 0:
            raise ParameterRangeError(f"theta must be positive, got {self.theta}")
        if self.m <= 0:
            raise ParameterRangeError(f"m must be positive, got {self.m}")
        if self.theta_nc < 0:
            raise ParameterRangeError(
                f"theta_nc must be non-negative, got {self.theta_nc}"
            )

    @property
    def omega(self) -> float:
        return TWO_PI / self.theta

    @property
    def h_e(self) -> float:
        """Unreduced economical Planck constant, h = 2 pi hbar_e."""
        return TWO_PI * self.hbar_e

    @property
    def hbar_eff(self) -> float:
        """Effective dispersion scale sqrt(hbar_e^2 + Theta^2)."""
        return math.hypot(self.hbar_e, self.theta_nc)

    @classmethod
    def from_omega(
        cls, hbar_e: float, omega: float, m: float = 1.0, theta_nc: float = 0.0
    ) -> "RiskParams":
        if omega <= 0:
            raise ParameterRangeError(f"omega must be positive, got {omega}")
        return cls(hbar_e=hbar_e, theta=TWO_PI / omega, m=m, theta_nc=theta_nc)


UNIT_RISK = RiskParams.from_omega(1.0, 1.0)


# ---------------------------------------------------------------------------
# strategy forms


@dataclass(frozen=True)
class GaussianForm:
    """exp(-(x - center)^2 / (4 width^2) + i slope x), unit normalized.

    ``width`` is the standard deviation of the squared modulus, so the
    price distribution is N(center, width^2).  ``slope`` is a linear
    phase; under the Fourier transform it shifts the dual variable by
    hbar * slope.
    """

    center: float
    width: float
    slope: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.center):
            raise ParameterRangeError("gaussian center must be finite")
        if not (self.width > 0 and math.isfinite(self.width)):
            raise ParameterRangeError(f"gaussian width must be positive, got {self.width}")
        if not math.isfinite(self.slope):
            raise ParameterRangeError("gaussian slope must be finite")


@dataclass(frozen=True)
class HermiteForm:
    """n-th eigenfunction of the risk-inclination oscillator."""

    n: int
    risk: RiskParams = UNIT_RISK

    def __post_init__(self) -> None:
        check_count(self.n, "hermite order n", 0)

    @property
    def length_scale(self) -> float:
        # sqrt(hbar_eff / (m omega)); std of |psi_n|^2 is this times sqrt(n + 1/2)
        r = self.risk
        return math.sqrt(r.hbar_eff / (r.m * r.omega))


@dataclass(frozen=True, eq=False)
class SampledForm:
    """Amplitudes tabulated on a uniform grid, interpolated in between."""

    amplitudes: np.ndarray
    grid: Grid

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.grid.n,):
            raise ContractViolationError(
                f"amplitudes shape {amps.shape} does not match grid size {self.grid.n}"
            )
        if not np.all(np.isfinite(amps)):
            raise ParameterRangeError("sampled amplitudes must be finite")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class DiscreteForm:
    """Finite classical measure on log-prices.  Improper but enumerable.

    A point strategy (a delta) is the one-atom case.
    """

    atoms: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.atoms) == 0:
            raise ContractViolationError("discrete form needs at least one atom")
        if len(self.weights) != len(self.atoms):
            raise ContractViolationError("atoms and weights must have equal length")
        if any(not math.isfinite(a) for a in self.atoms):
            raise ParameterRangeError("atoms must be finite")
        if any(w < 0 or not math.isfinite(w) for w in self.weights):
            raise ParameterRangeError("weights must be finite and non-negative")
        total = math.fsum(self.weights)
        if total <= 0:
            raise DegenerateStateError("discrete weights sum to zero")
        object.__setattr__(
            self, "weights", tuple(w / total for w in self.weights)
        )


@dataclass(frozen=True)
class SuperposedForm:
    """Complex-weighted sum of normalizable strategies (same representation)."""

    coefficients: tuple[complex, ...]
    parts: tuple["Strategy", ...]

    def __post_init__(self) -> None:
        if len(self.parts) == 0:
            raise ContractViolationError("superposition needs at least one part")
        if len(self.coefficients) != len(self.parts):
            raise ContractViolationError("coefficients and parts must pair up")
        if all(c == 0 for c in self.coefficients):
            raise DegenerateStateError("all superposition coefficients vanish")


Form = Union[GaussianForm, HermiteForm, SampledForm, DiscreteForm, SuperposedForm]


def _hermite_ladder(u: np.ndarray, phi0: np.ndarray) -> Iterator[np.ndarray]:
    """phi_k(u) for k = 0, 1, 2, ..., starting from phi0, one per ``next``.

    The normalized three-term recurrence
    phi_{k+1} = sqrt(2/(k+1)) u phi_k - sqrt(k/(k+1)) phi_{k-1}
    is stable for large k where the raw Hermite polynomial would
    overflow.  It is linear, so phi0 may carry any constant factor.
    """
    prev, cur = np.zeros_like(u), phi0
    for k in itertools.count():
        yield cur
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * u * cur - math.sqrt(k / (k + 1.0)) * prev


def hermite_function(n: int, x: np.ndarray, length_scale: float = 1.0) -> np.ndarray:
    """Orthonormal oscillator eigenfunction of order n at u = x / length_scale."""
    check_count(n, "order n", 0)
    if not (length_scale > 0 and math.isfinite(length_scale)):
        raise ParameterRangeError(f"length_scale must be positive and finite, got {length_scale}")
    u = np.asarray(x, dtype=float) / length_scale
    ladder = _hermite_ladder(u, math.pi ** (-0.25) * np.exp(-0.5 * u * u))
    return next(itertools.islice(ladder, n, None)) / math.sqrt(length_scale)


@dataclass(frozen=True)
class Strategy:
    """A trader's state: a form plus the representation it lives in."""

    form: Form
    rep: Representation = Representation.DEMAND

    # -- constructors -------------------------------------------------

    @staticmethod
    def gaussian(
        center: float,
        width: float,
        slope: float = 0.0,
        rep: Representation = Representation.DEMAND,
    ) -> "Strategy":
        return Strategy(GaussianForm(float(center), float(width), float(slope)), rep)

    @staticmethod
    def hermite(n: int, risk: RiskParams = UNIT_RISK) -> "Strategy":
        return Strategy(HermiteForm(n, risk), Representation.DEMAND)

    @staticmethod
    def delta(
        location: float, rep: Representation = Representation.DEMAND
    ) -> "Strategy":
        return Strategy(DiscreteForm((float(location),), (1.0,)), rep)

    @staticmethod
    def sampled(
        amplitudes: np.ndarray,
        grid: Grid,
        rep: Representation = Representation.DEMAND,
    ) -> "Strategy":
        return Strategy(SampledForm(np.asarray(amplitudes, dtype=complex), grid), rep)

    @staticmethod
    def discrete(
        atoms: Sequence[float],
        weights: Sequence[float] | None = None,
        rep: Representation = Representation.DEMAND,
    ) -> "Strategy":
        atoms_t = tuple(float(a) for a in atoms)
        if weights is None:
            weights_t = tuple(1.0 for _ in atoms_t)
        else:
            weights_t = tuple(float(w) for w in weights)
        return Strategy(DiscreteForm(atoms_t, weights_t), rep)

    @staticmethod
    def superpose(
        parts: Sequence["Strategy"], coefficients: Sequence[complex]
    ) -> "Strategy":
        parts_t = tuple(parts)
        coeffs_t = tuple(complex(c) for c in coefficients)
        if not parts_t:
            raise ContractViolationError("superposition needs at least one part")
        rep = parts_t[0].rep
        for p in parts_t:
            if not isinstance(p, Strategy):
                raise ContractViolationError("superposition parts must be strategies")
            if p.is_improper:
                raise ImproperStateError(
                    "delta and discrete strategies cannot enter a superposition"
                )
            if p.rep is not rep:
                raise RepresentationError(
                    "superposition parts must share one representation"
                )
        return Strategy(SuperposedForm(coeffs_t, parts_t), rep)

    # -- structure ----------------------------------------------------

    @property
    def is_improper(self) -> bool:
        return isinstance(self.form, DiscreteForm)

    def support_bounds(self) -> tuple[float, float]:
        """Interval outside which the amplitudes are numerically negligible."""
        return _bounds(self.form)

    def default_grid(self) -> Grid:
        # sampled amplitudes carry no information between their own
        # nodes, so their native grid beats any finer resampling
        if isinstance(self.form, SampledForm):
            return self.form.grid
        lo, hi = self.support_bounds()
        return Grid(lo, hi, _DEFAULT_GRID_N)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Complex amplitudes at the given points of this representation."""
        if self.is_improper:
            raise ImproperStateError(
                f"{type(self.form).__name__} has no pointwise amplitudes"
            )
        return _evaluate(self.form, np.asarray(x, dtype=float))

    def amplitudes_on(self, grid: Grid) -> np.ndarray:
        return self.evaluate(grid.points)

    # -- derived once per instance --------------------------------------

    @cached_property
    def table(self) -> DistributionTable:
        """The squared-modulus distribution on :meth:`default_grid`."""
        return DistributionTable(self)

    @cached_property
    def _duals(self) -> dict[RiskParams, "Strategy"]:
        return {}

    def dual(self, risk: RiskParams = UNIT_RISK) -> "Strategy":
        """This strategy in the other representation, transformed once per risk."""
        if risk not in self._duals:
            convert = to_supply_rep if self.rep is Representation.DEMAND else to_demand_rep
            self._duals[risk] = convert(self, risk)
        return self._duals[risk]

    def cdf(self, x: float | np.ndarray, inclusive: bool = True) -> np.ndarray:
        """P(variable <= x) in this strategy's own representation.

        inclusive=False gives P(variable < x); the two differ only on
        the atoms of discrete strategies.
        """
        x = np.asarray(x, dtype=float)
        if not isinstance(self.form, DiscreteForm):
            return self.table.cdf(x)
        atoms, weights = zip(*sorted(zip(self.form.atoms, self.form.weights)))
        below = np.concatenate([[0.0], np.cumsum(weights)])
        return below[np.searchsorted(atoms, x, side="right" if inclusive else "left")]


class DistributionTable:
    """Squared-modulus distribution of a proper strategy, tabulated once.

    A cubic spline through |psi|^2 at the nodes of the strategy's default
    grid, and its antiderivative: the CDF error stays O(dx^4) between the
    nodes too.  The CDF at the nodes is made non-decreasing so that it
    inverts into quantiles.
    """

    def __init__(self, s: Strategy) -> None:
        self.grid = s.default_grid()
        self._spline = CubicSpline(self.grid.points, np.abs(s.amplitudes_on(self.grid)) ** 2)
        self._antiderivative = self._spline.antiderivative()
        self._mass = float(self._antiderivative(self.grid.hi))
        if not self._mass > 0:
            raise DegenerateStateError("strategy has zero norm")
        self._cdf_nodes = np.maximum.accumulate(self.cdf(self.grid.points))

    def _clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.grid.lo, self.grid.hi)

    def pdf(self, x: float | np.ndarray) -> np.ndarray:
        """Normalised density at x; zero outside the grid."""
        x = np.asarray(x, dtype=float)
        inside = (x >= self.grid.lo) & (x <= self.grid.hi)
        return np.where(inside, self._spline(self._clip(x)) / self._mass, 0.0)

    def cdf(self, x: float | np.ndarray) -> np.ndarray:
        """P(variable <= x): 0 below the grid, 1 above it."""
        return np.clip(self._antiderivative(self._clip(x)) / self._mass, 0.0, 1.0)

    @cached_property
    def _guide(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Guide table, slopes and bracket tops for constant-time quantiles.

        With M = 4 x the node count, ``guide[b]`` is the last node j with
        c[j] <= b/M (Chen & Asau's indexed search), clipped to a segment
        index, so the segment holding u starts at or after
        ``guide[int(u*M)]``.  Built by counting, O(n + M), without a binary
        search.  ``top[j]`` is c[j+1], or -inf where the segment's slope
        overflows, so that a bracket test sends such draws elsewhere.
        """
        c = self._cdf_nodes
        m = 4 * len(c)
        first_bucket = np.ceil(c * m).astype(np.intp)
        guide = np.cumsum(np.bincount(first_bucket, minlength=m + 1)) - 1
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            slope = np.diff(self.grid.points) / np.diff(c)
        top = np.where(np.isfinite(slope), c[1:], -np.inf)
        return guide.clip(0, len(c) - 2), slope, top

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF, linear between the nodes: bit for bit ``np.interp``.

        A batch of u >= 0 looks each segment up in the guide table and
        repeats interp's arithmetic; draws whose bucket does not settle the
        segment (plateaus, several nodes in one bucket, u beyond the last
        node) go to ``np.interp``, as do batches with fewer draws than
        nodes, where the guide cannot pay for itself, and batches holding
        a negative or NaN u.
        """
        c, x = self._cdf_nodes, self.grid.points
        u = np.asarray(u, dtype=float)
        if u.size < len(c) or not u.min() >= 0.0:
            return np.interp(u, c, x)
        guide, slope, top = self._guide
        m = len(guide) - 1
        j = guide[np.minimum(u * m, m).astype(np.intp)]
        lo = c[j]
        with np.errstate(invalid="ignore"):  # inf * 0 on plateaus, which miss below
            out = slope[j] * (u - lo) + x[j]
        miss = (u < lo) | (u >= top[j])
        if miss.any():
            out[miss] = np.interp(u[miss], c, x)
        return out


def _bounds(form: Form) -> tuple[float, float]:
    if isinstance(form, GaussianForm):
        half = _SUPPORT_SIGMAS * form.width
        return form.center - half, form.center + half
    if isinstance(form, HermiteForm):
        half = _SUPPORT_SIGMAS * math.sqrt(form.n + 0.5) * form.length_scale
        return -half, half
    if isinstance(form, SampledForm):
        return form.grid.lo, form.grid.hi
    if isinstance(form, SuperposedForm):
        lows, highs = zip(*(_bounds(p.form) for p in form.parts))
        return min(lows), max(highs)
    raise ImproperStateError(f"{type(form).__name__} has no L2 support interval")


def _evaluate(form: Form, x: np.ndarray) -> np.ndarray:
    if isinstance(form, GaussianForm):
        norm = (TWO_PI * form.width**2) ** -0.25
        shifted = x - form.center
        return norm * np.exp(
            -(shifted**2) / (4.0 * form.width**2) + 1j * form.slope * x
        )
    if isinstance(form, HermiteForm):
        return hermite_function(form.n, x, form.length_scale).astype(complex)
    if isinstance(form, SampledForm):
        pts = form.grid.points
        if np.array_equal(x, pts):
            return form.amplitudes.copy()
        # cubic off-node interpolation: linear costs O(dx^2) and visibly
        # distorts densities queried between nodes
        inside = (x >= pts[0]) & (x <= pts[-1])
        out = np.zeros(x.shape, dtype=complex)
        if np.any(inside):
            xi = x[inside]
            re = CubicSpline(pts, form.amplitudes.real)(xi)
            im = CubicSpline(pts, form.amplitudes.imag)(xi)
            out[inside] = re + 1j * im
        return out
    if isinstance(form, SuperposedForm):
        total = np.zeros_like(x, dtype=complex)
        for c, part in zip(form.coefficients, form.parts):
            total += c * _evaluate(part.form, x)
        return total
    raise ImproperStateError(f"{type(form).__name__} has no pointwise amplitudes")


# ---------------------------------------------------------------------------
# operations


def norm(s: Strategy) -> float:
    """L2 norm by quadrature on the default grid (analytic forms too, for cross-checks)."""
    if s.is_improper:
        raise ImproperStateError("improper strategies have no finite norm")
    g = s.default_grid()
    amps = s.amplitudes_on(g)
    return math.sqrt(max(float(integrate(np.abs(amps) ** 2, g)), 0.0))


def normalize(s: Strategy) -> Strategy:
    """Unit-norm version of ``s``.

    Gaussian and oscillator forms are unit by construction and pass
    through unchanged; superpositions get their coefficients rescaled;
    sampled forms get their amplitude table rescaled.
    """
    if s.is_improper:
        raise ImproperStateError("delta and discrete strategies cannot be normalized")
    if isinstance(s.form, (GaussianForm, HermiteForm)):
        return s
    nrm = norm(s)
    if nrm < 1e-300:
        raise DegenerateStateError("strategy has zero norm")
    if abs(nrm - 1.0) <= 1e-14:
        return s
    if isinstance(s.form, SuperposedForm):
        coeffs = tuple(c / nrm for c in s.form.coefficients)
        return Strategy(SuperposedForm(coeffs, s.form.parts), s.rep)
    assert isinstance(s.form, SampledForm)
    return Strategy(SampledForm(s.form.amplitudes / nrm, s.form.grid), s.rep)


def _transform_from(s: Strategy):
    """The Fourier transform out of ``s``'s representation."""
    return fourier_q_to_p if s.rep is Representation.DEMAND else fourier_p_to_q


def _balanced_grid(s: Strategy, hbar: float) -> Grid:
    """Source grid whose reciprocal also resolves the dual density.

    The default grid covers the strategy well, but its reciprocal can be
    far too coarse for the transform's density (a wide smooth strategy
    has a narrow dual).  A cheap first pass estimates the dual moments;
    the returned grid then resolves both sides: n dx dx' = 2 pi hbar,
    dx <= sigma/16 on each side, spans >= mean +- 12 sigma on each side.
    """
    g0 = s.default_grid()
    mu_s, sd_s = moments(s)
    amps_d, g_d = _transform_from(s)(s.amplitudes_on(g0), g0, hbar)
    mu_d, var_d = _density_moments(np.abs(amps_d) ** 2, g_d)
    sd_d = math.sqrt(max(var_d, 1e-30))
    lo, hi = s.support_bounds()
    span_dual = 2.0 * (abs(mu_d) + 12.0 * sd_d)
    dx = min(sd_s / 16.0, TWO_PI * hbar / span_dual)
    span_src = max(hi - lo, 2.0 * (abs(mu_s) + 12.0 * sd_s))
    n = max(span_src / dx, 16.0 * TWO_PI * hbar / (dx * sd_d), 2048.0)
    n = 1 << min(math.ceil(math.log2(n)), 18)
    lo2 = 0.5 * (lo + hi) - 0.5 * n * dx
    return Grid(lo2, lo2 + (n - 1) * dx, n)


def _to_rep(s: Strategy, risk: RiskParams, target: Representation) -> Strategy:
    if s.rep is target:
        raise RepresentationError(f"strategy is already in the {target.value} representation")
    if s.is_improper:
        raise ImproperStateError(
            "the Fourier image of a point strategy is a plane wave, not normalizable"
        )
    if isinstance(s.form, SampledForm):
        g = s.form.grid
    else:
        g = _balanced_grid(s, risk.hbar_eff)
    amps, grid = _transform_from(s)(s.amplitudes_on(g), g, risk.hbar_eff)
    return Strategy(SampledForm(amps, grid), target)


def to_supply_rep(s: Strategy, risk: RiskParams = UNIT_RISK) -> Strategy:
    """Fourier transform a demand strategy into its supply representation.

    The dispersion scale is risk.hbar_eff, which equals hbar_e in the
    commutative model.  The result is a sampled strategy on the
    reciprocal grid.
    """
    return _to_rep(s, risk, Representation.SUPPLY)


def to_demand_rep(s: Strategy, risk: RiskParams = UNIT_RISK) -> Strategy:
    """Inverse of :func:`to_supply_rep`."""
    return _to_rep(s, risk, Representation.DEMAND)


def buy_probability(s: Strategy, log_price: float) -> float:
    """Chance the trader accepts to buy at the quoted log-price.

    This is P(q <= ln c) under the demand density; a delta strategy
    turns it into the sharp rule [ln c >= its atom].
    """
    if s.rep is not Representation.DEMAND:
        raise RepresentationError("buy_probability needs the demand representation")
    if not math.isfinite(log_price):
        raise ParameterRangeError("log_price must be finite")
    return float(s.cdf(log_price))


def sell_probability(
    s: Strategy, log_price: float, risk: RiskParams = UNIT_RISK
) -> float:
    """Chance the trader accepts to sell at the quoted log-price.

    The supply variable quotes p = -ln(price asked), so selling at ln c
    happens when p <= -ln c.  Demand-representation strategies are
    Fourier-transformed first (improper ones cannot be).
    """
    if not math.isfinite(log_price):
        raise ParameterRangeError("log_price must be finite")
    if s.rep is Representation.DEMAND:
        s = s.dual(risk)
    return float(s.cdf(-log_price))


def moments(s: Strategy) -> tuple[float, float]:
    """Mean and standard deviation of the squared-modulus distribution."""
    if s.is_improper:
        raise ImproperStateError("improper strategies have no quadrature moments")
    g = s.default_grid()
    mean, var = _density_moments(np.abs(s.amplitudes_on(g)) ** 2, g)
    return mean, math.sqrt(max(var, 0.0))


def _density_moments(dens: np.ndarray, g: Grid) -> tuple[float, float]:
    """Mean and variance of a density sampled on ``g``, by trapezoids."""
    total = float(integrate(dens, g))
    if total <= 0:
        raise DegenerateStateError("strategy has zero norm")
    pts = g.points
    mean = float(integrate(pts * dens, g)) / total
    var = float(integrate((pts - mean) ** 2 * dens, g)) / total
    return mean, var


def sample(
    s: Strategy,
    rand: RandomSource | np.random.Generator,
    size: int,
    rep: Representation | None = None,
    risk: RiskParams = UNIT_RISK,
) -> np.ndarray:
    """Draw log-prices from the strategy's distribution.

    ``rep`` selects which representation to sample; converting a proper
    strategy to the other side goes through the Fourier transform.  A
    gaussian demand form sells with the exact closed-form dual (modulus
    gaussian centered at hbar*slope with width hbar/(2 width)).
    """
    rng = as_generator(rand)
    check_count(size, "size", 0)
    target = rep if rep is not None else s.rep
    if target is not s.rep:
        if isinstance(s.form, GaussianForm):
            hb = risk.hbar_eff
            return rng.normal(hb * s.form.slope, hb / (2.0 * s.form.width), size)
        if s.is_improper:
            raise ImproperStateError(
                "improper strategies cannot be sampled in the dual representation"
            )
        s = s.dual(risk)
    form = s.form
    if isinstance(form, DiscreteForm):
        if len(form.atoms) == 1:  # a point draws nothing from the stream
            return np.full(size, form.atoms[0])
        return rng.choice(np.array(form.atoms), size=size, p=np.array(form.weights))
    if isinstance(form, GaussianForm):
        return rng.normal(form.center, form.width, size)
    return s.table.quantile(rng.uniform(0.0, 1.0, size))


@dataclass(frozen=True)
class MarketState:
    """Tuple of trader strategies taking part in one market."""

    traders: tuple[Strategy, ...]

    def __post_init__(self) -> None:
        if len(self.traders) == 0:
            raise ContractViolationError("market needs at least one trader")
        for t in self.traders:
            if not isinstance(t, Strategy):
                raise ContractViolationError("traders must be Strategy instances")

    def __len__(self) -> int:
        return len(self.traders)


# ---------------------------------------------------------------------------
# strategy literals

_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_GAUSSIAN_RE = re.compile(
    rf"^gaussian\(\s*({_NUM})\s*,\s*({_NUM})\s*(?:,\s*({_NUM})\s*)?\)$"
)
_HERMITE_RE = re.compile(r"^hermite\(\s*(\d+)\s*\)$")
_DELTA_RE = re.compile(rf"^delta\(\s*({_NUM})\s*\)$")
_SAMPLED_RE = re.compile(r"^sampled\(\s*@([^()]+?)\s*\)$")
_DISCRETE_RE = re.compile(r"^discrete\(\s*([^()]+?)\s*\)$")
_ATOM_RE = re.compile(rf"^({_NUM})\s*(?::\s*({_NUM}))?$")


def parse_strategy(
    text: str,
    rep: Representation = Representation.DEMAND,
    base_dir: str | Path | None = None,
    risk: RiskParams = UNIT_RISK,
) -> Strategy:
    """Parse a strategy literal.

    Grammar: ``gaussian(center,width[,slope])``, ``hermite(n)``,
    ``delta(loc)``, ``sampled(@file.csv)`` with CSV columns x,re,im on a
    uniform ascending grid, and ``discrete(a1:w1,a2:w2,...)`` (weights
    optional, default equal).
    """
    if not isinstance(text, str):
        raise ContractViolationError("strategy literal must be a string")
    lit = text.strip()
    m = _GAUSSIAN_RE.match(lit)
    if m:
        slope = float(m.group(3)) if m.group(3) is not None else 0.0
        return Strategy.gaussian(float(m.group(1)), float(m.group(2)), slope, rep)
    m = _HERMITE_RE.match(lit)
    if m:
        s = Strategy.hermite(int(m.group(1)), risk)
        return Strategy(s.form, rep)
    m = _DELTA_RE.match(lit)
    if m:
        return Strategy.delta(float(m.group(1)), rep)
    m = _SAMPLED_RE.match(lit)
    if m:
        path = Path(m.group(1))
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        amps, grid = read_amplitude_csv(path)
        return Strategy.sampled(amps, grid, rep)
    m = _DISCRETE_RE.match(lit)
    if m:
        atoms: list[float] = []
        weights: list[float] = []
        for chunk in m.group(1).split(","):
            am = _ATOM_RE.match(chunk.strip())
            if not am:
                raise ParameterRangeError(f"bad discrete atom {chunk.strip()!r}")
            atoms.append(float(am.group(1)))
            weights.append(float(am.group(2)) if am.group(2) is not None else 1.0)
        return Strategy.discrete(atoms, weights, rep)
    raise ParameterRangeError(f"unrecognized strategy literal {text!r}")


def read_amplitude_csv(path: str | Path) -> tuple[np.ndarray, Grid]:
    """Load sampled amplitudes from a CSV with header x,re,im."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["x", "re", "im"]:
            raise ContractViolationError(
                f"{path}: expected header 'x,re,im', got {header!r}"
            )
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if len(rows) < 8:
        raise ContractViolationError(f"{path}: need at least 8 sample rows")
    try:
        data = np.array([[float(c) for c in row] for row in rows])
    except ValueError as exc:
        raise ContractViolationError(f"{path}: non-numeric cell ({exc})") from exc
    if data.shape[1] != 3:
        raise ContractViolationError(f"{path}: rows must have 3 columns")
    x = data[:, 0]
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ContractViolationError(f"{path}: x column must be strictly ascending")
    if np.max(np.abs(dx - dx[0])) > 1e-9 * max(abs(dx[0]), 1e-300):
        raise ContractViolationError(f"{path}: x column must be uniformly spaced")
    grid = Grid(float(x[0]), float(x[-1]), len(x))
    return data[:, 1] + 1j * data[:, 2], grid
