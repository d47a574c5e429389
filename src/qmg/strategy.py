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

import cmath
import csv
import enum
import itertools
import math
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import (
    ContractViolationError,
    DegenerateStateError,
    ImproperStateError,
    ParameterRangeError,
    RepresentationError,
)
from .numerics import (
    BLOCK,
    TWO_PI,
    Grid,
    RandomSource,
    Spline,
    SquaredModulus,
    as_generator,
    check_count,
    check_hbar,
    check_nodes,
    check_positive,
    fourier_p_to_q,
    fourier_q_to_p,
    integrate,
)

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
        # every field finite (NaN and inf reach one of these), and more: 2 pi / theta
        # and hypot(hbar_e, theta_nc) can overflow, the oscillator's length scales
        # divide by m omega, which can underflow, and a subnormal hbar carries too
        # few bits for its reciprocal grids
        if not (math.isfinite(self.omega) and sys.float_info.min <= self.hbar_eff < math.inf
                and 0 < self.m * self.omega < math.inf):
            raise ParameterRangeError(
                f"omega {self.omega!r}, hbar_eff {self.hbar_eff!r} or m omega leaves the normal doubles"
            )
        if not self.hbar_eff * self.omega > 0:  # the level spacing, which thermal states divide by
            raise ParameterRangeError(
                f"hbar omega underflows to 0 (hbar_eff {self.hbar_eff!r}, omega {self.omega!r})"
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

    @property
    def length_scale(self) -> float:
        """Oscillator length sqrt(hbar_eff / (m omega))."""
        return math.sqrt(self.hbar_eff / (self.m * self.omega))

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
    hbar * slope towards supply and by -hbar * slope towards demand.
    """

    center: float
    width: float
    slope: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.center):
            raise ParameterRangeError("gaussian center must be finite")
        if not (self.width > 0 and math.isfinite(self.width)):
            raise ParameterRangeError(f"gaussian width must be positive, got {self.width}")
        # the normalization takes (2 pi width^2)^(-1/4) and the exponent divides
        # by 4 width^2: past the doubles both give 0, and -(x^2)/(4 width^2) inf/inf
        square = self.width * self.width
        if not (sys.float_info.min <= square and TWO_PI * square < math.inf):
            raise ParameterRangeError(
                f"gaussian width {self.width!r} squares outside the normal doubles"
                " (2 pi width^2 must stay finite)"
            )
        if not math.isfinite(self.slope):
            raise ParameterRangeError("gaussian slope must be finite")


@dataclass(frozen=True)
class HermiteForm:
    """n-th eigenfunction of a risk-inclination oscillator of length ``length_scale``
    (the std of |psi_n|^2 is this times sqrt(n + 1/2)), and the hbar of its market."""

    n: int
    length_scale: float
    hbar: float

    def __post_init__(self) -> None:
        check_count(self.n, "hermite order n", 0)
        check_positive(self.length_scale, "hermite length_scale")
        check_hbar(self.hbar)


@dataclass(frozen=True, eq=False)
class SampledForm:
    """exp(i slope x) times an envelope, its samples ``amplitudes`` on a uniform grid
    joined by one cubic spline: the FFT dual of a table far from 0 stays smooth."""

    amplitudes: np.ndarray
    grid: Grid
    slope: float

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.grid.n,):
            raise ContractViolationError(
                f"amplitudes shape {amps.shape} does not match grid size {self.grid.n}"
            )
        if not (np.all(np.isfinite(amps)) and math.isfinite(self.slope)):
            raise ParameterRangeError("sampled amplitudes and slope must be finite")
        with np.errstate(under="ignore", over="ignore"):  # a square may underflow to 0 or overflow
            total = float(np.sum(np.abs(amps) ** 2))
        if not math.isfinite(total):
            raise ParameterRangeError("the squares of the sampled amplitudes sum past the doubles")
        if total == 0:
            raise DegenerateStateError("every sampled amplitude squares to 0: the strategy has zero norm")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @cached_property
    def _spline(self) -> Spline:
        """The amplitudes' interpolant, built on the first off-node evaluation."""
        return Spline(self.grid, self.amplitudes)


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
        if not math.isfinite(sum(self.weights)):  # fsum would raise on the overflow
            raise ParameterRangeError("discrete weights sum past the doubles")
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
        if not all(cmath.isfinite(c) for c in self.coefficients):
            raise ParameterRangeError("superposition coefficients must be finite")
        if all(c == 0 for c in self.coefficients):
            raise DegenerateStateError("all superposition coefficients vanish")


Form = Union[GaussianForm, HermiteForm, SampledForm, DiscreteForm, SuperposedForm]


def _hermite_ladder(
    u: np.ndarray, phi0: np.ndarray, shift: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """phi_k(u) for k = 0, 1, 2, ..., starting from phi0, one per ``next``.

    The normalized three-term recurrence
    phi_{k+1} = sqrt(2/(k+1)) u phi_k - sqrt(k/(k+1)) phi_{k-1}
    is stable for large k where the raw Hermite polynomial would
    overflow.  It is linear, so phi0 may carry any constant factor.

    ``shift``, integer binary exponents, makes phi0 mantissas: level k is
    then mantissa_k * 2^shift, rounded once.  Once a mantissa passes 2^512,
    every mantissa past 2^256 moves 256 into its exponent, so levels whose
    ground value underflows still rise.  Where the shift is 0 the levels
    are the unshifted ones bit for bit.
    """
    prev, cur = np.zeros_like(u), phi0
    if shift is not None:  # rescaled in place below
        cur, shift = phi0.copy(), shift.copy()
    for k in itertools.count():
        yield cur if shift is None else np.ldexp(cur, shift)
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * u * cur - math.sqrt(k / (k + 1.0)) * prev
        if shift is not None and max(cur.max(initial=0.0), -cur.min(initial=0.0)) > 2.0**512:
            big = np.flatnonzero(np.abs(cur) > 2.0**256)
            cur[big] *= 2.0**-256
            prev[big] *= 2.0**-256
            shift[big] += 256


def _hermite_ground(u: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The ladder's phi0 = pi^(-1/4) e^(-u^2/2), and its ``shift`` where one is needed.

    Past |u| = 37.4 the ground level leaves the normal doubles though the
    levels above it need not (phi_1500(55) = 0.0827): there phi0 holds
    pi^(-1/4) times a mantissa in (1/2, 1] and the shift its binary
    exponent.  Elsewhere phi0 is the ground level bit for bit, and the
    shift is None when no point needs one.  The shift stops at -2^62 (|u|
    past 2.5e9, where every level a ladder can reach is 0 in doubles), so
    it stays an int64 for any finite u whose square is finite.
    """
    exponent = -0.5 * u * u
    far = exponent < -700.0
    if not far.any():
        return math.pi ** -0.25 * np.exp(exponent), None
    shift = np.ceil(np.maximum(np.where(far, exponent, 0.0) / math.log(2.0), -2.0**62)).astype(np.int64)
    return math.pi ** -0.25 * np.exp(exponent - shift * math.log(2.0)), shift


def hermite_function(n: int, x: np.ndarray, length_scale: float = 1.0) -> np.ndarray:
    """Orthonormal oscillator eigenfunction of order n at u = x / length_scale."""
    check_count(n, "order n", 0)
    check_positive(length_scale, "length_scale")
    with np.errstate(over="ignore"):  # past |u| = 1e150 every level is 0 in doubles
        u = np.clip(np.asarray(x, dtype=float) / length_scale, -1e150, 1e150)
    flat = np.reshape(u, -1)
    ladder = _hermite_ladder(flat, *_hermite_ground(flat))  # shifted where e^(-u^2/2) underflows
    return (next(itertools.islice(ladder, n, None)) / math.sqrt(length_scale)).reshape(np.shape(u))[()]


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
        return Strategy(HermiteForm(n, risk.length_scale, risk.hbar_eff), Representation.DEMAND)

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
        return Strategy(SampledForm(np.asarray(amplitudes, dtype=complex), grid, 0.0), rep)

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

    @property  # not cached: a strategy holding itself would wait for the cycle collector
    def _bare(self) -> "Strategy":
        """The part of a one-part superposition at coefficient 1, at any depth, else this
        strategy: the same amplitudes, so the same table, draws and dual."""
        if isinstance(self.form, SuperposedForm) and self.form.coefficients == (1,):
            return self.form.parts[0]._bare
        return self

    def support_bounds(self) -> tuple[float, float]:
        """Interval outside which the amplitudes are numerically negligible."""
        return _bounds(self.form)

    def default_grid(self) -> Grid:
        # sampled amplitudes carry no information between their own
        # nodes, so their native grid beats any finer resampling
        if isinstance(self._bare.form, SampledForm):
            return self._bare.form.grid
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
        return DistributionTable(self._bare)

    @cached_property
    def hbar(self) -> float:
        """The default hbar of this strategy's representation changes and Wigner
        density: the one hbar of its oscillator levels at any depth, else 1.0."""
        found = {f.hbar for _, f in _leaves(self.form) if isinstance(f, HermiteForm)}
        if len(found) > 1:
            raise ParameterRangeError(f"oscillator levels at hbar {sorted(found)} leave no default: pass hbar")
        return found.pop() if found else 1.0

    @cached_property
    def _duals(self) -> dict[float, "Strategy"]:
        return {}

    def dual(self, hbar: float | None = None) -> "Strategy":
        """This strategy in the other representation, transformed once per hbar."""
        hb = self.hbar if hbar is None else check_hbar(hbar)
        if hb not in self._duals:
            convert = to_supply_rep if self.rep is Representation.DEMAND else to_demand_rep
            self._duals[hb] = convert(self._bare, hb)
        return self._duals[hb]

    def cdf(self, x: float | np.ndarray, inclusive: bool = True) -> np.ndarray:
        """P(variable <= x) in this strategy's own representation.

        inclusive=False gives P(variable < x); the two differ only on
        the atoms of discrete strategies.
        """
        x = np.asarray(x, dtype=float)
        if not isinstance(self.form, DiscreteForm):
            return self.table.cdf(x)
        atoms, below = self._law
        return below[np.searchsorted(atoms, x, side="right" if inclusive else "left")]

    @cached_property
    def _law(self) -> tuple[np.ndarray, np.ndarray]:
        """A discrete strategy's sorted atoms and the mass below each, then exactly 1.0:
        normalised weights need not sum to 1 in floats, so the sums are capped at 1."""
        atoms, weights = zip(*sorted(zip(self.form.atoms, self.form.weights)))
        below = np.minimum(np.concatenate([[0.0], np.cumsum(weights)]), 1.0)
        below[-1] = 1.0
        return np.array(atoms), below


class DistributionTable:
    """Squared-modulus distribution of a proper strategy, tabulated once.

    ``density`` is |psi|^2 at the default grid's nodes, the one evaluation
    of the strategy that :func:`moments` and :func:`norm` read too.  A
    grid the spline would refuse, and a density without a finite positive
    sum, are refused here; the spline itself is built on first use.
    A sampled strategy's density between nodes is |spline|^2 of its one
    spline; other forms take a :class:`Spline` through ``density``, whose
    CDF error stays O(dx^4) between the nodes.  The CDF at the nodes is
    made non-decreasing so that it inverts into quantiles.
    """

    def __init__(self, s: Strategy) -> None:
        self.grid = g = s.default_grid()
        check_nodes(g)
        self._sampled = s.form._spline if isinstance(s.form, SampledForm) else None
        with np.errstate(over="ignore"):  # a square or an integral past the doubles is refused below
            self.density = np.abs(s.amplitudes_on(g)) ** 2
            total = float(self.density.sum()) * g.spacing
        if not math.isfinite(total):
            raise ParameterRangeError(f"|psi|^2 over [{g.lo}, {g.hi}] has no finite integral in double precision")
        if not total > 0:
            raise DegenerateStateError("strategy has zero norm")

    @cached_property
    def _spline(self) -> Spline:
        return Spline(self.grid, self.density) if self._sampled is None else SquaredModulus(self._sampled)

    @cached_property
    def _mass(self) -> float:  # positive where ``total`` is: both splines weight every node positively
        return float(self._spline.cumulative[-1])

    @cached_property
    def _cdf_nodes(self) -> np.ndarray:
        return np.maximum.accumulate(np.clip(self._spline.cumulative / self._mass, 0.0, 1.0))

    def _clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.grid.lo, self.grid.hi)

    def pdf(self, x: float | np.ndarray) -> np.ndarray:
        """Normalised density at x; zero outside the grid."""
        x = np.asarray(x, dtype=float)
        inside = (x >= self.grid.lo) & (x <= self.grid.hi)
        return np.where(inside, self._spline(self._clip(x)) / self._mass, 0.0)

    def cdf(self, x: float | np.ndarray) -> np.ndarray:
        """P(variable <= x): 0 below the grid, 1 above it."""
        return np.clip(self._spline.antiderivative(self._clip(x)) / self._mass, 0.0, 1.0)

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
        repeats interp's arithmetic, one cache-sized block of draws at a
        time; draws whose bucket does not settle the segment (plateaus,
        several nodes in one bucket, u beyond the last node) go to
        ``np.interp``, as do batches with fewer draws than nodes, where the
        guide cannot pay for itself, and batches holding a negative or NaN u.
        """
        c, x = self._cdf_nodes, self.grid.points
        u = np.asarray(u, dtype=float)
        if u.size < len(c) or not u.min() >= 0.0:
            return np.interp(u, c, x)
        guide, slope, top = self._guide
        m = len(guide) - 1
        flat = u.ravel()
        out = np.empty_like(flat)
        for a in range(0, flat.size, BLOCK):
            ub = flat[a:a + BLOCK]
            ob = out[a:a + BLOCK]
            j = guide[np.minimum(ub * m, m).astype(np.intp)]
            lo = c[j]
            with np.errstate(invalid="ignore"):  # inf * 0 on plateaus, which miss below
                np.multiply(slope[j], ub - lo, out=ob)
            ob += x[j]
            miss = (ub < lo) | (ub >= top[j])
            if miss.any():
                ob[miss] = np.interp(ub[miss], c, x)
        return out.reshape(u.shape)


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


def _leaves(form: Form, coefficient: complex = 1.0) -> Iterator[tuple[complex, Form]]:
    """(coefficient, leaf form) pairs of a form, nested superpositions multiplied out."""
    if isinstance(form, SuperposedForm):
        for c, part in zip(form.coefficients, form.parts):
            yield from _leaves(part.form, coefficient * c)
    else:
        yield coefficient, form


def _slope_bound(form) -> float:
    if isinstance(form, (GaussianForm, SampledForm)):
        return abs(form.slope)
    if isinstance(form, SuperposedForm):
        return max(_slope_bound(p.form) for p in form.parts)
    return 0.0


def _sample_spacing(form) -> float:
    if isinstance(form, SuperposedForm):
        return min(_sample_spacing(p.form) for p in form.parts)
    return form.grid.spacing if isinstance(form, SampledForm) else math.inf


def _evaluate(form: Form, x: np.ndarray) -> np.ndarray:
    if isinstance(form, GaussianForm):
        norm = (TWO_PI * form.width**2) ** -0.25
        shifted = x - form.center
        with np.errstate(over="ignore"):  # a square past the doubles is a modulus of 0
            return norm * np.exp(
                -(shifted**2) / (4.0 * form.width**2) + 1j * form.slope * x
            )
    if isinstance(form, HermiteForm):
        return hermite_function(form.n, x, form.length_scale).astype(complex)
    if isinstance(form, SampledForm):
        pts = form.grid.points
        if np.array_equal(x, pts):
            out = form.amplitudes.copy()
        else:  # cubic off-node interpolation: linear costs O(dx^2), visible between nodes
            inside = (x >= pts[0]) & (x <= pts[-1])
            out = np.zeros(x.shape, dtype=complex)
            if np.any(inside):
                out[inside] = form._spline(x[inside])
        return out * np.exp(1j * form.slope * x) if form.slope else out
    if isinstance(form, SuperposedForm):
        total = np.zeros_like(x, dtype=complex)
        for c, part in zip(form.coefficients, form.parts):
            total += c * _evaluate(part.form, x)
        return total
    raise ImproperStateError(f"{type(form).__name__} has no pointwise amplitudes")


# ---------------------------------------------------------------------------
# operations


def norm(s: Strategy) -> float:
    """L2 norm: the root of the strategy's table mass."""
    if s.is_improper:
        raise ImproperStateError("improper strategies have no finite norm")
    return math.sqrt(s.table._mass)


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
    nrm = norm(s)  # a zero norm is refused by the table
    if abs(nrm - 1.0) <= 1e-14:
        return s
    if isinstance(s.form, SuperposedForm):
        coeffs = tuple(c / nrm for c in s.form.coefficients)
        return Strategy(SuperposedForm(coeffs, s.form.parts), s.rep)
    assert isinstance(s.form, SampledForm)
    return Strategy(SampledForm(s.form.amplitudes / nrm, s.form.grid, s.form.slope), s.rep)


def _dual_form(form: Form, hbar: float, target: Representation) -> tuple[complex, Form]:
    """A form's image in the ``target`` representation, as a global phase and a form.

    The kernel is exp(sign i x y / hbar), sign -1 towards supply.  A
    Gaussian maps to a Gaussian and oscillator level n to level n of the
    oscillator with its quadratures swapped (length hbar / L), times
    (sign i)^n; a superposition maps part by part.  A sampled envelope goes
    through the FFT, centred at 0, by the Gaussian's shift theorem.
    """
    sign = -1 if target is Representation.SUPPLY else 1
    if isinstance(form, (GaussianForm, SampledForm)):  # exp(i k x) times an envelope about c
        k = form.slope
        c = form.center if isinstance(form, GaussianForm) else 0.5 * form.grid.lo + 0.5 * form.grid.hi
        if not math.isfinite(k * c):
            raise ParameterRangeError(f"the dual's phase slope * center, {k!r} * {c!r}, leaves the doubles")
        if isinstance(form, GaussianForm):
            return cmath.exp(1j * k * c), GaussianForm(-sign * hbar * k, hbar / (2.0 * form.width), sign * c / hbar)
        g, shift = form.grid, sign * hbar * k
        amps = form.amplitudes * cmath.exp(1j * k * c) if k * c else form.amplitudes
        envelope, dual = (fourier_q_to_p if sign < 0 else fourier_p_to_q)(amps, Grid(g.lo - c, g.hi - c, g.n), hbar)
        return 1, SampledForm(envelope, Grid(dual.lo - shift, dual.hi - shift, g.n), sign * c / hbar)
    if isinstance(form, HermiteForm):
        return (1, sign * 1j, -1, -sign * 1j)[form.n % 4], HermiteForm(form.n, hbar / form.length_scale, hbar)
    assert isinstance(form, SuperposedForm)
    duals = [_dual_form(p.form, hbar, target) for p in form.parts]
    coefficients = tuple(c * phase for c, (phase, _) in zip(form.coefficients, duals))
    return 1, SuperposedForm(coefficients, tuple(Strategy(f, target) for _, f in duals))


def _to_rep(s: Strategy, hbar: float | None, target: Representation) -> Strategy:
    if s.rep is target:
        raise RepresentationError(f"strategy is already in the {target.value} representation")
    if s.is_improper:
        raise ImproperStateError("the Fourier image of a point strategy is a plane wave, not normalizable")
    phase, form = _dual_form(s.form, s.hbar if hbar is None else check_hbar(hbar), target)
    if phase != 1:  # kept exactly, so that the duals of parts superpose into the dual of the whole
        form = SuperposedForm((complex(phase),), (Strategy(form, target),))
    return Strategy(form, target)


def to_supply_rep(s: Strategy, hbar: float | None = None) -> Strategy:
    """Fourier transform a demand strategy into its supply representation.

    The dispersion scale is ``hbar``, a market's hbar_eff (hbar_e in the
    commutative model); by default the strategy's own :attr:`Strategy.hbar`.
    Gaussian, oscillator and superposed strategies convert in closed form,
    with their global phase; a sampled strategy goes through the FFT onto
    its reciprocal grid.
    """
    return _to_rep(s, hbar, Representation.SUPPLY)


def to_demand_rep(s: Strategy, hbar: float | None = None) -> Strategy:
    """Inverse of :func:`to_supply_rep`."""
    return _to_rep(s, hbar, Representation.DEMAND)


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


def sell_probability(s: Strategy, log_price: float, hbar: float | None = None) -> float:
    """Chance the trader accepts to sell at the quoted log-price.

    The supply variable quotes p = -ln(price asked), so selling at ln c
    happens when p <= -ln c.  Demand-representation strategies are
    Fourier-transformed first, at ``hbar`` (improper ones cannot be).
    """
    if hbar is not None:  # refused even where no transform reads it
        check_hbar(hbar)
    if not math.isfinite(log_price):
        raise ParameterRangeError("log_price must be finite")
    if s.rep is Representation.DEMAND:
        s = s.dual(hbar)
    return float(s.cdf(-log_price))


def moments(s: Strategy) -> tuple[float, float]:
    """Mean and standard deviation of |psi|^2, by trapezoids over the table's nodes."""
    if s.is_improper:
        raise ImproperStateError("improper strategies have no quadrature moments")
    mean, var = _density_moments(s.table.density, s.table.grid)
    return mean, math.sqrt(max(var, 0.0))


def _density_moments(dens: np.ndarray, g: Grid) -> tuple[float, float]:
    """Mean and variance of a density sampled on ``g``, by trapezoids."""
    total = float(integrate(dens, g))
    if total <= 0:
        raise DegenerateStateError("strategy has zero norm")
    pts = g.points
    mean = float(integrate(pts * dens, g)) / total
    with np.errstate(over="ignore", invalid="ignore"):  # on a grid too wide, inf
        var = float(integrate((pts - mean) ** 2 * dens, g)) / total
    return mean, var


def sample(
    s: Strategy,
    rand: RandomSource | np.random.Generator,
    size: int,
    rep: Representation | None = None,
    hbar: float | None = None,
) -> np.ndarray:
    """Draw log-prices from the strategy's distribution.

    ``rep`` selects which representation to sample; a proper strategy is
    sampled on the other side through its cached dual at ``hbar``.
    """
    if hbar is not None:
        check_hbar(hbar)
    rng = as_generator(rand)
    check_count(size, "size", 0)
    target = rep if rep is not None else s.rep
    if target is not s.rep:
        if s.is_improper:
            raise ImproperStateError("improper strategies cannot be sampled in the dual representation")
        s = s.dual(hbar)
    form = s._bare.form
    if isinstance(form, DiscreteForm):
        if len(form.atoms) == 1:  # a point draws nothing from the stream
            return np.full(size, form.atoms[0])
        return rng.choice(np.array(form.atoms), size=size, p=np.array(form.weights))
    if isinstance(form, GaussianForm):
        return rng.normal(form.center, form.width, size)
    return s.table.quantile(rng.random(size))


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
    if any(len(row) != 3 for row in rows):
        raise ContractViolationError(f"{path}: rows must have 3 columns")
    try:
        data = np.array([[float(c) for c in row] for row in rows])
    except ValueError as exc:
        raise ContractViolationError(f"{path}: non-numeric cell ({exc})") from exc
    x = data[:, 0]
    if not np.all(np.isfinite(x)):  # NaN passes both checks below
        raise ContractViolationError(f"{path}: x column must be finite")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise ContractViolationError(f"{path}: x column must be strictly ascending")
    if np.max(np.abs(dx - dx[0])) > 1e-9 * max(abs(dx[0]), 1e-300):
        raise ContractViolationError(f"{path}: x column must be uniformly spaced")
    grid = Grid(float(x[0]), float(x[-1]), len(x))
    return data[:, 1] + 1j * data[:, 2], grid
