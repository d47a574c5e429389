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

from .errors import (
    ContractViolationError,
    DegenerateDensityError,
    ImproperStateError,
    ParameterRangeError,
    RepresentationError,
)
from .numerics import TWO_PI, Grid, Spline, _repr_text, check_count, check_hbar, check_positive
from .strategy import (
    GaussianForm,
    HermiteForm,
    Representation,
    RiskParams,
    Strategy,
    _SUPPORT_SIGMAS,
    _density_moments,
    _hermite_ground,
    _hermite_ladder,
    _leaves,
    _sample_spacing,
    _slope_bound,
    moments as strategy_moments,
)

# highest level excited_wigner evaluates
EXCITED_MAX_LEVEL = 512
# most psi points wigner_transform evaluates: 32 MB of amplitudes
_PSI_POINTS_MAX = 2**21
# points on each axis of a default density grid
_DENSITY_GRID_N = 241
# most Gaussians whose Wigner density is taken in closed form: from 10 on the
# chirp-z was as fast or faster, at 241^2 and at 961^2
_CLOSED_GAUSSIANS_MAX = 8
# highest oscillator level taken in closed form: _rotation is exact in int64
# up to N = 62, and the closed form was faster at every level up to it
_CLOSED_LEVEL_MAX = 31
# _rotation's matrices by level, and (-i)^k by k mod 4
_ROTATIONS: dict[int, np.ndarray] = {}
_MINUS_I_POWERS = np.array([1, -1j, -1, 1j])
# density values per block of CSV rows: their text stays in a core's L2 cache
_CSV_BLOCK = 1 << 13
# multiply-adds per matrix product call: at most 2^18 keeps OpenBLAS on one thread
_BLAS_BLOCK = 2**18


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

    ``values[i, j]`` is W at (p_grid.points[i], q_grid.points[j]).  The
    values are held read-only in C order: a read-only C-order float array
    that owns its memory is taken over as it is, and its owner must not
    make it writeable and write to it again; anything else is copied.
    """

    values: np.ndarray
    p_grid: Grid
    q_grid: Grid
    hbar: float

    def __post_init__(self) -> None:
        vals = self.values
        if not (type(vals) is np.ndarray and vals.dtype == float and vals.flags.c_contiguous
                and vals.flags.owndata and not vals.flags.writeable):
            vals = np.array(vals, dtype=float, order="C")  # the caller keeps its own array
            vals.setflags(write=False)
        if vals.shape != (self.p_grid.n, self.q_grid.n):
            raise ContractViolationError(
                f"values shape {vals.shape} does not match grids "
                f"({self.p_grid.n}, {self.q_grid.n})"
            )
        check_hbar(self.hbar)
        object.__setattr__(self, "values", vals)

    def mass(self) -> float:
        """Integral W dp dq: the p marginal's integral."""
        return float(np.einsum("i,i", _trapezoid_weights(self.p_grid), self.marginal_p()))

    def marginal_q(self) -> np.ndarray:
        """Demand-side price density, Integral W dp."""
        return np.einsum("i,ij->j", _trapezoid_weights(self.p_grid), self.values)

    def marginal_p(self) -> np.ndarray:
        """Supply-side price density, Integral W dq."""
        return np.einsum("ij,j->i", self.values, _trapezoid_weights(self.q_grid))

    def _marginals(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Both marginals and the mass (the same bits as mass()), refused when the mass vanishes."""
        marginal_p = self.marginal_p()
        total = float(np.einsum("i,i", _trapezoid_weights(self.p_grid), marginal_p))
        if abs(total) < 1e-12:
            raise DegenerateDensityError("density has vanishing total mass")
        return marginal_p, self.marginal_q(), total

    def moments(self) -> DensityMoments:
        """Means, spreads and correlation of W.

        Means and spreads come from the two marginals; only the
        covariance needs the full grid, one product with a weight vector.
        """
        marginal_p, marginal_q, total = self._marginals()
        pm, pvar = _density_moments(marginal_p, self.p_grid)
        qm, qvar = _density_moments(marginal_q, self.q_grid)
        q_weighted = np.einsum(
            "ij,j->i", self.values, _trapezoid_weights(self.q_grid) * (self.q_grid.points - qm)
        )
        p_weights = _trapezoid_weights(self.p_grid) * (self.p_grid.points - pm)
        cov = float(np.einsum("i,i", p_weights, q_weighted)) / total
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
        """Write rows p,q,w in row-major order (p outer, q inner), each number as repr writes it.

        The text comes from ``numerics._repr_text``, a block of rows at a time.
        """
        n_p, n_q = self.values.shape
        rows = min(n_p, max(1, _CSV_BLOCK // n_q))
        p_text = np.array(_repr_text(self.p_grid.points, b",").tolist(), dtype=object)
        cells = np.empty((rows, n_q, 3), dtype=object)
        cells[:, :, 1] = np.array(_repr_text(self.q_grid.points, b",").tolist(), dtype=object)
        with open(path, "wb") as fh:
            fh.write(b"p,q,w\n")
            for a in range(0, n_p, rows):
                block = cells[:min(rows, n_p - a)]
                block[:, :, 0] = p_text[a:a + rows, None]
                block[:, :, 2] = _repr_text(self.values[a:a + rows], b"\n")
                fh.write(b"".join(block.ravel().tolist()))


def _trapezoid_weights(grid: Grid) -> np.ndarray:
    """The trapezoid rule's weights on a grid, dx [1/2, 1, ..., 1, 1/2].

    The marginals and moments take them in ``np.einsum`` products, which run
    on the calling thread without BLAS (see ``_product``).
    """
    w = np.full(grid.n, grid.spacing)
    w[[0, -1]] *= 0.5
    return w


def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: numpy's FFT runs it in radix-2, 3 and 5 passes."""
    best = 1 << (n - 1).bit_length()
    p5 = 1  # 5^c
    while p5 < best:
        p35 = p5  # 3^b 5^c
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _chord_ratio(s: Strategy, p_grid: Grid, q_grid: Grid, hb: float) -> int:
    """The least r >= 1 whose chord step 2h/r meets wigner_transform's step rule."""
    p_abs = max(abs(p_grid.lo), abs(p_grid.hi))
    freq = p_abs / hb + _slope_bound(s.form)
    dx_nyquist = math.pi / freq if freq > 0 else math.inf
    dx_max = min(0.5 * dx_nyquist, _sample_spacing(s.form))
    # a kernel with no oscillation leaves dx_max inf, and 2h / inf = 0; a ratio
    # past the psi cap (inf included) is clamped to it, which wigner_transform refuses
    ratio = 2.0 * q_grid.spacing / dx_max if dx_max > 0 else math.inf
    return max(1, math.ceil(min(ratio, _PSI_POINTS_MAX)))


def wigner_transform(
    s: Strategy,
    p_grid: Grid | None = None,
    q_grid: Grid | None = None,
    hbar: float | None = None,
) -> PhaseSpaceDensity:
    """Wigner transform of a normalizable strategy.

    Default grids cover eight standard deviations of each marginal with
    241 points; the default p-grid reads the strategy's cached supply
    dual, so it needs a demand-representation strategy.  The default
    hbar is the strategy's own, :attr:`Strategy.hbar`.

    The method follows the strategy's form, once nested superpositions
    are flattened into coefficients over leaf forms:

    - Gaussians of one width, up to 8 of them: each pair is an outer
      product of a p vector and a q vector, summed as one real matrix
      product (``_gaussian_pairs``).
    - Oscillator levels of one length scale, n <= 31, at any hbar: a
      product of rank 2 n_max + 1 at most, of Hermite functions in p and
      in q (``_hermite_levels``).
    - Anything else (sampled tables, mixed widths or forms, more parts
      or higher levels) and any closed form whose factors would leave the
      doubles: the numerical chirp-z transform of the chord integral
      (``_chirp_z``), which evaluates psi and can refuse a grid with
      ParameterRangeError when its chord step needs more than 2^21 psi
      points.  The closed forms never call ``Strategy.evaluate``.
    """
    if not isinstance(s, Strategy):
        raise ContractViolationError("wigner_transform expects a Strategy")
    if s.is_improper:
        raise ImproperStateError("point strategies have no Wigner density")
    hb = s.hbar if hbar is None else check_hbar(hbar)
    if q_grid is None:
        q_grid = Grid(*s.support_bounds(), _DENSITY_GRID_N)
    if p_grid is None:
        if s.rep is not Representation.DEMAND:
            raise RepresentationError("the default p-grid needs a demand-representation strategy")
        pm, ps = strategy_moments(s.dual(hb))
        p_grid = _default_grid(pm, max(ps, 1.25e-7))  # a span of at least 1e-6
    values = _closed_form(s.form, p_grid, q_grid, hb)
    if values is None:
        values = _chirp_z(s, p_grid, q_grid, hb)
    values.setflags(write=False)
    return PhaseSpaceDensity(values, p_grid, q_grid, hb)


def _chirp_z(s: Strategy, p_grid: Grid, q_grid: Grid, hb: float) -> np.ndarray:
    """W on p_grid x q_grid by trapezoid quadrature of the chord integral.

    The chord step is set by the kernel alone, not by the output q
    spacing: at most half the Nyquist step pi / (p_max / hbar + slope)
    of exp(-i p x / hbar) against any intrinsic phase slope of the
    amplitudes, and at most a sampled strategy's node spacing, so
    oscillatory (sloped or superposed) strategies stay resolved.

    The step is rounded down to dx = 2h/r (h the q spacing, r >= 1 an
    integer), so every chord end q_j +- x_m/2 lies on the half-step
    grid q_lo + l h/r (the q grid itself when r = 1) and psi is
    evaluated once, there.  The sum over x at every p, over the full
    symmetric range x_m = m dx, m = -m_top..m_top, is a chirp-z
    transform (Bluestein) of the smallest 2^a 3^b 5^c length that holds
    the circular convolution, 2 m_top + n_p (1944 at 961 x 961).  The
    chord obeys C(-x) = conj C(x), so each row's transform is real and
    one complex FFT of C_a + i C_b carries two q rows: row a in the real
    part, row b in the imaginary one.  The chords are formed for
    x >= 0 only: at -x, C_a + i C_b is conj(C_a - i C_b) at x.
    O(N log N) per pair of q rows, done in blocks through about 4 MB
    of reused buffers, written straight into a fresh array.

    psi is evaluated at (n_q - 1) r + 2 m_top + 1 points, m_top =
    ceil((n_q - 1) r / 2); more than 2^21 of them (a slope or p range too
    large for the q spacing) raises ParameterRangeError before any is.
    """
    h, nq, n_p = q_grid.spacing, q_grid.n, p_grid.n
    r = _chord_ratio(s, p_grid, q_grid, hb)
    dx = 2.0 * h / r
    # chords reach x = +-(q_hi - q_lo); x_m = m dx, m = -m_top..m_top
    m_top = math.ceil((nq - 1) * r / 2)
    n_x = 2 * m_top + 1
    if (nq - 1) * r + n_x > _PSI_POINTS_MAX:
        raise ParameterRangeError(
            f"the chord step needs more than {_PSI_POINTS_MAX} psi points (r = {r} on {nq} q nodes)"
        )
    half_grid = q_grid.lo + np.arange(-m_top, (nq - 1) * r + m_top + 1) * (h / r)
    psi = s.evaluate(half_grid)
    # row j, column m_top + m: psi(q_j + x_m / 2); column m_top - m: psi(q_j - x_m / 2)
    windows = np.lib.stride_tricks.sliding_window_view(psi, n_x)[::r]
    # over i psi, row b's chord comes out as i C_b
    windows_i = np.lib.stride_tricks.sliding_window_view(1j * psi, n_x)[::r]

    # Bluestein: p_k x_m / hb = (p_lo x_m + alpha (k^2 + m^2 - (k - m)^2) / 2) / hb
    m = np.arange(-m_top, m_top + 1)
    alpha = p_grid.spacing * dx
    pre = np.exp(-1j * (p_grid.lo * dx * m + 0.5 * alpha * m * m) / hb)
    k = np.arange(n_p)
    post = np.exp(-0.5j * alpha * k * k / hb) * (dx / (TWO_PI * hb))
    n_fft = _smooth_length(2 * m_top + n_p)
    chirp = np.zeros(n_fft, dtype=complex)
    lags = np.arange(-m_top, m_top + n_p)  # negative lags wrap: a circular convolution
    chirp[lags] = np.exp(0.5j * alpha * lags * lags / hb)
    chirp_f = np.fft.fft(chirp)

    values = np.empty((n_p, nq))  # W(p_k, q_j)
    pairs = (nq + 1) // 2  # rows 2t and 2t + 1; an odd last row goes alone
    block = min(pairs, max(1, 2**18 // (n_fft + m_top + 1)))  # 4 MB: FFT rows, row b's chords
    buf = np.empty((block, n_fft), dtype=complex)
    half_b = np.empty((block, m_top + 1), dtype=complex)
    for t0 in range(0, pairs, block):
        j0, j1 = 2 * t0, min(2 * (t0 + block), nq)
        rows_a, rows_b = windows[j0:j1:2], windows[j0 + 1 : j1 : 2]
        n_b = len(rows_b)
        work = buf[: len(rows_a)]
        # chords for m >= 0 only; C(-x) = conj C(x) gives the rest
        z_pos, z_neg = work[:, m_top:n_x], work[:, :m_top]
        np.conjugate(rows_a[:, m_top::-1], out=z_pos)
        z_pos *= rows_a[:, m_top:]  # C_a
        cb = half_b[: len(rows_a)]
        np.conjugate(rows_b[:, m_top::-1], out=cb[:n_b])
        cb[:n_b] *= windows_i[j0 + 1 : j1 : 2, m_top:]  # i C_b
        cb[n_b:] = 0.0  # an odd last row has no partner
        np.subtract(z_pos[:, 1:], cb[:, 1:], out=z_neg[:, ::-1])
        np.conjugate(z_neg, out=z_neg)  # conj C_a + i conj C_b at -x_m
        z_pos += cb  # z = C_a + i C_b
        z = work[:, :n_x]
        z *= pre
        work[:, n_x:] = 0.0
        np.fft.fft(work, out=work)
        work *= chirp_f
        np.fft.ifft(work, out=work)
        head = work[:, m_top : m_top + n_p]  # chord m sits at m + m_top, so output k at k + m_top
        head *= post
        values[:, j0:j1:2] = head.real.T
        values[:, j0 + 1 : j1 : 2] = head.imag[:n_b].T
    return values


def _closed_form(form, p_grid: Grid, q_grid: Grid, hb: float) -> np.ndarray | None:
    """W in closed form for Gaussians of one width or levels of one length scale, else None."""
    leaves = [(c, f) for c, f in _leaves(form) if c != 0]
    if not leaves:  # every coefficient underflowed to 0
        return None
    forms = [f for _, f in leaves]
    coefficients = np.array([c for c, _ in leaves], dtype=complex)
    if all(isinstance(f, GaussianForm) for f in forms):
        if len(forms) > _CLOSED_GAUSSIANS_MAX or len({f.width for f in forms}) != 1:
            return None
        centres = np.array([f.center for f in forms])
        with np.errstate(over="ignore", invalid="ignore"):  # past the doubles, _gaussian_pairs declines
            p_centres = hb * np.array([f.slope for f in forms])
        return _gaussian_pairs(coefficients, centres, p_centres, forms[0].width, hb, p_grid, q_grid)
    if all(isinstance(f, HermiteForm) for f in forms):
        top = max(f.n for f in forms)
        if top > _CLOSED_LEVEL_MAX or len({f.length_scale for f in forms}) != 1:
            return None
        levels = np.zeros(top + 1, dtype=complex)
        np.add.at(levels, [f.n for f in forms], coefficients)
        return _hermite_levels(levels, forms[0].length_scale, hb, p_grid, q_grid)
    return None


def _gaussian_pairs(
    coefficients: np.ndarray,
    centres: np.ndarray,
    p_centres: np.ndarray,
    width: float,
    hb: float,
    p_grid: Grid,
    q_grid: Grid,
) -> np.ndarray | None:
    """W of sum_a c_a exp(-(x - a)^2 / (4 w^2) + i k_a x), unit packets of one width w.

    With P_a = hbar k_a, pair (a, b) contributes c_a conj(c_b) g_ab(p) f_ab(q)
    / (pi hbar), g_ab = exp(-2 (w t)^2 - i (a - b) t) at t = (p - (P_a + P_b) / 2)
    / hbar and f_ab = exp(-(q - (a + b) / 2)^2 / (2 w^2) + i (P_a - P_b) q / hbar):
    an outer product per pair.  Pair (b, a) is the conjugate of (a, b), so the
    pairs a <= b, the off-diagonal ones doubled, give W as the real part of one
    sum, Re(G F^T) = [Re G, -Im G] [Re F, Im F]^T, one real matrix product.
    None where a factor, or a bound on the sum, leaves the doubles.
    """
    a, b = np.triu_indices(len(coefficients))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        weight = coefficients[a] * coefficients[b].conj() * np.where(a == b, 1.0, 2.0) / (math.pi * hb)
        t = (p_grid.points[:, None] - 0.5 * (p_centres[a] + p_centres[b])) / hb
        wt = width * t
        g = weight * np.exp(-2.0 * wt * wt - 1j * (centres[a] - centres[b]) * t)
        u = (q_grid.points[:, None] - 0.5 * (centres[a] + centres[b])) / width
        f = np.exp(-0.5 * u * u + 1j * ((p_centres[a] - p_centres[b]) / hb) * q_grid.points[:, None])
        # every product term is at most max |weight| in size, and |f| <= 1
        bound = 2 * len(a) * float(np.max(np.abs(weight)))
    if not (math.isfinite(bound) and np.isfinite(g).all() and np.isfinite(f).all()):
        return None
    return _product(np.hstack([g.real, -g.imag]), np.hstack([f.real, f.imag]).T)


def _rotation(total: int) -> np.ndarray:
    """T[m, j]: h_m(u1) h_n(u2) = sum_j T[m, j] h_j(s) h_k(r) on the level m + n = j + k = total
    of the 2-D oscillator, with s = (u1 + u2) / sqrt 2 and r = (u1 - u2) / sqrt 2.

    From a1+ = (b_s+ + b_r+) / sqrt 2 and a2+ = (b_s+ - b_r+) / sqrt 2,
    T[m, j] = (-1)^n e[m, j] sqrt(j! k! / (m! n! 2^N)), e[m, j] the x^j coefficient
    of (1 + x)^m (1 - x)^n: row m + 1 is the cumulative sum of row m times
    (1 + x), exact in int64 for N <= 62, where |e| <= C(62, 31) < 2^63.  Built
    once per level.
    """
    if total not in _ROTATIONS:
        e = np.empty((total + 1, total + 1), dtype=np.int64)
        e[0] = [(-1) ** j * math.comb(total, j) for j in range(total + 1)]  # (1 - x)^N
        for m in range(total):
            e[m + 1] = e[m]
            e[m + 1, 1:] += e[m, :-1]
            np.cumsum(e[m + 1], out=e[m + 1])  # divides by 1 - x
        # j! (N - j)!, each rounded once to a double
        g = np.array([float(math.factorial(j) * math.factorial(total - j)) for j in range(total + 1)])
        sign = (-1.0) ** np.arange(total, -1, -1)  # (-1)^n by row m
        _ROTATIONS[total] = (sign[:, None] * e) * np.sqrt(np.multiply.outer(1.0 / g, g) / 2.0**total)
    return _ROTATIONS[total]


def _hermite_functions(u: np.ndarray, count: int) -> np.ndarray:
    """Rows h_0(u) .. h_{count-1}(u) of the orthonormal Hermite functions."""
    out = np.empty((count, len(u)))
    u = np.clip(u, -1e150, 1e150)  # past |u| = 1e150 every level is 0 in doubles, and u^2 stays finite
    ladder = _hermite_ladder(u, *_hermite_ground(u))  # shifted where e^(-u^2/2) underflows
    for row, level in zip(out, ladder):
        row[:] = level
    return out


def _hermite_levels(
    levels: np.ndarray, length: float, hb: float, p_grid: Grid, q_grid: Grid
) -> np.ndarray | None:
    """W of sum_m c_m h_m(x / L) / sqrt L, c_m = ``levels[m]``, at any hbar.

    In s = sqrt 2 q / L and r = x / (sqrt 2 L) each product h_m h_n of the
    chord is a sum of h_j(s) h_k(r) over j + k = m + n (``_rotation``), and
    the chord integral maps h_k(r) to sqrt(2 pi) (-i)^k h_k(sqrt 2 p L / hbar).  So
    W = H_p Re(B) H_q^T / (sqrt pi hbar), H_q's columns h_j(sqrt 2 q / L) and
    H_p's h_k(sqrt 2 p L / hbar) for j, k <= 2 n_max, and
    B[k, j] = (-i)^k sum_{m + n = j + k} c_m conj(c_n) T[m, j]: a product of
    rank 2 n_max + 1 at most.  None where a scaled grid point or a bound on
    the product leaves the doubles.
    """
    top = len(levels) - 1
    rank = 2 * top + 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u_p = p_grid.points * (math.sqrt(2.0) * length / hb)
        u_q = q_grid.points * (math.sqrt(2.0) / length)
        b = np.zeros((rank, rank))
        for total in range(rank):
            m = np.arange(max(0, total - top), min(total, top) + 1)
            z = (levels[m] * levels[total - m].conj()) @ _rotation(total)[m]
            j = np.arange(total + 1)
            b[total - j, j] = (_MINUS_I_POWERS[(total - j) % 4] * z).real
        b /= math.sqrt(math.pi) * hb
        # |h_k| < 1, so every product term is at most max |b| in size
        bound = rank * rank * float(np.max(np.abs(b)))
    if not (math.isfinite(bound) and np.isfinite(u_p).all() and np.isfinite(u_q).all()):
        return None
    h_p = _hermite_functions(u_p, rank)
    h_q = _hermite_functions(u_q, rank)
    return _product(h_p.T, _product(b, h_q))


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right in row blocks of at most 2^18 multiply-adds, which OpenBLAS
    runs on the calling thread: its threaded products were measured to stall
    for 4-16 ms on a 2-CPU machine shared with other work."""
    out = np.empty((left.shape[0], right.shape[1]))
    rows = max(1, _BLAS_BLOCK // right.size)
    for i in range(0, len(out), rows):
        np.matmul(left[i : i + rows], right, out=out[i : i + rows])
    return out


def _default_grid(centre: float, sigma: float) -> Grid:
    """A density's default axis: 241 points over centre +- 8 sigma."""
    half = _SUPPORT_SIGMAS * sigma
    return Grid(centre - half, centre + half, _DENSITY_GRID_N)


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
        check_positive(self.eta, "eta")
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
    the cross term makes the measured p-q correlation equal -r.  At r = 0
    the density is an outer product of a p and a q Gaussian, formed as
    one (``_gaussian_pairs``); otherwise it is one exp over the grid.
    """
    check_hbar(hbar)
    if abs(params.r) == 1.0:
        raise DegenerateDensityError("|r| = 1 collapses the density to a line")
    dp_w = params.delta_p(hbar)
    dq_w = params.delta_q()
    q_grid = q_grid or _default_grid(params.q0, dq_w)
    p_grid = p_grid or _default_grid(params.p0, dp_w)
    values = None
    if params.r == 0:  # a packet of width eta at q0 and slope p0 / hbar: one outer product
        values = _gaussian_pairs(
            np.ones(1), np.array([params.q0]), np.array([params.p0]), params.eta, hbar, p_grid, q_grid
        )
    if values is None:
        u = (p_grid.points[:, None] - params.p0) / dp_w
        v = (q_grid.points[None, :] - params.q0) / dq_w
        one_m = 1.0 - params.r * params.r
        # det check: (Delta_p Delta_q)^2 (1 - r^2) = hbar^2/4, so the peak is 1/(pi hbar)
        quad = (u * u + 2.0 * params.r * u * v + v * v) / (2.0 * one_m)
        values = np.exp(-quad) / (TWO_PI * dp_w * dq_w * math.sqrt(one_m))
    values.setflags(write=False)
    return PhaseSpaceDensity(values, p_grid, q_grid, hbar)


def _laguerre_ladder(z: np.ndarray) -> Iterator[np.ndarray]:
    """e^{-z/2} L_k(z) for k = 0, 1, 2, ... by the scaled three-term recurrence.

    The bare polynomial reaches ~e^{z/2} and overflows around z = 1400;
    the scaled sequence is bounded by 1 in magnitude for z >= 0.  Levels
    are computed lazily, one per ``next``, in three buffers that take
    turns: nothing is allocated past level 1, and a yielded level is
    valid only until the caller advances.  Each step does the
    operations of ((2k + 1 - z) m_k - k m_{k-1}) / (k + 1) in that
    order, so every level has the bits of the expression itself.
    """
    prev = np.multiply(z, -0.5)
    np.exp(prev, out=prev)
    yield prev
    cur = np.subtract(1.0, z)
    cur *= prev
    yield cur
    nxt = np.empty_like(cur)
    for k in itertools.count(1):
        np.subtract(2 * k + 1, z, out=nxt)
        nxt *= cur
        prev *= k
        nxt -= prev
        nxt /= k + 1
        prev, cur, nxt = cur, nxt, prev
        yield cur


def _folded_abs(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The distinct |x| of a grid's points, and each point's index among them.

    On a grid with lo == -hi, the mirrored points x_i and x_{n-1-i} both
    take the smaller of their two |x| (linspace leaves them ulps apart),
    so they share bits and a function of |x| comes out exactly even.
    """
    a = np.abs(grid.points)
    if grid.lo == -grid.hi:
        a = np.minimum(a, a[::-1])
    return np.unique(a, return_inverse=True)


def _oscillator_h(
    p_grid: Grid, q_grid: Grid, risk: RiskParams
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """H's two terms, p^2 / 2m on the distinct |p| and m omega^2 q^2 / 2 on the
    distinct |q|, and the index back to the full grid.

    H is even in p and in q, so any f of it is evaluated once per
    distinct (|p|, |q|) pair, on ``np.add.outer`` of the two terms, and
    ``_spread(f(h), index)`` is f at every p_grid x q_grid point.
    Refused where H or z = 4H/(hbar omega) would overflow: both grow
    with |p| and |q|, so the corner farthest out bounds them; checked
    there in numpy scalars, where an overflow or a zero hbar omega gives
    inf or nan, before any array overflows.
    """
    p_top = max(-p_grid.lo, p_grid.hi)
    q_top = max(-q_grid.lo, q_grid.hi)
    omega = np.float64(risk.omega)
    with np.errstate(all="ignore"):
        # associated as the terms below, whose Python omega**2 would raise
        h_top = p_top * p_top / (2.0 * risk.m) + 0.5 * risk.m * omega**2 * q_top * q_top
        z_top = 4.0 * h_top / (risk.hbar_eff * omega)
    if not np.isfinite(z_top):
        raise ParameterRangeError(
            f"the risk Hamiltonian overflows a double on the grid corner ({p_top}, {q_top})"
        )
    p, p_at = _folded_abs(p_grid)
    q, q_at = _folded_abs(q_grid)
    return p * p / (2.0 * risk.m), 0.5 * risk.m * risk.omega**2 * q * q, (p_at, q_at)


def _spread(values: np.ndarray, index: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """A fresh read-only C-order array of ``values`` gathered row by row, then column by column,
    for a density to take over.

    Two ``take`` calls: at 241² about a third of the time of one ``np.ix_`` gather.
    """
    p_at, q_at = index
    out = values.take(p_at, axis=0).take(q_at, axis=1)
    out.setflags(write=False)
    return out


def _oscillator_grids(
    n_level: float, risk: RiskParams, p_grid: Grid | None, q_grid: Grid | None
) -> tuple[Grid, Grid]:
    hb = risk.hbar_eff
    sq = math.sqrt((n_level + 0.5) * hb / (risk.m * risk.omega))
    sp = math.sqrt((n_level + 0.5) * hb * risk.m * risk.omega)
    return p_grid or _default_grid(0.0, sp), q_grid or _default_grid(0.0, sq)


def excited_wigner(
    n: int,
    risk: RiskParams,
    p_grid: Grid | None = None,
    q_grid: Grid | None = None,
) -> PhaseSpaceDensity:
    """Closed-form Wigner density of the n-th risk eigenstate.

    W_n = ((-1)^n / (pi hbar)) e^{-2H/(hbar omega)} L_n(4H/(hbar omega))
    with H the oscillator Hamiltonian of the risk parameters, for
    n <= EXCITED_MAX_LEVEL.  W_n depends on (p, q) only through |p| and
    |q|, so the Laguerre ladder runs once per distinct (|p|, |q|) pair of
    the grid and is spread back to every point.  On a grid with
    lo == -hi the mirrored points share one |p| (or |q|), so W_n is
    exactly even in p and in q.
    """
    check_count(n, "level n", 0)
    if n > EXCITED_MAX_LEVEL:
        raise ParameterRangeError(
            f"level {n} exceeds the supported maximum {EXCITED_MAX_LEVEL}"
        )
    hb = risk.hbar_eff
    p_grid, q_grid = _oscillator_grids(float(n), risk, p_grid, q_grid)
    h_p, h_q, index = _oscillator_h(p_grid, q_grid, risk)
    h = np.add.outer(h_p, h_q)
    level_n = next(itertools.islice(_laguerre_ladder(4.0 * h / (hb * risk.omega)), n, None))
    values = _spread((-1.0) ** n / (math.pi * hb) * level_n, index)
    return PhaseSpaceDensity(values, p_grid, q_grid, hb)


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
    x = (2 / hbar omega) tanh(beta hbar omega / 2), evaluated once per
    distinct (|p|, |q|) pair of the grid and spread back to every point.

    mode="series" sums the level densities with their Gibbs weights
    (1 - s) s^k, s = e^{-beta hbar omega}, which converges to the closed
    form and is kept for cross-checks.  With z = 4H/(hbar omega) =
    X(p) + Y(q), the Laguerre addition formula splits each level,
    e^{-z/2} L_k(z) = sum_{i+j=k} a_i(X) b_j(Y), a and b the
    e^{-x/2} L_i^{(-1/2)}(x) of one 1-D ladder each (``_half_laguerre_ladder``)
    on the distinct |p| and the distinct |q|.  The weights split too,
    (-s)^k = (-s)^i (-s)^j, so the K-level sum is one matrix product
    U V~^T of the weighted p ladder and the reversed prefix sums of the
    weighted q ladder, spread back to every point.  K is ``series_terms``
    or, if fewer, the first k with s^k <= 2^-60 tanh(beta hbar omega / 2)
    (``_series_cut``): |e^{-z/2} L_k(z)| <= 1 for z >= 0, so the levels
    dropped sum to at most 2^-60 of the density's peak.

    On a grid with lo == -hi the mirrored points share one |p| (or |q|),
    so W is exactly even in p and in q.  A beta so small that the thermal
    spread overflows, or a grid on which H overflows, raises
    ParameterRangeError.
    """
    check_positive(beta, "beta")
    if mode not in ("closed", "series"):
        raise ContractViolationError(f"mode must be closed or series, got {mode!r}")
    hb = risk.hbar_eff
    tanh = math.tanh(0.5 * beta * hb * risk.omega)
    x = (2.0 / (hb * risk.omega)) * tanh
    scaled = hb * risk.omega * x
    spread = 1.0 / scaled if scaled > 0 else math.inf
    if not math.isfinite(spread):
        raise ParameterRangeError(f"beta {beta} is too small: the thermal spread overflows")
    # thermal spread expressed as an effective level count for the grids
    level = max(spread - 0.5, 0.0)
    p_grid, q_grid = _oscillator_grids(level + 0.5, risk, p_grid, q_grid)
    h_p, h_q, index = _oscillator_h(p_grid, q_grid, risk)
    if mode == "closed":
        h = np.add.outer(h_p, h_q)
        return PhaseSpaceDensity(_spread((risk.omega / TWO_PI) * x * np.exp(-x * h), index), p_grid, q_grid, hb)
    check_count(series_terms, "series_terms", 1)
    s = math.exp(-beta * hb * risk.omega)
    terms = _series_cut(s, tanh, series_terms)
    weights = (-s) ** np.arange(terms)[:, None]  # (-s)^i by row
    u = _half_laguerre_ladder(4.0 * h_p / (hb * risk.omega), terms)
    u *= ((1.0 - s) / (math.pi * hb)) * weights
    v = _half_laguerre_ladder(4.0 * h_q / (hb * risk.omega), terms)
    v *= weights
    np.cumsum(v, axis=0, out=v)  # row j: the q levels 0..j
    # level pairs i + j < terms: p row i meets the q prefix sum of row terms - 1 - i
    values = _product(u.T, np.ascontiguousarray(v[::-1]))
    return PhaseSpaceDensity(_spread(values, index), p_grid, q_grid, hb)


def _series_cut(s: float, tanh: float, terms: int) -> int:
    """min(terms, the first k with s^k <= 2^-60 tanh), from logarithms.

    s = 0 (e^{-beta hbar omega} underflows) keeps level 0 alone.  s = 1
    (e^{-beta hbar omega} rounds to 1) gives every level the weight
    1 - s = 0, so one level gives the same zeros as any count.
    """
    if s == 0.0 or s == 1.0:
        return 1
    return min(terms, math.ceil(math.log(2.0**-60 * tanh) / math.log(s)))


def _half_laguerre_ladder(x: np.ndarray, count: int) -> np.ndarray:
    """Rows e^{-x/2} L_i^{(-1/2)}(x) for i < count, by the scaled three-term
    recurrence (i + 1) L_{i+1} = (2i + 1/2 - x) L_i - (i - 1/2) L_{i-1}.

    L_i^{(-1/2)}(x) = (-1)^i H_{2i}(sqrt x) / (4^i i!), so Cramer's bound on
    the Hermite functions keeps every row within 1 in magnitude for x >= 0.
    """
    out = np.empty((count, len(x)))
    np.exp(-0.5 * x, out=out[0])
    if count > 1:
        np.multiply(0.5 - x, out[0], out=out[1])
    prev = np.empty_like(x)
    for i in range(1, count - 1):
        row = out[i + 1]
        np.subtract(2 * i + 0.5, x, out=row)
        row *= out[i]
        np.multiply(out[i - 1], i - 0.5, out=prev)
        row -= prev
        row /= i + 1
    return out


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


def is_giffen(d: PhaseSpaceDensity) -> GiffenReport:
    """Scan for negativity; a giffen strategy has W < -tol somewhere, tol = 1e-9 max(max |W|, 1)."""
    if not isinstance(d, PhaseSpaceDensity):
        raise ContractViolationError("is_giffen expects a PhaseSpaceDensity")
    mn, p_at, q_at = d.min_point()
    peak = max(float(d.values.max()), -mn)  # max |W|, without an abs copy
    tol = 1e-9 * max(peak, 1.0)
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


def hudson_check(s: Strategy) -> HudsonReport:
    """Classify a pure strategy by Wigner positivity.

    Hudson's theorem: a pure state has an everywhere non-negative
    Wigner function exactly when it is a Gaussian wave packet.  Mixed
    densities are out of scope; pass strategies only.  The density is
    ``wigner_transform(s)`` on its default grids, at the strategy's own
    hbar; for other grids, call ``is_giffen(wigner_transform(s, ...))``.
    A strategy whose oscillator levels carry two hbar, and so has no
    default, is classified at hbar = 1: W_hbar(p, q) = (hbar' / hbar)
    W_hbar'(p hbar' / hbar, q), so the sign pattern does not depend on hbar.
    """
    if not isinstance(s, Strategy):
        raise ContractViolationError(
            "hudson_check classifies pure strategies, not densities"
        )
    try:
        hb = s.hbar
    except ParameterRangeError:  # levels at two hbar leave no default
        hb = 1.0
    d = wigner_transform(s, hbar=hb)
    report = is_giffen(d)
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
        """Write rows lnc,Fd,Fs, each number as repr writes it (``numerics._repr_text``)."""
        cells = _repr_text(np.stack([self.lnc, self.demand, self.supply], axis=1), b",,\n")
        with open(path, "wb") as fh:
            fh.write(b"lnc,Fd,Fs\n" + b"".join(cells.ravel().tolist()))


def _cumulative_slice(slice_vals: np.ndarray, grid: Grid) -> tuple[np.ndarray, bool, bool]:
    # the numerics Spline's antiderivative: trapezoid accumulation at typical
    # grid sizes (n ~ 241) leaves O(1e-4) error, two orders too coarse for the curves
    cum = Spline(grid, slice_vals).cumulative
    total = cum[-1]
    scale = float(np.max(np.abs(slice_vals))) * (grid.hi - grid.lo)
    normalized = abs(total) > 1e-9 * max(scale, 1e-300)
    if normalized:
        cum = cum / total
    monotone = bool(np.all(np.diff(cum) >= -1e-12))
    return cum, monotone, normalized


def dominant_curves(d: PhaseSpaceDensity) -> DominantCurves:
    """Cut cumulative demand and supply curves out of a density.

    The slices are the density's mean point, read from the two
    marginals (the same bits as ``d.moments()``) and snapped to the
    nearest grid line.
    """
    if not isinstance(d, PhaseSpaceDensity):
        raise ContractViolationError("dominant_curves expects a PhaseSpaceDensity")
    marginal_p, marginal_q, _ = d._marginals()
    p_at = _density_moments(marginal_p, d.p_grid)[0]
    q_at = _density_moments(marginal_q, d.q_grid)[0]
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
