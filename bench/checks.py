"""Independent references and output checks for the qmg benchmark.

Every reference here is a closed form or a scipy computation built from
the same plain parameters the workloads hand to qmg; none of them calls
qmg or compares against stored program output.  A check raises
``CheckFailed`` with a message naming what disagreed; the runner counts
the operation as failed.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize, special

# Monte Carlo comparisons allow this many standard errors.  Six keeps a
# chance failure below 1e-8 per comparison over thousands of runs.
MC_SIGMAS = 6.0
# Wigner marginals and mass, as in the package's acceptance criterion 5.
MARGINAL_TOL = 1e-5


def _normal_pdf(u):
    return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


class CheckFailed(Exception):
    """An output disagreed with its independent reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# amplitudes and their Fourier duals


def hermite_phi(n: int, x: np.ndarray, ell: float = 1.0) -> np.ndarray:
    """Oscillator eigenfunction from scipy's physicists' Hermite polynomial."""
    u = np.asarray(x, dtype=float) / ell
    norm = 1.0 / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi) * ell)
    return norm * special.eval_hermite(n, u) * np.exp(-0.5 * u * u)


@dataclass(frozen=True)
class Levels:
    """sum_n c_n phi_n(x / ell) / sqrt(ell): an oscillator-level superposition."""

    coeffs: tuple[complex, ...]
    ell: float = 1.0

    def amplitude(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for n, c in enumerate(self.coeffs):
            if c != 0:
                out += c * hermite_phi(n, x, self.ell)
        return out

    def dual(self, p, hbar: float = 1.0) -> np.ndarray:
        """Fourier image: level n maps to (-i)^n phi_n on the scale hbar / ell."""
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape, dtype=complex)
        for n, c in enumerate(self.coeffs):
            if c != 0:
                out += c * (-1j) ** n * hermite_phi(n, p, hbar / self.ell)
        return out

    def bounds(self) -> tuple[float, float]:
        half = 12.0 * math.sqrt(len(self.coeffs) + 0.5) * self.ell
        return -half, half


@dataclass(frozen=True)
class Packets:
    """sum_j c_j g(x; a_j, width, k_j): equal-width Gaussian packets.

    g is exp(-(x - a)^2 / (4 width^2) + i k x), unit normalized, so one
    packet is a sloped Gaussian and two packets make a cat state.
    """

    coeffs: tuple[complex, ...]
    centers: tuple[float, ...]
    width: float
    slopes: tuple[float, ...]

    def amplitude(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        w = self.width
        out = np.zeros(x.shape, dtype=complex)
        for c, a, k in zip(self.coeffs, self.centers, self.slopes):
            out += c * (2.0 * math.pi * w * w) ** -0.25 * np.exp(
                -((x - a) ** 2) / (4.0 * w * w) + 1j * k * x
            )
        return out

    def dual(self, p, hbar: float = 1.0) -> np.ndarray:
        """Each packet maps to a Gaussian at hbar k of width hbar / (2 width)."""
        p = np.asarray(p, dtype=float)
        sp = hbar / (2.0 * self.width)
        out = np.zeros(p.shape, dtype=complex)
        for c, a, k in zip(self.coeffs, self.centers, self.slopes):
            out += (
                c
                * (2.0 * math.pi * sp * sp) ** -0.25
                * np.exp(-((p - hbar * k) ** 2) / (4.0 * sp * sp))
                * np.exp(1j * (k - p / hbar) * a)
            )
        return out

    def norm_sq(self) -> float:
        """Closed-form <psi|psi> from the pairwise packet overlaps."""
        w = self.width
        total = 0.0 + 0.0j
        for ci, ai, ki in zip(self.coeffs, self.centers, self.slopes):
            for cj, aj, kj in zip(self.coeffs, self.centers, self.slopes):
                dk = kj - ki
                overlap = math.exp(-((ai - aj) ** 2) / (8.0 * w * w)) * np.exp(
                    1j * dk * 0.5 * (ai + aj) - 0.5 * w * w * dk * dk
                )
                total += np.conj(ci) * cj * overlap
        return float(total.real)

    def normalized(self) -> "Packets":
        s = math.sqrt(self.norm_sq())
        return Packets(tuple(c / s for c in self.coeffs), self.centers, self.width, self.slopes)

    def bounds(self) -> tuple[float, float]:
        return min(self.centers) - 12.0 * self.width, max(self.centers) + 12.0 * self.width


def normalized_levels(coeffs, ell: float = 1.0) -> Levels:
    c = np.asarray(coeffs, dtype=complex)
    c = c / math.sqrt(float(np.sum(np.abs(c) ** 2)))
    return Levels(tuple(complex(v) for v in c), ell)


# ---------------------------------------------------------------------------
# distributions of sampled log-prices


class Law:
    """Distribution of |amplitude|^2 with a fine cumulative table (scipy Simpson)."""

    def __init__(self, amplitude, bounds, n: int = 40001) -> None:
        self._amp = amplitude
        self.lo, self.hi = bounds
        self.x = np.linspace(self.lo, self.hi, n)
        dens = self.density(self.x)
        cum = integrate.cumulative_simpson(dens, x=self.x, initial=0.0)
        self.table = cum / cum[-1]

    def density(self, x):
        return np.abs(self._amp(x)) ** 2

    def cdf(self, x):
        return np.interp(x, self.x, self.table, left=0.0, right=1.0)


def quad(f, lo, hi) -> float:
    # quad warns when roundoff stops it short of epsrel; the checks' own
    # tolerances are orders of magnitude looser than that
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(f, lo, hi, limit=400, epsabs=1e-10, epsrel=1e-9)
    return float(value)


@dataclass(frozen=True)
class AuctionReference:
    """Per-buyer transaction probabilities and first-price revenue moments."""

    probs: tuple[float, ...]
    revenue: float
    revenue_sq: float


def auction_reference(buyers: list[Law], seller: Law) -> AuctionReference:
    """Integrate f_k(q) = rho_k(q) prod_{m != k} P(q_m > q) P(p <= -q) by quad.

    A first-price trade at q pays e^{-q}, so the revenue moments are the
    same integrals weighted by e^{-q} and e^{-2q}.
    """
    lo = min(b.lo for b in buyers)
    hi = max(b.hi for b in buyers)
    x = np.linspace(lo, hi, 40001)
    surv = [1.0 - b.cdf(x) for b in buyers]
    seller_factor = seller.cdf(-x)
    probs, rev, rev_sq = [], 0.0, 0.0
    for k, b in enumerate(buyers):
        others = seller_factor.copy()
        for m, s in enumerate(surv):
            if m != k:
                others *= s
        f = lambda q, b=b, others=others: b.density(q) * np.interp(q, x, others)
        probs.append(quad(f, b.lo, b.hi))
        rev += quad(lambda q: math.exp(-q) * f(q), b.lo, b.hi)
        rev_sq += quad(lambda q: math.exp(-2.0 * q) * f(q), b.lo, b.hi)
    return AuctionReference(tuple(probs), rev, rev_sq)


def check_transaction_report(report, ref: AuctionReference, tol: float = 2e-5) -> None:
    per = np.asarray(report.per_buyer)
    require(len(per) == len(ref.probs), "transaction report has the wrong buyer count")
    err = float(np.max(np.abs(per - np.asarray(ref.probs))))
    require(err <= tol, f"per-buyer transaction probability off by {err:.3g} (tol {tol})")
    require(float(np.min(per)) >= -1e-12, "negative transaction probability")
    require(report.total <= 1.0 + 1e-9, f"transaction probabilities sum to {report.total}")
    require(abs(report.total - math.fsum(per)) <= 1e-12, "total is not the per-buyer sum")
    require(abs(report.total + report.p_no_trade - 1.0) <= 1e-12, "total + p_no_trade != 1")


def _mc_close(value: float, mean: float, var: float, n: int, slack: float = 1e-6) -> bool:
    se = math.sqrt(max(var, 0.0) / n)
    return abs(value - mean) <= MC_SIGMAS * se + slack


def check_winner_freqs(winner_freq, p_no_trade: float, ref_probs, n: int) -> None:
    freq = np.asarray(winner_freq, dtype=float)
    require(len(freq) == len(ref_probs), "winner frequencies have the wrong buyer count")
    require(abs(math.fsum(freq) + p_no_trade - 1.0) <= 1e-9, "winner_freq + p_no_trade != 1")
    for k, (f, p) in enumerate(zip(freq, ref_probs)):
        require(
            _mc_close(f, p, p * (1.0 - p), n),
            f"buyer {k} wins {f:.6f} of draws, quadrature says {p:.6f}",
        )
    total = math.fsum(ref_probs)
    require(
        _mc_close(1.0 - p_no_trade, total, total * (1.0 - total), n),
        f"trade rate {1.0 - p_no_trade:.6f}, quadrature says {total:.6f}",
    )


def check_histogram(edges, counts, executed: float, bins: int = 50) -> None:
    edges = np.asarray(edges, dtype=float)
    counts = np.asarray(counts, dtype=float)
    require(len(edges) == bins + 1 and len(counts) == bins, "histogram has the wrong bin count")
    require(bool(np.all(np.diff(edges) > 0)), "histogram edges are not increasing")
    require(float(np.min(counts)) >= 0.0, "negative histogram count")
    require(
        abs(float(np.sum(counts)) - executed) <= 1e-6 * max(executed, 1.0),
        f"histogram holds {float(np.sum(counts))} trades, {executed} executed",
    )


def check_auction_pricings(first, second, mixed, weight: float, ref: AuctionReference) -> None:
    """Relations between first, second and mixed runs that share their draws.

    Each run's own winner frequencies and histogram are checked on their own.
    """
    n = first.n_samples
    for out in (second, mixed):
        require(out.winner_freq == first.winner_freq, "pricings disagree on winners")
        require(out.p_no_trade == first.p_no_trade, "pricings disagree on p_no_trade")
    require(
        _mc_close(first.revenue_mean, ref.revenue, ref.revenue_sq - ref.revenue**2, n),
        f"first-price revenue {first.revenue_mean:.6g}, quadrature says {ref.revenue:.6g}",
    )
    require(second.revenue_mean <= first.revenue_mean, "second price above first price")
    blend = weight * first.revenue_mean + (1.0 - weight) * second.revenue_mean
    require(
        abs(mixed.revenue_mean - blend) <= 1e-9 * max(abs(blend), 1e-300),
        f"mixed revenue {mixed.revenue_mean!r} is not w*first+(1-w)*second = {blend!r}",
    )


# ---------------------------------------------------------------------------
# Vickrey payoffs


def vickrey_exact_reference(valuation, bids, opp_atoms, seller_atoms) -> list[float]:
    """Expected payoffs from products of opponent survival functions.

    Z = min(opponent minimum, -p); bidding q = -ln b wins and trades iff
    q <= Z (ties go to the bidder) and pays e^{-Z}.  The opponent minimum
    has P(M >= x) = prod_m P(q_m >= x), so its law needs one pass over
    the atoms, not their product.
    """
    values = sorted({a for atoms in opp_atoms for a, _ in atoms})

    def surv(x, strict):
        out = 1.0
        for atoms in opp_atoms:
            out *= math.fsum(w for a, w in atoms if (a > x if strict else a >= x))
        return out

    law = [(v, surv(v, False) - surv(v, True)) for v in values]
    payoffs = []
    for b in bids:
        q = -math.log(b)
        total = 0.0
        for p_at, p_w in seller_atoms:
            if q + p_at > 0:
                continue
            for m_at, m_w in law:
                if m_at >= q:
                    total += p_w * m_w * (valuation - math.exp(-min(m_at, -p_at)))
        payoffs.append(total)
    return payoffs


def check_vickrey_exact(report, valuation, ref_payoffs) -> None:
    require(report.exact, "enumerable Vickrey instance was not solved exactly")
    got = np.asarray(report.payoffs)
    err = float(np.max(np.abs(got - np.asarray(ref_payoffs))))
    require(err <= 1e-12 * max(1.0, valuation), f"exact Vickrey payoffs off by {err:.3g}")
    require(report.truthful_optimal, "truthful bid is not optimal in an exact second-price auction")
    require(any(abs(b - valuation) <= 1e-12 for b in report.argmax_bids), "valuation not in argmax")


def vickrey_gaussian_reference(valuation, bids, opponents, seller):
    """Payoff mean and second moment per bid against Gaussian opponents.

    opponents are (mean, sd) of demand quotes; seller is (mean, sd) of its
    supply quote p, so the pseudo-bid -p is N(-mean, sd).
    """
    laws = list(opponents) + [(-seller[0], seller[1])]
    hi = max(m + 12.0 * sd for m, sd in laws)

    def f_min(z):
        """Density of the minimum: sum_i pdf_i(z) prod_{j != i} sf_j(z)."""
        sf = [special.ndtr((m - z) / sd) for m, sd in laws]
        total = 0.0
        for i, (m, sd) in enumerate(laws):
            term = _normal_pdf((z - m) / sd) / sd
            for j, s in enumerate(sf):
                if j != i:
                    term *= s
            total += term
        return total

    means, squares = [], []
    for b in bids:
        q = -math.log(b)
        means.append(quad(lambda z: (valuation - math.exp(-z)) * f_min(z), q, hi))
        squares.append(quad(lambda z: (valuation - math.exp(-z)) ** 2 * f_min(z), q, hi))
    return means, squares


def check_vickrey_mc(report, ref_means, ref_squares, n: int) -> None:
    require(not report.exact, "Gaussian Vickrey instance claimed an exact solution")
    for b, got, m, sq in zip(report.bids, report.payoffs, ref_means, ref_squares):
        require(
            _mc_close(got, m, sq - m * m, n),
            f"Vickrey payoff at bid {b:.4g} is {got:.6g}, quadrature says {m:.6g}",
        )


# ---------------------------------------------------------------------------
# clearing


def expected_clearing(buyers, sellers, log_prices):
    """Greedy crossing: lowest q against lowest p; trade iff q + p <= 0, moving e^q."""
    b_sorted = sorted(buyers, key=lambda i: log_prices[i])
    s_sorted = sorted(sellers, key=lambda i: log_prices[i])
    pairs, executed = [], []
    flows = {i: 0.0 for i in list(buyers) + list(sellers)}
    for b, s in zip(b_sorted, s_sorted):
        ok = log_prices[b] + log_prices[s] <= 0.0
        pairs.append((b, s))
        executed.append(ok)
        if ok:
            flows[b] -= math.exp(log_prices[b])
            flows[s] += math.exp(log_prices[b])
    return pairs, executed, flows


def _check_flows(flows: dict, expected: dict) -> None:
    for i, f in expected.items():
        require(abs(flows[i] - f) <= 1e-12 * max(1.0, abs(f)), f"trader {i} flow {flows[i]!r}, expected {f!r}")
    scale = math.fsum(abs(v) for v in flows.values())
    require(abs(math.fsum(flows.values())) <= 1e-12 * max(scale, 1.0), "flows do not sum to zero")


def check_clearing_round(outcome, n_traders: int) -> None:
    buyers, sellers = outcome.division.buyers, outcome.division.sellers
    require(
        sorted(buyers + sellers) == list(range(n_traders)),
        "division does not put every trader on exactly one side",
    )
    require(set(outcome.log_prices) == set(range(n_traders)), "a trader has no quote")
    pairs, executed, flows = expected_clearing(buyers, sellers, outcome.log_prices)
    require(list(outcome.pairs) == pairs, "pairs are not the greedy crossing")
    require(list(outcome.executed) == executed, "execution does not follow q + p <= 0")
    _check_flows(outcome.flows, flows)


def check_rounds_csv(path, n_traders: int, rounds: int) -> None:
    with open(path) as fh:
        header = fh.readline().strip()
        rows = [line.strip().split(",") for line in fh if line.strip()]
    require(header == "round,trader,side,logprice,executed,flow", f"rounds.csv header {header!r}")
    require(len(rows) == rounds * n_traders, f"rounds.csv has {len(rows)} rows")
    by_round: dict[int, list] = {}
    for r in rows:
        by_round.setdefault(int(r[0]), []).append(r)
    require(sorted(by_round) == list(range(rounds)), "rounds.csv is missing rounds")
    for rnd, rs in by_round.items():
        traders = [int(r[1]) for r in rs]
        require(sorted(traders) == list(range(n_traders)), f"round {rnd}: traders not on one side each")
        require(all(r[2] in ("buyer", "seller") for r in rs), f"round {rnd}: bad side")
        prices = {int(r[1]): float(r[3]) for r in rs}
        buyers = [int(r[1]) for r in rs if r[2] == "buyer"]
        sellers = [int(r[1]) for r in rs if r[2] == "seller"]
        pairs, executed, flows = expected_clearing(buyers, sellers, prices)
        status = {i: 0 for i in prices}
        for (b, s), ok in zip(pairs, executed):
            if ok:
                status[b] = status[s] = 1
        for r in rs:
            require(int(r[4]) == status[int(r[1])], f"round {rnd}: trader {r[1]} execution flag")
        _check_flows({int(r[1]): float(r[5]) for r in rs}, flows)


# ---------------------------------------------------------------------------
# profit intensity fixed point


def fixed_point_reference(sigma: float) -> float:
    """Root of sigma [phi(a/sigma) - (a/sigma) Q(a/sigma)] = a by brentq."""

    def surplus(a):
        u = a / sigma
        return sigma * (_normal_pdf(u) - u * special.ndtr(-u)) - a

    return optimize.brentq(surplus, 1e-12 * sigma, 5.0 * sigma, xtol=1e-14 * sigma, rtol=1e-15)


def check_cooling_rows(sigmas, fixed_points, max_intensities) -> None:
    require(len(fixed_points) == len(sigmas), "cooling table has the wrong row count")
    for s, a, rho in zip(sigmas, fixed_points, max_intensities):
        ref = fixed_point_reference(s)
        require(abs(a - ref) <= 1e-9 * s, f"fixed point {a!r} at sigma {s}, brentq says {ref!r}")
        require(abs(a / s - 0.27603) <= 5e-6, f"a*/sigma = {a / s!r}, expected 0.27603")
        require(abs(rho - a) <= 1e-9 * s, f"intensity at the fixed point {rho!r} != {a!r}")


# ---------------------------------------------------------------------------
# Zeno survival


def coherent_survival(alpha_sq: float, total_time: float, n: int) -> float:
    return math.exp(2.0 * n * alpha_sq * (math.cos(2.0 * math.pi * total_time / n) - 1.0))


def two_level_survival(weight: float, gap: int, total_time: float, n: int) -> float:
    """Levels k and k + gap with populations weight and 1 - weight."""
    a, b = weight, 1.0 - weight
    overlap = a * a + b * b + 2.0 * a * b * math.cos(2.0 * math.pi * gap * total_time / n)
    return overlap**n


def check_survival(rows, reference, tol: float) -> None:
    for row in rows:
        ref = reference(row.n)
        require(0.0 <= row.survival <= 1.0, f"survival {row.survival!r} outside [0, 1]")
        require(abs(row.survival - ref) <= tol, f"S({row.n}) = {row.survival!r}, closed form {ref!r}")


# ---------------------------------------------------------------------------
# risk operator


def thermal_energy_reference(beta, hbar, omega) -> float:
    x = 0.5 * beta * hbar * omega
    return 0.5 * hbar * omega / math.tanh(x)


def check_thermal(closed, series, energy, beta, hbar, omega, m) -> None:
    ref = thermal_energy_reference(beta, hbar, omega)
    require(abs(energy - ref) <= 1e-12 * ref, f"thermal energy {energy!r}, coth form {ref!r}")
    diff = float(np.max(np.abs(np.asarray(closed.values) - np.asarray(series.values))))
    require(diff <= 1e-8, f"thermal series differs from the closed form by {diff:.3g}")
    p = closed.p_grid.points
    q = closed.q_grid.points
    w = np.asarray(closed.values)
    mass = integrate.simpson(integrate.simpson(w, x=q, axis=1), x=p)
    h = p[:, None] ** 2 / (2.0 * m) + 0.5 * m * omega**2 * q[None, :] ** 2
    mean_h = integrate.simpson(integrate.simpson(w * h, x=q, axis=1), x=p)
    require(abs(mass - 1.0) <= 1e-6, f"thermal density mass {mass!r}")
    require(abs(mean_h - ref) <= 1e-6 * ref, f"<H> under the thermal density {mean_h!r}, expected {ref!r}")


def spectrum_reference(levels: int, hbar: float, omega: float) -> list[float]:
    return [(k + 0.5) * hbar * omega for k in range(levels)]


def check_spectrum(eigenvalues, hbar, omega) -> None:
    ref = spectrum_reference(len(eigenvalues), hbar, omega)
    for k, (e, r) in enumerate(zip(eigenvalues, ref)):
        require(abs(e - r) <= 1e-12 * r, f"level {k} risk {e!r}, expected (k + 1/2) hbar omega = {r!r}")


def gaussian_risk(width, hbar, omega, m) -> float:
    return hbar * hbar / (8.0 * m * width * width) + 0.5 * m * omega**2 * width * width


def levels_risk(coeffs, hbar, omega, m) -> float:
    """<H> about the state's own means, from ladder-operator matrix elements."""
    c = np.concatenate([np.asarray(coeffs, dtype=complex), np.zeros(2)])
    n = len(c)
    a = np.diag(np.sqrt(np.arange(1, n)), 1)
    ell = math.sqrt(hbar / (m * omega))
    q = ell / math.sqrt(2.0) * (a + a.T)
    p = -1j * hbar / (ell * math.sqrt(2.0)) * (a - a.T)

    def var(op):
        mean = np.vdot(c, op @ c)
        return float((np.vdot(c, op @ (op @ c)) - mean * mean).real)

    return var(p) / (2.0 * m) + 0.5 * m * omega**2 * var(q)


def check_close(value, ref, rtol, label) -> None:
    require(abs(value - ref) <= rtol * abs(ref), f"{label} {value!r}, reference {ref!r}")


# ---------------------------------------------------------------------------
# phase space


def check_marginals(values, p_pts, q_pts, dens_q, dens_p, tol: float = MARGINAL_TOL) -> None:
    """Integrate W over each axis and compare with the two price densities."""
    w = np.asarray(values, dtype=float)
    mq = np.trapezoid(w, x=p_pts, axis=0)
    mp = np.trapezoid(w, x=q_pts, axis=1)
    eq = float(np.max(np.abs(mq - dens_q)))
    ep = float(np.max(np.abs(mp - dens_p)))
    require(eq < tol, f"q marginal off by {eq:.3g}")
    require(ep < tol, f"p marginal off by {ep:.3g}")
    mass = float(np.trapezoid(mq, x=q_pts))
    require(abs(mass - 1.0) < tol, f"density mass {mass!r}")


def check_giffen(report, values, negative: bool) -> None:
    """Hudson: a pure state is non-negative everywhere iff it is Gaussian."""
    w = np.asarray(values)
    lowest = float(np.min(w))
    peak = float(np.max(np.abs(w)))
    if negative:
        require(bool(report.negative), f"non-Gaussian pure state reported non-negative (min {lowest:.3g})")
        require(report.min_value == lowest and lowest < 0.0, "giffen witness is not the minimum")
    else:
        require(not report.negative, f"Gaussian state reported giffen (min {report.min_value:.3g})")
        require(lowest >= -1e-9 * max(peak, 1.0), f"Gaussian Wigner density dips to {lowest:.3g}")


def _curve_error(slice_vals, pts, curve, at=None) -> float:
    """Distance of a cumulative curve from Simpson's running integral of a slice.

    The program renormalizes a curve by the slice's mass when that mass is
    usable.  The distance is measured before that division and in units
    of max|slice| x span, so a slice of small mass does not magnify it.
    ``at`` maps the curve's nodes into the slice's axis (default: same nodes).
    """
    cum = integrate.cumulative_simpson(slice_vals, x=pts, initial=0.0)
    total = float(cum[-1])
    scale = float(np.max(np.abs(slice_vals))) * (pts[-1] - pts[0])
    normalized = abs(total) > 1e-9 * max(scale, 1e-300)
    ref = cum / total if normalized else cum
    if at is not None:
        ref = np.interp(at, pts, ref, left=0.0, right=float(ref[-1]))
    err = float(np.max(np.abs(np.asarray(curve) - ref)))
    return err * (abs(total) if normalized else 1.0) / max(scale, 1e-300)


def check_curves(lnc, demand, supply, values, p_pts, q_pts, tol: float) -> None:
    """Curves are the cumulative slices of W through its mean point.

    The slice lines are not in the output, so every grid line within one
    spacing of the mean (computed here by Simpson) is a candidate.  The
    reference accumulates by Simpson's rule, the program by a spline
    antiderivative; ``tol`` covers their difference at the grid used.
    """
    w = np.asarray(values, dtype=float)
    require(np.array_equal(np.asarray(lnc), q_pts), "curve abscissa is not the q grid")
    mass = integrate.simpson(integrate.simpson(w, x=q_pts, axis=1), x=p_pts)
    p_mean = integrate.simpson(integrate.simpson(w * p_pts[:, None], x=q_pts, axis=1), x=p_pts) / mass
    q_mean = integrate.simpson(integrate.simpson(w * q_pts[None, :], x=q_pts, axis=1), x=p_pts) / mass

    def near(pts, x):
        return [i for i in range(len(pts)) if abs(pts[i] - x) <= pts[1] - pts[0]]

    d_err = min(_curve_error(w[i, :], q_pts, demand) for i in near(p_pts, p_mean))
    require(d_err <= tol, f"demand curve off by {d_err:.3g} of its slice scale")
    s_err = min(_curve_error(w[:, j], p_pts, supply, at=-q_pts) for j in near(q_pts, q_mean))
    require(s_err <= tol, f"supply curve off by {s_err:.3g} of its slice scale")


# ---------------------------------------------------------------------------
# scenario outputs read back from disk


def read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def read_density_csv(path):
    header, data = read_csv(path)
    require(header == ["p", "q", "w"], f"density.csv header {header}")
    p_col, q_col = data[:, 0], data[:, 1]
    nq = int(np.count_nonzero(p_col == p_col[0]))
    require(nq > 1 and len(data) % nq == 0, "density.csv is not a full grid")
    np_ = len(data) // nq
    q_pts = q_col[:nq]
    p_pts = p_col[::nq]
    require(bool(np.all(np.diff(p_pts) > 0)) and bool(np.all(np.diff(q_pts) > 0)), "density grid not ascending")
    require(np.array_equal(q_col, np.tile(q_pts, np_)), "density rows are not p-outer, q-inner")
    require(np.array_equal(p_col, np.repeat(p_pts, nq)), "density rows are not p-outer, q-inner")
    return p_pts, q_pts, data[:, 2].reshape(np_, nq)


def check_manifest(out_dir, kind: str, seed: int) -> dict:
    """manifest.json names exactly the files on disk, and the run's kind and seed."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    require(manifest.get("kind") == kind, f"manifest kind {manifest.get('kind')!r}")
    require(manifest.get("seed") == seed, f"manifest seed {manifest.get('seed')!r}")
    listed = set(manifest.get("outputs", [])) | {"manifest.json"}
    on_disk = set(os.listdir(out_dir))
    require(listed == on_disk, f"manifest lists {sorted(listed)}, disk holds {sorted(on_disk)}")
    return manifest
