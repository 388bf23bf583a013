"""Marginal-likelihood estimators.

Two routes to the same number.  ``gelfand_dey`` turns MCMC output into a
marginal likelihood by reciprocal importance sampling,

    P(y)^{-1}  =  (1/L) sum_l exp(U_l - A_l),

with U_l the recorded chain energies and A_l = -log alpha(draw_l) for a
weighting density alpha.  A thin-tailed alpha keeps the terms bounded; the
default is a Gaussian-mixture KDE of a chain subsample with shrunk
bandwidths and centers truncated to the central 5-95 percentile box.
Setting alpha to the prior recovers the classical harmonic-mean estimator,
kept around purely as the unstable comparator.

``quadrature_marginal`` integrates the unnormalised posterior of the one
parameter, at fixed sigma, directly on a refined Simpson grid and serves as
the deterministic oracle the sampling estimators are judged against.

Everything runs in log space throughout; marginals of order exp(-180) and
below stay finite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .bayes import Dataset, Prior, make_log_posterior
from .errors import (BoundsTooTight, DegenerateSampleWarning,
                     InfiniteVarianceWarning, StepSelectError)

LOG_2PI = math.log(2.0 * math.pi)
KDE_BLOCK_ROWS = 32      # points per block in KdeDensity.log_density
GD_BATCHES = 32          # batch means behind gelfand_dey's standard error


@dataclass
class EvidenceEstimate:
    """A marginal-likelihood value with its uncertainty and the method that
    produced it."""

    log_marginal: float
    mc_standard_error: float
    method: str

    def __post_init__(self):
        if not self.mc_standard_error >= 0.0:
            raise ValueError("mc_standard_error must be non-negative")

    @property
    def marginal(self) -> float:
        return math.exp(self.log_marginal)


# ---------------------------------------------------------------------------
# Gaussian-mixture KDE
# ---------------------------------------------------------------------------

@dataclass
class KdeDensity:
    """Diagonal-bandwidth Gaussian mixture; a proper density by construction."""

    centers: np.ndarray     # (m, d)
    bandwidths: np.ndarray  # (d,)

    def log_density(self, points) -> np.ndarray:
        """Log density at ``points`` of shape (n, d), as shape (n,).

        Points go through in blocks of KDE_BLOCK_ROWS; each point's value is
        a reduction along its own row, so it depends neither on the block
        size nor on the other points, and repeated evaluation is
        bit-reproducible."""
        pts = np.asarray(points, dtype=float)
        m, d = self.centers.shape
        const = -0.5 * d * LOG_2PI - float(np.sum(np.log(self.bandwidths))) \
            - math.log(m)
        out = np.empty(pts.shape[0])
        for start in range(0, pts.shape[0], KDE_BLOCK_ROWS):
            block = pts[start:start + KDE_BLOCK_ROWS]
            z = (block[:, None, :] - self.centers[None, :, :]) / self.bandwidths
            expo = -0.5 * np.sum(z * z, axis=2)
            out[start:start + KDE_BLOCK_ROWS] = logsumexp_rows(expo) + const
        return out


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of a 2-D float array without overflow.

    The same operations in the same order as scipy 1.17's
    ``scipy.special.logsumexp(a, axis=1)`` on real input, so the results
    agree bit for bit: every entry tied at the row maximum is taken out of
    the shifted sum and counted instead, and a row whose result is not
    finite (all -inf, a +inf or a NaN entry) gets log(sum(exp(row))).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = np.max(a, axis=1, keepdims=True)
        tied = a == a_max
        m = np.sum(tied, axis=1, dtype=float)
        s = np.sum(np.exp(np.where(tied, -np.inf, a) - a_max), axis=1)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max[:, 0]
    bad = ~np.isfinite(out)
    if bad.any():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out[bad] = np.log(np.sum(np.exp(a[bad]), axis=1))
    return out


def subsample_draws(draws: np.ndarray, m: int = 500, seed: int = 0) -> np.ndarray:
    """Random subsample without replacement, kept in chain order."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    if draws.shape[0] <= m:
        return draws.copy()
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(draws.shape[0], size=m, replace=False))
    return draws[idx]


def kde_fit(draws: np.ndarray, shrink: float = 0.5,
            trunc_pct: Tuple[float, float] = (5.0, 95.0)) -> KdeDensity:
    """Fit the weighting density from a (sub)sample of posterior draws.

    Centers outside the per-coordinate ``trunc_pct`` percentile box are
    dropped, which thins the mixture's tails relative to the posterior —
    exactly what keeps the Gelfand-Dey terms' variance finite.  Bandwidths
    are Silverman's rule times ``shrink``.

    A numerically degenerate sample (zero spread in some coordinate) gets a
    1e-10 variance jitter and a DegenerateSampleWarning instead of an error.
    """
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    if draws.ndim != 2 or draws.shape[0] < 30:
        raise ValueError("need at least 30 draws to fit a weighting density")
    if not 0.0 < shrink <= 1.0:
        raise ValueError("shrink must be in (0, 1]")

    lo, hi = np.percentile(draws, trunc_pct, axis=0)
    keep = np.all((draws >= lo) & (draws <= hi), axis=1)
    centers = draws[keep] if keep.sum() >= 2 else draws
    m, d = centers.shape

    sd = centers.std(axis=0, ddof=1)
    q75, q25 = np.percentile(centers, [75.0, 25.0], axis=0)
    iqr_sd = (q75 - q25) / 1.34
    robust = np.where(iqr_sd > 0.0, np.minimum(sd, iqr_sd), sd)
    if np.any(robust <= 0.0):
        warnings.warn("degenerate sample: zero spread in some coordinate; "
                      "adding 1e-10 variance jitter", DegenerateSampleWarning)
        robust = np.sqrt(robust ** 2 + 1e-10)

    factor = (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * m ** (-1.0 / (d + 4.0))
    return KdeDensity(centers=centers, bandwidths=shrink * factor * robust)


# ---------------------------------------------------------------------------
# reciprocal importance sampling
# ---------------------------------------------------------------------------

def gelfand_dey(energies: np.ndarray, log_alpha: np.ndarray,
                method: str = "gelfand_dey_kde") -> EvidenceEstimate:
    """Reciprocal-importance marginal likelihood from the chain energies and
    the weighting log-density at the same draws, ``log_alpha[l] = -A_l``.

    The Monte Carlo standard error (on the log marginal) comes from batch
    means over the term series with a delta-method transfer through the
    reciprocal and the log.  When the top 1% of terms carry more than half
    the total weight the variance estimate is untrustworthy and an
    InfiniteVarianceWarning is issued — the classical harmonic-mean failure
    mode.
    """
    energies = np.asarray(energies, dtype=float)
    log_alpha = np.asarray(log_alpha, dtype=float)
    L = energies.size
    if log_alpha.shape != energies.shape or L < 4:
        raise ValueError("need matching energies/log_alpha with at least 4 entries")

    log_terms = energies + log_alpha   # U_l - A_l
    shift = float(np.max(log_terms))
    if not math.isfinite(shift):
        raise StepSelectError("all estimator terms vanished or diverged")
    v = np.exp(log_terms - shift)
    mean_v = float(v.mean())
    log_marginal = -(shift + math.log(mean_v))

    b = min(GD_BATCHES, L)
    size = L // b
    bm = v[:b * size].reshape(b, size).mean(axis=1)
    se_mean = float(bm.std(ddof=1)) / math.sqrt(b)
    se_log = se_mean / mean_v

    k = max(1, math.ceil(0.01 * L))
    top = np.sort(v)[-k:]
    if float(top.sum()) > 0.5 * float(v.sum()):
        warnings.warn(f"top {k} of {L} terms carry more than half of the "
                      "estimator weight; variance is unreliable",
                      InfiniteVarianceWarning)

    return EvidenceEstimate(log_marginal=log_marginal, mc_standard_error=se_log,
                            method=method)


def harmonic_mean(energies: np.ndarray, log_prior_fn: Callable,
                  draws: np.ndarray) -> EvidenceEstimate:
    """Gelfand-Dey with alpha = prior: the harmonic mean of the likelihoods."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    log_alpha = np.array([float(log_prior_fn(row)) for row in draws])
    return gelfand_dey(energies, log_alpha, method="harmonic_mean")


def evidence_from_chain(chain, subsample: int = 500, shrink: float = 0.5,
                        seed: int = 0,
                        trunc_pct: Tuple[float, float] = (5.0, 95.0)) -> EvidenceEstimate:
    """Subsample -> KDE -> Gelfand-Dey, the default pipeline for one chain.

    The chain is cut in half and each half is averaged under a weighting
    density fitted on the other half, the two reciprocal-scale estimates
    combined at the end.  Fitting alpha on the very draws it reweights
    inflates alpha wherever the chain happened to oversample, which biases
    the log marginal low by a few thousandths at typical chain lengths;
    cross-fitting removes the bias without giving up half the draws.  A
    chain under 120 draws is too short to halve and gets one fit on all of
    its draws.
    """
    draws = np.atleast_2d(np.asarray(chain.draws, dtype=float))
    energies = np.asarray(chain.energies, dtype=float)
    if draws.shape[0] < 120:
        sub = subsample_draws(draws, m=subsample, seed=seed)
        alpha = kde_fit(sub, shrink=shrink, trunc_pct=trunc_pct)
        return gelfand_dey(energies, alpha.log_density(draws))

    cut = draws.shape[0] // 2
    alphas = [kde_fit(subsample_draws(draws[:cut], m=subsample, seed=seed),
                      shrink=shrink, trunc_pct=trunc_pct),
              kde_fit(subsample_draws(draws[cut:], m=subsample, seed=seed + 1),
                      shrink=shrink, trunc_pct=trunc_pct)]
    log_alpha = np.concatenate([alphas[1].log_density(draws[:cut]),
                                alphas[0].log_density(draws[cut:])])
    return gelfand_dey(energies, log_alpha)


# ---------------------------------------------------------------------------
# deterministic quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Integration window for quadrature: ``bounds`` holds the one (lo, hi)
    pair of the one parameter."""

    bounds: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        if len(self.bounds) != 1:
            raise ValueError("quadrature covers one parameter: bounds must "
                             "hold exactly one (lo, hi) pair")
        (lo, hi), = self.bounds
        if not lo < hi:
            raise ValueError("the bound must satisfy lo < hi")


GRID_POINTS = 129        # the first Simpson grid, 2^7 + 1 points
MAX_DOUBLINGS = 10
BOUNDARY_RATIO = 1e-12   # integrand on the window boundary, relative to its peak

SCAN_POINTS = 33         # points per bracket scan, 2^5 + 1
MAX_ZOOMS = 10           # most scans per bracket
SCAN_DROP = 45.0         # log units below the scan maximum kept in the window
SCAN_PAD = 0.5           # padding on each side of the window, in its widths


def doubling_grids(logfs: Sequence[Callable], lo: float, hi: float):
    """Yield ``(xs, vals)``: the GRID_POINTS-point grid over [lo, hi], then
    the grid after each of MAX_DOUBLINGS midpoint doublings, with ``vals[i]``
    the values of ``logfs[i]`` on ``xs``.  Each point is evaluated once.

    Raises BoundsTooTight when an integrand on the first grid's end points
    exceeds BOUNDARY_RATIO of its peak.  The caller decides when to stop.
    """
    xs = np.linspace(lo, hi, GRID_POINTS)
    vals = [np.array([f(x) for x in xs]) for f in logfs]
    for v in vals:
        if max(v[0], v[-1]) > float(np.max(v)) + math.log(BOUNDARY_RATIO):
            raise BoundsTooTight(
                f"integrand at the window boundary exceeds {BOUNDARY_RATIO:g} "
                "of its peak; widen the bounds")
    yield xs, vals
    for _ in range(MAX_DOUBLINGS):
        mids = 0.5 * (xs[:-1] + xs[1:])
        xs2 = np.empty(2 * xs.size - 1)
        xs2[::2], xs2[1::2] = xs, mids
        vals2 = []
        for f, v in zip(logfs, vals):
            v2 = np.empty_like(xs2)
            v2[::2], v2[1::2] = v, np.array([f(x) for x in mids])
            vals2.append(v2)
        xs, vals = xs2, vals2
        yield xs, vals


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of samples ``y`` at increasing points ``x``.

    The spacing may vary from panel to panel.  The same operations in the
    same order as ``scipy.integrate.simpson(y, x=x)`` on an odd number of
    points, so the results agree bit for bit.  ValueError on an even count
    or fewer than three points.
    """
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    if y.ndim != 1 or y.shape != x.shape or y.size < 3 or y.size % 2 == 0:
        raise ValueError("simpson needs matching 1-D y and x with an odd "
                         "number of at least 3 points")
    h = np.diff(x)
    h0, h1 = h[:-1:2], h[1::2]
    hsum, hprod = h0 + h1, h0 * h1
    h0divh1 = h0 / h1
    terms = hsum / 6.0 * (y[:-2:2] * (2.0 - 1.0 / h0divh1)
                          + y[1::2] * (hsum * (hsum / hprod))
                          + y[2::2] * (2.0 - h0divh1))
    return float(np.sum(terms))


def _log_simpson(logv: np.ndarray, xs: np.ndarray) -> float:
    shift = float(np.max(logv))
    if not math.isfinite(shift):
        return -math.inf
    val = simpson(np.exp(logv - shift), xs)
    if val <= 0.0:
        return -math.inf
    return shift + math.log(val)


def quadrature_marginal(dataset: Dataset, prior: Prior, forward: Callable,
                        grid_spec: GridSpec) -> EvidenceEstimate:
    """Integrate exp(log posterior) over the grid window.

    The grid doubles until successive log integrals differ by less than
    1e-6; StepSelectError after MAX_DOUBLINGS doublings.  The first grid is
    compared with its own every other point, so an integrand that the
    nested grids already agree on costs GRID_POINTS evaluations.
    """
    logf = make_log_posterior(dataset, prior, forward)
    (lo, hi), = grid_spec.bounds
    log_i = None
    for xs, (vals,) in doubling_grids([logf], lo, hi):
        if log_i is None:
            log_i = _log_simpson(vals[::2], xs[::2])
        log_i_new = _log_simpson(vals, xs)
        if abs(log_i_new - log_i) < 1e-6:
            return EvidenceEstimate(log_marginal=log_i_new,
                                    mc_standard_error=0.0, method="quadrature")
        log_i = log_i_new
    raise StepSelectError(f"quadrature did not converge within "
                          f"{MAX_DOUBLINGS} grid doublings")


def bracket_bounds(logf: Callable, lo: float, hi: float) -> Tuple[float, float]:
    """Shrink a wide scan window to where the integrand actually lives.

    Scans ``logf`` at SCAN_POINTS points, keeps the region within SCAN_DROP
    log units of the maximum (plus one scan cell on each side), and zooms
    into it until the window stops shrinking by half, at most MAX_ZOOMS
    scans.  The returned window is padded by SCAN_PAD times its width on
    each side (clipped to the original scan range), which leaves the
    boundary integrand far below the quadrature threshold for any peaked
    posterior.
    """
    lo0, hi0 = float(lo), float(hi)
    for _ in range(MAX_ZOOMS):
        xs = np.linspace(lo, hi, SCAN_POINTS)
        vals = np.array([logf(x) for x in xs])
        vmax = float(np.max(vals))
        if not math.isfinite(vmax):
            raise StepSelectError("log integrand is -inf on the whole scan window")
        above = np.where(vals >= vmax - SCAN_DROP)[0]
        cell = xs[1] - xs[0]
        new_lo = max(lo0, xs[above[0]] - cell)
        new_hi = min(hi0, xs[above[-1]] + cell)
        if (hi - lo) > 0 and (new_hi - new_lo) > 0.5 * (hi - lo):
            lo, hi = new_lo, new_hi
            break
        lo, hi = new_lo, new_hi
    w = hi - lo
    return max(lo0, lo - SCAN_PAD * w), min(hi0, hi + SCAN_PAD * w)


def posterior_window(dataset: Dataset, prior: Prior,
                     forward: Callable) -> Tuple[float, float]:
    """The quadrature window of the fixed-sigma posterior: ``bracket_bounds``
    over (1e-8, prior mean + 12 prior sd) of the one parameter."""
    comp = prior.theta[0]
    return bracket_bounds(make_log_posterior(dataset, prior, forward),
                          1e-8, comp.mean + 12.0 * comp.sd)
