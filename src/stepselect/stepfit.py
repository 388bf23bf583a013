"""Evidence-vs-step-size analysis.

A solver of order p perturbs the marginal likelihood as

    P_h(y)  =  a + b h^p + o(h^p),        a = exact-model marginal,

so a weighted linear regression of per-step marginals on h^p recovers the
exact marginal as the intercept without ever running an exact solve.  Bayes
factors of each step against that intercept, read on Jeffreys' "not worth
more than a bare mention" window, then pick the coarsest step that is
statistically indistinguishable from exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .bayes import Dataset, Prior, make_log_posterior
from .errors import IllConditionedFit
from .evidence import doubling_grids, simpson

DEFAULT_THRESHOLD = 0.99    # Jeffreys: BF in [0.99, 1/0.99] is "no evidence"


@dataclass
class RegressionSettings:
    """The spec's ``regression`` group, which ``fit_curve`` reads."""

    mask_smallest: int = 4
    mask_h: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if isinstance(self.mask_h, list):     # a JSON array
            self.mask_h = tuple(self.mask_h)


@dataclass
class EvidenceCurve:
    """Per-step marginals plus the fitted a + b h^p extrapolation.

    Points are stored sorted by increasing h; ``mask`` marks the points the
    regression used.  The intercept is kept on the log scale only, because
    marginals of order exp(-180) and below underflow on the linear scale.
    """

    p: int
    h: np.ndarray
    log_marginal: np.ndarray
    se: np.ndarray
    mask: np.ndarray
    log_fitted_a: float
    rel_se_a: float
    by: float              # B_y = -b/a, the leading relative-error coefficient
    r2: float


def fit_curve(points: Sequence, p: int,
              settings: RegressionSettings) -> EvidenceCurve:
    """Weighted least squares of the marginal (linear scale) on h^p.

    ``points`` is a sequence of (h, log_marginal, se) triples.  The fit
    runs on the ``settings.mask_smallest`` smallest steps unless
    ``settings.mask_h`` names the steps explicitly — the model
    P_h = a + b h^p only holds in the asymptotic regime, so coarse points
    should stay out of the regression even when they belong on the plot.

    Weights are 1/se^2 on the linear scale (uniform when every se is zero,
    e.g. quadrature input).  Raises IllConditionedFit when the mask holds
    fewer than three points, the masked grid spans less than a factor 2 in
    h^p or the intercept comes out non-positive.
    """
    pts = np.array(points, dtype=float).reshape(len(points), 3)
    hs, logs, ses = pts[:, 0], pts[:, 1], pts[:, 2]
    if np.unique(hs).size != hs.size:
        raise ValueError("duplicate step sizes in the evidence curve")
    order = np.argsort(hs)
    hs, logs, ses = hs[order], logs[order], ses[order]

    if settings.mask_h is not None:
        mask = np.isin(hs, np.asarray(list(settings.mask_h), dtype=float))
    else:
        mask = np.zeros(hs.size, dtype=bool)
        mask[:min(settings.mask_smallest, hs.size)] = True
    if mask.sum() < 3:
        raise IllConditionedFit(
            f"the fit mask holds {int(mask.sum())} of {hs.size} points; the "
            "regression needs at least three")

    hm = hs[mask]
    if (hm.max() / hm.min()) ** p < 2.0:
        raise IllConditionedFit(
            f"h^p spans only a factor {(hm.max() / hm.min()) ** p:.3g} over the "
            "fit mask; intercept and slope are not separable")

    shift = float(np.max(logs[mask]))
    m = np.exp(logs[mask] - shift)
    se_m = ses[mask]
    if np.all(se_m == 0.0):
        w = np.ones_like(m)
    else:
        # weights 1/(se * m)^2 on the linear scale, assembled in log space:
        # marginals spanning hundreds of log units would overflow otherwise.
        # Zero-se points get floored 1e-3 below the smallest real se.
        pos = se_m > 0.0
        log_se_lin = np.full(m.size, -np.inf)
        log_se_lin[pos] = np.log(se_m[pos]) + (logs[mask][pos] - shift)
        log_floor = float(np.min(log_se_lin[pos])) + math.log(1e-3)
        log_w = -2.0 * np.maximum(log_se_lin, log_floor)
        rel = np.exp(log_w - float(np.max(log_w)))
        if int((rel > 1e-12).sum()) < 3:
            raise IllConditionedFit(
                "the evidence spread across the masked points dwarfs their "
                "standard errors, so the weighted fit would hang on fewer "
                "than three points; the grid is outside the h^p regime")
        w = np.exp(np.minimum(log_w, 700.0))

    X = np.column_stack([np.ones_like(hm), hm ** p])
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(X * sw[:, None], m * sw, rcond=None)
    a_s, b_s = float(coef[0]), float(coef[1])
    if a_s <= 0.0:
        raise IllConditionedFit("extrapolated marginal is non-positive; the "
                                "masked points are outside the h^p regime")

    cov = np.linalg.inv(X.T @ (X * w[:, None]))
    rel_se_a = math.sqrt(cov[0, 0]) / a_s

    resid = m - X @ coef
    sst = float(np.sum(w * (m - np.average(m, weights=w)) ** 2))
    r2 = 1.0 - float(np.sum(w * resid ** 2)) / sst if sst > 0.0 else 1.0

    return EvidenceCurve(p=int(p), h=hs, log_marginal=logs, se=ses, mask=mask,
                         log_fitted_a=shift + math.log(a_s),
                         rel_se_a=rel_se_a, by=-b_s / a_s, r2=r2)


def build_report(curve: EvidenceCurve, cpu_seconds, rhs_evals,
                 threshold: float = DEFAULT_THRESHOLD) -> dict:
    """Per-step Bayes factors against the extrapolated exact marginal, their
    Jeffreys flags, and the recommendation, as a JSON-ready dict.

    The dict holds ``recommended_h``, ``speedup``, ``rhs_ratio`` and
    ``steps``: one row per step with its h, log marginal, se, bf, flag and
    cpu_seconds.  ``cpu_seconds`` and ``rhs_evals`` align with ``curve.h``
    (ascending).  The recommended step is the largest one inside the
    Jeffreys window; its speedup is cpu(h_min) / cpu(h_recommended), the
    time bought relative to the finest sweep member, and its rhs_ratio the
    same ratio of right-hand-side evaluations, which does not depend on the
    host.  A hopeless sweep leaves those fields empty instead of raising,
    because a report of the failure is still a report.
    """
    cpu = np.asarray(cpu_seconds, dtype=float)
    rhs = np.asarray(rhs_evals, dtype=float)
    if cpu.shape != curve.h.shape or rhs.shape != curve.h.shape:
        raise ValueError("cpu_seconds and rhs_evals must align with curve.h")
    log_bf = curve.log_marginal - curve.log_fitted_a
    flags = np.abs(log_bf) <= -math.log(threshold)
    rec_h = speedup = rhs_ratio = None
    if flags.any():
        idx = int(np.max(np.where(flags)[0]))
        rec_h, speedup = float(curve.h[idx]), float(cpu[0] / cpu[idx])
        rhs_ratio = float(rhs[0] / rhs[idx])
    # math.exp, not np.exp: numpy's SIMD exp can differ from libm's in the
    # last bit, and curve.csv prints all 17 digits of the libm value
    steps = [{"h": float(h), "log_marginal": float(lm), "se": float(se),
              "bf": math.exp(x), "flag": bool(flag), "cpu_seconds": float(c)}
             for h, lm, se, x, flag, c in zip(curve.h, curve.log_marginal,
                                              curve.se, log_bf, flags, cpu)]
    return {"recommended_h": rec_h, "speedup": speedup,
            "rhs_ratio": rhs_ratio, "steps": steps}


# ---------------------------------------------------------------------------
# posterior discrepancy between two forward maps
# ---------------------------------------------------------------------------

def posterior_discrepancy(dataset: Dataset, prior: Prior, forward1: Callable,
                          forward2: Callable, bounds: Tuple[float, float],
                          statistic: str = "mean") -> float:
    """Quadrature distance between the posteriors under two forward maps.

    Both posteriors of the one parameter, at fixed sigma, are normalised on
    the same doubling Simpson grid over ``bounds``; ``statistic`` selects
    |mean1 - mean2| ("mean") or the total-variation distance
    0.5 * int |p1 - p2| ("tv").  Refinement stops when the statistic is
    stable to 1e-3 relatively (1e-12 absolutely); after the last doubling
    the last value is returned.
    """
    if statistic not in ("mean", "tv"):
        raise ValueError("statistic must be 'mean' or 'tv'")
    logfs = [make_log_posterior(dataset, prior, f)
             for f in (forward1, forward2)]

    def stat(xs, vals) -> float:
        dens = []
        for v in vals:
            d = np.exp(v - float(np.max(v)))
            dens.append(d / simpson(d, xs))
        p1, p2 = dens
        if statistic == "mean":
            return abs(simpson(xs * p1, xs) - simpson(xs * p2, xs))
        return 0.5 * simpson(np.abs(p1 - p2), xs)

    s = None
    for xs, vals in doubling_grids(logfs, bounds[0], bounds[1]):
        s_new = stat(xs, vals)
        if s is not None and abs(s_new - s) <= max(1e-12, 1e-3 * abs(s_new)):
            return s_new
        s = s_new
    return s
