"""Adaptive random-walk Metropolis sampling and chain diagnostics.

The sampler keeps the current point's log posterior cached, so each
iteration costs exactly one new posterior evaluation — with an ODE solve
behind every evaluation that is the entire cost model.  Energies
``U = -log posterior`` are recorded for every kept draw because the
evidence estimators consume them directly.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InitializationError, StuckChainWarning

# kept iterations whose draws are collected in lists before one array write
_BLOCK = 256


@dataclass
class McmcSettings:
    """The sampler's settings: the spec's ``mcmc`` group.

    The proposal is a symmetric Gaussian random walk of scale
    ``step_scale``.  When ``adapt`` is set the scale follows a Robbins-Monro
    recursion toward ``target_accept`` during burn-in (frozen afterwards):
    every ``adapt_window`` iterations it is multiplied by
    ``exp((mean acceptance - target)/sqrt(k))`` for window counter k.
    """

    n_iter: int = 12000
    burn_in: Optional[int] = None      # None -> 20% of n_iter
    step_scale: float = 0.02
    adapt: bool = True
    adapt_window: int = 50
    target_accept: float = 0.30
    init: Optional[float] = None       # None -> prior mean

    def resolved_burn_in(self) -> int:
        return self.n_iter // 5 if self.burn_in is None else self.burn_in


@dataclass
class Chain:
    """Post burn-in draws with their energies U = -log posterior."""

    draws: np.ndarray      # (L, 1)
    energies: np.ndarray   # (L,)
    accept_rate: float
    wall_clock_seconds: float
    step_scale: float      # the proposal scale in force after burn-in
    process_seconds: float  # CPU time of this process over the loop

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]


def mh_run(log_posterior: Callable, init: float, settings: McmcSettings,
           n_iter: int, burn_in: int, seed: int = 0) -> Chain:
    """Run a random-walk Metropolis chain on one parameter.

    Parameters
    ----------
    log_posterior : callable on a float, returning a float (-inf allowed
        for zero-mass points); every call gets a Python float.
    init : starting point.
    settings : read for ``step_scale``, ``adapt``, ``adapt_window`` and
        ``target_accept`` only.
    n_iter : total iterations; the first ``burn_in`` of them are discarded
        and are the only ones during which adaptation runs.
    seed : integer seed; identical seeds give bit-identical chains.
    """
    x = float(init)
    if not 0 <= burn_in < n_iter:
        raise ValueError("need n_iter > burn_in >= 0")

    lp = float(log_posterior(x))
    if not math.isfinite(lp):
        raise InitializationError(
            f"log posterior at the initial point is {lp}; start inside the support")

    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n_iter)
    log_u = np.log(rng.random(n_iter))

    scale = float(settings.step_scale)
    n_windows = n_accept_kept = 0
    kept = n_iter - burn_in
    draws, energies = np.empty(kept), np.empty(kept)
    window = settings.adapt_window if settings.adapt else _BLOCK

    # The scale stays fixed within a block: an adaptation window (capped at
    # the end of burn-in) during burn-in, _BLOCK iterations after it.  A
    # kept block's draws go to lists and then to the arrays in one write,
    # which bounds the objects alive.
    edges = [*range(0, burn_in, window), *range(burn_in, n_iter, _BLOCK), n_iter]
    t_start, cpu_start = time.perf_counter(), time.process_time()
    for start, stop in zip(edges, edges[1:]):
        xs, es = [], []
        n_accept, prob = 0, 0.0
        for z, lu in zip(noise[start:stop].tolist(), log_u[start:stop].tolist()):
            prop = x + scale * z
            lp_prop = float(log_posterior(prop))
            delta = lp_prop - lp
            prob += math.exp(delta) if delta < 0.0 else 1.0
            if delta >= 0.0 or lu < delta:
                x, lp = prop, lp_prop
                n_accept += 1
            xs.append(x)
            es.append(-lp)
        if start >= burn_in:
            draws[start - burn_in:stop - burn_in] = xs
            energies[start - burn_in:stop - burn_in] = es
            n_accept_kept += n_accept
        elif settings.adapt and stop - start == window:
            # Robbins-Monro on each full window; a partial last one is dropped
            n_windows += 1
            scale *= math.exp((prob / window - settings.target_accept)
                              / math.sqrt(n_windows))
    wall, cpu = time.perf_counter() - t_start, time.process_time() - cpu_start

    accept_rate = n_accept_kept / kept
    if accept_rate < 0.01:
        warnings.warn(f"post burn-in acceptance rate {accept_rate:.4f} < 1%; "
                      "the chain is stuck", StuckChainWarning)
    return Chain(draws=draws[:, None], energies=energies,
                 accept_rate=accept_rate, wall_clock_seconds=wall,
                 step_scale=scale, process_seconds=cpu)


def effective_sample_size(x) -> float:
    """ESS of a 1-D sample by the initial-positive-sequence truncation.

    Sums consecutive autocorrelation pairs while they stay positive, which
    is the standard conservative truncation for reversible chains.  Returns
    a value in (0, n]; a constant chain counts as a single sample.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        return float(n)
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        return 1.0
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real / n
    rho = acov / acov[0]

    tau = -1.0
    for k in range(n // 2):
        pair = rho[2 * k] + (rho[2 * k + 1] if 2 * k + 1 < n else 0.0)
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    tau = max(tau, 1e-12)
    return float(min(n, n / tau))

