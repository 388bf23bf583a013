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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InitializationError, ParseError, StuckChainWarning

# kept iterations whose draws are collected in lists before one array write
_BLOCK = 256


@dataclass
class ProposalConfig:
    """Symmetric Gaussian random-walk proposal.

    When ``adapt`` is set the per-coordinate scales follow a Robbins-Monro
    recursion toward ``target_accept`` during burn-in (frozen afterwards):
    every ``adapt_window`` iterations the scales are multiplied by
    ``exp((mean acceptance - target)/sqrt(k))`` for window counter k.
    """

    step_scales: np.ndarray
    adapt: bool = True
    adapt_window: int = 50
    target_accept: float = 0.30

    def __post_init__(self):
        self.step_scales = np.atleast_1d(np.asarray(self.step_scales, dtype=float))
        if not all(0.0 < v < math.inf for v in self.step_scales):
            raise ValueError("step scales must be finite and positive")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target_accept must be in (0, 1)")
        if self.adapt_window < 1:
            raise ValueError("adapt_window must be at least 1")


@dataclass
class Chain:
    """Post burn-in draws with their energies U = -log posterior."""

    draws: np.ndarray      # (L, d)
    energies: np.ndarray   # (L,)
    accept_rate: float
    wall_clock_seconds: float
    seed: int
    step_scales: np.ndarray = field(default=None)  # scales in force after burn-in
    process_seconds: float = 0.0   # CPU time of this process over the loop

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    @property
    def dim(self) -> int:
        return self.draws.shape[1]


def mh_run(log_posterior: Callable, init, proposal: ProposalConfig,
           n_iter: int, burn_in: Optional[int] = None, seed: int = 0) -> Chain:
    """Run a random-walk Metropolis chain.

    Parameters
    ----------
    log_posterior : callable on parameter vectors, returning a float
        (-inf allowed for zero-mass points).
    init : starting parameter vector.
    n_iter : total iterations; ``burn_in`` of them (default 20%) are
        discarded and are the only ones during which adaptation runs.
    seed : integer seed; identical seeds give bit-identical chains.
    """
    x = np.atleast_1d(np.asarray(init, dtype=float)).copy()
    d = x.size
    if burn_in is None:
        burn_in = n_iter // 5
    if not 0 <= burn_in < n_iter:
        raise ValueError("need n_iter > burn_in >= 0")

    lp = float(log_posterior(x))
    if not math.isfinite(lp):
        raise InitializationError(
            f"log posterior at the initial point is {lp}; start inside the support")

    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n_iter, d))
    log_u = np.log(rng.random(n_iter))

    scales = proposal.step_scales.astype(float).copy()
    if scales.size == 1 and d > 1:
        scales = np.full(d, float(scales[0]))
    n_windows = 0
    kept = n_iter - burn_in
    draws = np.empty((kept, d))
    energies = np.empty(kept)
    n_accept_kept = 0
    window = proposal.adapt_window if proposal.adapt else _BLOCK

    # Scales stay fixed within a block, so its steps are computed at once:
    # adaptation windows (capped at the end of burn-in) during burn-in,
    # _BLOCK iterations after it.  A kept block's draws go to lists and
    # then to the arrays in one write, which bounds the objects alive.
    edges = [*range(0, burn_in, window), *range(burn_in, n_iter, _BLOCK), n_iter]
    t_start, cpu_start = time.perf_counter(), time.process_time()
    for start, stop in zip(edges, edges[1:]):
        xs, es = [], []
        n_accept, prob = 0, 0.0
        for step, lu in zip(scales * noise[start:stop],
                            log_u[start:stop].tolist()):
            prop = x + step
            lp_prop = float(log_posterior(prop))
            delta = lp_prop - lp
            prob += math.exp(min(0.0, delta))
            if delta >= 0.0 or lu < delta:
                x = prop
                lp = lp_prop
                n_accept += 1
            xs.append(x)
            es.append(-lp)
        if start >= burn_in:
            draws[start - burn_in:stop - burn_in] = xs
            energies[start - burn_in:stop - burn_in] = es
            n_accept_kept += n_accept
        elif proposal.adapt and stop - start == window:
            # Robbins-Monro on each full window; a partial last one is dropped
            n_windows += 1
            scales *= math.exp((prob / window - proposal.target_accept)
                               / math.sqrt(n_windows))
    wall = time.perf_counter() - t_start
    cpu = time.process_time() - cpu_start

    accept_rate = n_accept_kept / kept
    if accept_rate < 0.01:
        warnings.warn(f"post burn-in acceptance rate {accept_rate:.4f} < 1%; "
                      "the chain is stuck", StuckChainWarning)
    return Chain(draws=draws, energies=energies, accept_rate=accept_rate,
                 wall_clock_seconds=wall, seed=int(seed), step_scales=scales,
                 process_seconds=cpu)


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


# ---------------------------------------------------------------------------
# chain CSV serialization: index, theta coordinates, energy
# ---------------------------------------------------------------------------

def save_chain_csv(chain: Chain, path) -> None:
    """Write draws and energies in full precision (%.17g round-trips float64)."""
    d = chain.dim
    header = "index," + ",".join(f"theta_{j}" for j in range(d)) + ",energy"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(chain.n_draws):
            coords = ",".join("%.17g" % v for v in chain.draws[i])
            fh.write(f"{i},{coords},{'%.17g' % chain.energies[i]}\n")


def load_chain_csv(path):
    """Read a chain CSV back; returns (draws, energies)."""
    with open(path) as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if len(cols) < 3 or cols[0] != "index" or cols[-1] != "energy":
            raise ParseError(f"unexpected chain header {header!r} in {path}")
        d = len(cols) - 2
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != d + 2:
                raise ParseError(f"line {lineno} of {path} has {len(parts)} fields, "
                                 f"expected {d + 2}")
            try:
                rows.append([float(v) for v in parts[1:]])
            except ValueError as exc:
                raise ParseError(f"line {lineno} of {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path} holds no draws")
    arr = np.asarray(rows)
    return arr[:, :d], arr[:, d]
