"""Likelihood of a count trace under continuous-in-time switching.

The hidden state follows a two-state continuous-time Markov chain, so an
interval is summarised by its start state, end state, and the fraction f of
the interval spent on.  The joint law of (end state, f) given the start
state has closed form: a delta component for switch-free histories plus a
smooth density summing over even or odd switch counts, which collapses to
modified Bessel functions I0/I1 of 2*sqrt(f*(1-f)*r_alpha*r_beta).  Counts
enter through a Poisson law at rate mu + f*lam, leaving one smooth
one-dimensional integral per (count, start, end) combination, evaluated by
fixed-order Gauss-Legendre quadrature.

Writing u = r_alpha*(1-f), v = r_beta*f, the Bessel argument is
z = 2*sqrt(u*v) and every smooth density carries exp(-u-v); products are
evaluated with exponentially scaled Bessels against exp(z - u - v)
= exp(-(sqrt(u) - sqrt(v))**2) <= 1, so nothing overflows at any rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ._special import i0e, i1e
from .kernels import (
    CountTrace,
    EmissionRates,
    StatePrior,
    SwitchRates,
    poisson_pmf,
)

__all__ = [
    "QuadratureSpec",
    "QuadratureConvergenceError",
    "FractionDensity",
    "transition_prob",
    "fraction_density",
    "count_state_prob_ctmc",
    "trace_loglik_ctmc",
    "avg_count_prob",
    "check_quadrature_convergence",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre rule of fixed order on (0, 1) for the on-fraction integrals."""

    node_count: int = 64

    def __post_init__(self):
        if self.node_count < 8:
            raise ValueError("node_count must be >= 8")

    def nodes_weights(self):
        return _gauss_legendre_01(self.node_count)


class QuadratureConvergenceError(RuntimeError):
    """Raised when doubling the node count still moves the integrals."""


@lru_cache(maxsize=None)
def _gauss_legendre_01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def transition_prob(a: int, b: int, t: float, rates: SwitchRates) -> float:
    """P(state b at time t | state a at time 0) for the two-state chain.

    Closed-form solution of the forward Kolmogorov equations; with both
    rates zero the chain is frozen and the kernel is the identity.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("states must be 0 or 1")
    ra, rb = rates.r_alpha, rates.r_beta
    total = ra + rb
    if total == 0.0:
        return 1.0 if a == b else 0.0
    decay = math.exp(-total * t)
    if a == 0:
        p_flip = ra / total * (1.0 - decay)
    else:
        p_flip = rb / total * (1.0 - decay)
    return p_flip if a != b else 1.0 - p_flip


def _smooth_densities(r_alpha, r_beta, f):
    """Smooth parts of all four fraction densities at on-fractions ``f``.

    Returns an array of shape (2, 2) + broadcast(r_alpha, r_beta, f).shape,
    indexed [start, end].  The apparent sqrt singularities of the start=end
    densities cancel against the small-argument Bessel behaviour; here they
    are removed analytically, so every entry is finite on all of [0, 1].
    """
    ra = np.asarray(r_alpha, dtype=float)
    rb = np.asarray(r_beta, dtype=float)
    f = np.asarray(f, dtype=float)
    u = ra * (1.0 - f)
    v = rb * f
    arg = u * v
    z = 2.0 * np.sqrt(arg)
    expfac = np.exp(-((np.sqrt(u) - np.sqrt(v)) ** 2))
    plain = np.exp(-u - v)

    i0_term = i0e(z) * expfac
    small = arg < 1e-12
    arg_safe = np.where(small, 1.0, arg)
    i1_ratio = np.where(
        small,
        (1.0 + arg / 2.0 + arg * arg / 12.0) * plain,
        i1e(z) / np.sqrt(arg_safe) * expfac,
    )

    rarb = ra * rb
    out = np.empty((2, 2) + np.broadcast(ra, rb, f).shape)
    out[0, 0] = rarb * (1.0 - f) * i1_ratio
    out[0, 1] = ra * i0_term
    out[1, 0] = rb * i0_term
    out[1, 1] = rarb * f * i1_ratio
    return out


@dataclass(frozen=True)
class FractionDensity:
    """Law of (end state, on-fraction) over one interval, given the start state.

    ``smooth`` is the density on f in (0, 1); ``delta_at_0`` and
    ``delta_at_1`` weight the point masses at f = 0 and f = 1 contributed by
    switch-free histories (nonzero only when start == end).
    """

    start: int
    end: int
    rates: SwitchRates
    smooth: Callable[[np.ndarray], np.ndarray]
    delta_at_0: float
    delta_at_1: float


def fraction_density(a: int, b: int, rates: SwitchRates) -> FractionDensity:
    """Density of ending in state ``b`` with on-fraction f, starting from ``a``."""
    if a not in (0, 1) or b not in (0, 1):
        raise ValueError("states must be 0 or 1")

    def smooth(f):
        return _smooth_densities(rates.r_alpha, rates.r_beta, f)[a, b]

    delta0 = math.exp(-rates.r_alpha) if a == 0 and b == 0 else 0.0
    delta1 = math.exp(-rates.r_beta) if a == 1 and b == 1 else 0.0
    return FractionDensity(
        start=a, end=b, rates=rates, smooth=smooth, delta_at_0=delta0, delta_at_1=delta1
    )


def count_state_prob_ctmc(
    count: int,
    a: int,
    b: int,
    rates: SwitchRates,
    emissions: EmissionRates,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """P(count, end state b | start state a) for one interval.

    Integrates the Poisson count law at rate mu + f*lam against the
    fraction density; the delta components are added analytically and only
    the smooth part goes through quadrature.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    x, w = quad.nodes_weights()
    smooth = _smooth_densities(rates.r_alpha, rates.r_beta, x)[a, b]
    em = poisson_pmf(emissions.mu + x * emissions.lam, count)
    total = float(np.dot(w, em * smooth))
    if a == 0 and b == 0:
        total += poisson_pmf(emissions.mu, count) * math.exp(-rates.r_alpha)
    elif a == 1 and b == 1:
        total += poisson_pmf(emissions.on_rate, count) * math.exp(-rates.r_beta)
    return total


def trace_loglik_ctmc(
    trace: CountTrace,
    rates: SwitchRates,
    emissions: EmissionRates,
    prior: StatePrior | None = None,
    quad: QuadratureSpec = QuadratureSpec(),
) -> float:
    """Log-likelihood of the trace under continuous switching.

    Runs the grid engine on a grid of this one cell, the same rescaled
    matrix product as the single-step model.  Its interval matrices are
    the integrals of :func:`count_state_prob_ctmc`, summed in another
    order, built once per distinct count value.  The default prior is the
    chain's stationary distribution.
    """
    from .posterior import _cell_context

    switch = (rates.r_alpha, rates.r_beta)
    ctx = _cell_context(trace, "ctmc", switch, emissions, prior, quad)
    return float(ctx.logliks()[0, 0])


def avg_count_prob(count: int, emissions: EmissionRates) -> float:
    """Probability of the count averaged over a uniform on-fraction.

    integral_0^1 poisson(mu + f*lam, count) df, in closed form via the
    regularised incomplete gamma function.  This is the count law of an
    interval whose on-fraction is completely unknown; the low-rate limit of
    the switch terms above tends to switching-probability times this value.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    # imported here: scipy.special takes longer to import than the package
    from scipy.special import gammainc

    mu, lam = emissions.mu, emissions.lam
    if lam == 0.0:
        return poisson_pmf(mu, count)
    hi = gammainc(count + 1.0, mu + lam)
    lo = gammainc(count + 1.0, mu)
    return float((hi - lo) / lam)


def check_quadrature_convergence(
    rates: SwitchRates,
    emissions: EmissionRates,
    quad: QuadratureSpec,
    counts,
    tol: float = 1e-9,
) -> float:
    """Verify that doubling the node count leaves the engine's tables fixed.

    Builds the grid engine's ctmc tables of one cell over the given counts
    at ``quad`` and at twice its nodes.  Returns the worst absolute change
    across the counts and all four start/end combinations; raises
    :class:`QuadratureConvergenceError`, naming the first worst (count,
    start, end), when it exceeds ``tol``.  Intended to run once when a
    quadrature rule is configured for an inference.
    """
    from .posterior import _cell_context

    counts = CountTrace(np.unique(np.asarray(counts)))
    fine = QuadratureSpec(node_count=2 * quad.node_count)
    switch = (rates.r_alpha, rates.r_beta)
    coarse = _cell_context(counts, "ctmc", switch, emissions, quad=quad)
    refined = _cell_context(counts, "ctmc", switch, emissions, quad=fine)
    # tables (m00, m01, m10, m11) hold one column, entry [end, start];
    # report in count, start, end order
    diff = np.abs(np.subtract(coarse.tables(), refined.tables()))
    diff = diff[:, :, 0].T.reshape(-1, 2, 2).transpose(0, 2, 1)
    k, a, b = np.unravel_index(np.argmax(diff), diff.shape)
    worst = float(diff[k, a, b])
    if worst > tol:
        raise QuadratureConvergenceError(
            f"quadrature with {quad.node_count} nodes has not converged at "
            f"rates ({rates.r_alpha}, {rates.r_beta}): refining to "
            f"{fine.node_count} nodes moved P(count={counts.counts[k]}, "
            f"{a}->{b}) by {worst:.3e} (tolerance {tol:.1e})"
        )
    return worst
