"""Grid-based Bayesian posteriors over switching parameters.

The posterior on a user-specified box with flat priors is proportional to
the trace likelihood, so the engine evaluates the log-likelihood on a
regular grid, one cell per parameter combination, and normalises at the
end.  Unknown emission rates are handled by putting lambda and mu on grid
axes of their own and summing them out.

Cells are independent, which the engine exploits twice: the grid is cut
into fixed blocks of switch-parameter pairs whose forward recursions run
vectorised across all cells of a block, and blocks can be farmed out to
worker processes.  Block boundaries depend only on the grid, never on the
worker count, so the resulting tensor is bitwise identical however many
workers run.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from . import ctmc as _ctmc
from . import multistep as _multistep
from .kernels import (
    CountTrace,
    EmissionRates,
    StatePrior,
    SwitchRates,
    poisson_pmf,
)

__all__ = [
    "GridAxis",
    "GridSpec",
    "PosteriorGrid",
    "CredibleRegion",
    "evaluate_grid",
    "marginalize",
    "credible_regions",
    "mode",
    "inference_error",
]

_AXIS_ORDER = {"alpha": 0, "r_alpha": 0, "beta": 1, "r_beta": 1, "lambda": 2, "mu": 3}
_PROB_AXES = {"alpha", "beta"}
_BLOCK_CELL_TARGET = 65536


@dataclass(frozen=True)
class GridAxis:
    """One free parameter axis: ``n`` equally spaced values on [lo, hi]."""

    name: str
    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if self.name not in _AXIS_ORDER:
            raise ValueError(f"unknown axis name {self.name!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("axis bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError("axis lower bound must be below upper bound")
        if self.n < 2:
            raise ValueError("axis needs at least 2 points")
        if self.name in _PROB_AXES and not (0.0 <= self.lo and self.hi <= 1.0):
            raise ValueError(f"axis {self.name} must stay within [0, 1]")
        if self.lo < 0.0:
            raise ValueError(f"axis {self.name} must be non-negative")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


@dataclass(frozen=True)
class GridSpec:
    """Free axes plus parameters held fixed at known values.

    Axes are stored in the canonical order (switch-on, switch-off, lambda,
    mu) regardless of the order given.
    """

    axes: tuple[GridAxis, ...]
    fixed: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        axes = tuple(sorted(self.axes, key=lambda ax: _AXIS_ORDER[ax.name]))
        names = [ax.name for ax in axes] + list(self.fixed)
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter in axes/fixed")
        for name, value in self.fixed.items():
            if name not in _AXIS_ORDER:
                raise ValueError(f"unknown fixed parameter {name!r}")
            if value < 0:
                raise ValueError(f"fixed {name} must be non-negative")
            if name in _PROB_AXES and value > 1.0:
                raise ValueError(f"fixed {name} must lie in [0, 1]")
        object.__setattr__(self, "axes", axes)

    @property
    def free_names(self) -> tuple[str, ...]:
        return tuple(ax.name for ax in self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.n for ax in self.axes)

    def axis(self, name: str) -> GridAxis:
        for ax in self.axes:
            if ax.name == name:
                return ax
        raise KeyError(name)


@dataclass(frozen=True)
class PosteriorGrid:
    """Normalised posterior tensor over the grid's free axes.

    ``post`` sums to 1; ``mode`` is the parameter tuple of the maximal cell
    (first in row-major order on ties); ``marginals`` maps each free axis
    name to its 1-d marginal.
    """

    spec: GridSpec
    model: str
    log_post: np.ndarray
    post: np.ndarray
    mode_index: tuple[int, ...]
    mode: tuple[float, ...]
    marginals: dict[str, np.ndarray]
    d: int | None = None

    def marginal2d(self, name_a: str, name_b: str) -> np.ndarray:
        """Normalised 2-d marginal over two free axes, in canonical order."""
        return marginalize(self, (name_a, name_b))

    @property
    def switch_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.spec.free_names if _AXIS_ORDER[n] < 2)

    def switch_marginal(self) -> np.ndarray:
        names = self.switch_names
        if len(names) != 2:
            raise ValueError("both switch parameters must be free axes")
        return self.marginal2d(*names)

    def mode_value(self, name: str) -> float:
        return self.mode[self.spec.free_names.index(name)]


@dataclass(frozen=True)
class CredibleRegion:
    """Highest-posterior-density cell set holding at least ``level`` mass."""

    level: float
    mask: np.ndarray
    contained_mass: float
    threshold: float


# ---------------------------------------------------------------------------
# grid evaluation engine


class _EngineContext:
    """Everything a worker needs, built once and inherited through fork."""

    def __init__(self, trace, model, grid, prior, quad, d):
        self.model = model
        self.prior = prior

        roles = {}
        for ax in grid.axes:
            roles[ax.name] = ax.values
        for name, value in grid.fixed.items():
            roles[name] = np.array([float(value)])
        names = set(roles)
        switch_a = "alpha" if model == "single" else "r_alpha"
        switch_b = "beta" if model == "single" else "r_beta"
        expected = {switch_a, switch_b, "lambda", "mu"}
        if names != expected:
            raise ValueError(
                f"model {model!r} needs parameters {sorted(expected)}, "
                f"got {sorted(names)}"
            )
        self.avals = roles[switch_a]
        self.bvals = roles[switch_b]
        lvals = roles["lambda"]
        mvals = roles["mu"]
        self.n_lambda = lvals.size
        self.n_mu = mvals.size
        lam_grid, mu_grid = np.meshgrid(lvals, mvals, indexing="ij")
        self.lam_flat = lam_grid.ravel()
        self.mu_flat = mu_grid.ravel()
        self.n_em = self.lam_flat.size

        if model == "multistep" and d is None:
            d = _multistep.choose_subinterval_count(
                float(self.avals.max()), float(self.bvals.max())
            )
        self.d = d

        counts = np.asarray(trace.counts)
        self.distinct, self.inv = np.unique(counts, return_inverse=True)
        dcol = self.distinct[:, None].astype(float)
        self.p_off = poisson_pmf(self.mu_flat[None, :], dcol)
        self.p_on = poisson_pmf((self.mu_flat + self.lam_flat)[None, :], dcol)

        # ctmc and multistep tables mix Poisson laws at on-fractions x:
        # quadrature nodes, or the on-sub-step fractions n/d
        if model == "ctmc":
            self.nodes, self.quad_w = quad.nodes_weights()
        elif model == "multistep":
            self.nodes = np.arange(d + 1) / d
        if model != "single":
            rate = self.mu_flat[:, None] + self.lam_flat[:, None] * self.nodes[None, :]
            emission = np.empty((self.distinct.size, self.n_em, self.nodes.size))
            for i, c in enumerate(self.distinct):
                emission[i] = poisson_pmf(rate, float(c))
            self.emission_nodes = emission

    def pairs_per_block(self) -> int:
        return max(1, _BLOCK_CELL_TARGET // self.n_em)

    def n_pairs(self) -> int:
        return self.avals.size * self.bvals.size

    def block_ranges(self):
        step = self.pairs_per_block()
        total = self.n_pairs()
        return [(s, min(s + step, total)) for s in range(0, total, step)]

    def pair_params(self, p_start, p_end):
        nb = self.bvals.size
        idx = np.arange(p_start, p_end)
        return self.avals[idx // nb], self.bvals[idx % nb]

    # -- step matrix builders: four arrays (D, cells), entry [end, start] --

    def _entries_single(self, a, b):
        e00 = np.einsum("p,dm->dpm", 1.0 - a, self.p_off)
        e10 = np.einsum("p,dm->dpm", a, self.p_off)
        e01 = np.einsum("p,dm->dpm", b, self.p_on)
        e11 = np.einsum("p,dm->dpm", 1.0 - b, self.p_on)
        return _flat(e00, e01, e10, e11)

    def _entries_ctmc(self, a, b):
        smooth = _ctmc._smooth_densities(a[:, None], b[:, None], self.nodes[None, :])
        e00, e01, e10, e11 = _mix_nodes(self.emission_nodes, smooth * self.quad_w)
        # switch-free histories: point masses at on-fraction 0 and 1
        e00 = e00 + np.einsum("p,dm->dpm", np.exp(-a), self.p_off)
        e11 = e11 + np.einsum("p,dm->dpm", np.exp(-b), self.p_on)
        return _flat(e00, e01, e10, e11)

    def _entries_multistep(self, a, b):
        weights = _multistep.on_count_weights(self.d, a, b)
        return _flat(*_mix_nodes(self.emission_nodes, weights))

    def eval_block(self, p_start, p_end):
        a, b = self.pair_params(p_start, p_end)
        m00, m01, m10, m11 = getattr(self, f"_entries_{self.model}")(a, b)

        bp = a.size
        if self.prior is None:
            total = a + b
            safe = np.where(total > 0, total, 1.0)
            p_off_pair = np.where(total > 0, b / safe, 0.5)
        else:
            p_off_pair = np.full(bp, self.prior.p_off)
        v0_init = np.repeat(p_off_pair, self.n_em)

        mats = tuple(np.ascontiguousarray(m) for m in (m00, m01, m10, m11))
        acc = _forward_cells(*mats, self.inv, v0_init)
        # a cell whose tables send each start state to one end state follows
        # one hidden path per start state; renormalising the mixed vector
        # could drop one of the two, so each is run from its own start
        m00, m01, m10, m11 = mats
        fixed = ~np.any(((m00 > 0) & (m10 > 0)) | ((m01 > 0) & (m11 > 0)), axis=0)
        if fixed.any():
            sub = tuple(m[:, fixed] for m in mats)
            p_off = v0_init[fixed]
            start_off, start_on = np.ones_like(p_off), np.zeros_like(p_off)
            with np.errstate(divide="ignore"):
                from_off = np.log(p_off) + _forward_cells(*sub, self.inv, start_off)
                from_on = np.log(1.0 - p_off) + _forward_cells(*sub, self.inv, start_on)
            acc[fixed] = np.logaddexp(from_off, from_on)
        return acc.reshape(bp, self.n_em)


def _flat(*entries):
    """Step-matrix entries (D, pairs, emission cells) as (D, cells) arrays."""
    return tuple(e.reshape(e.shape[0], -1) for e in entries)


def _mix_nodes(emission, weights):
    """Entries of sum_k weights[start, end, p, k] * emission[D, m, k].

    Returns (D, pairs, emission cells) arrays in step-matrix order
    [end, start]: 00, 01, 10, 11.
    """
    joint = np.tensordot(emission, weights, axes=([2], [3]))
    joint = joint.transpose(0, 4, 1, 2, 3)  # (D, p, m, start, end)
    return joint[..., 0, 0], joint[..., 1, 0], joint[..., 0, 1], joint[..., 1, 1]


_TINY = np.finfo(float).tiny


def _forward_cells(m00, m01, m10, m11, inv, v0_init):
    """Log-likelihood of every cell by the renormalised forward recursion.

    The per-step sums are multiplied over windows of four steps before one
    log is taken.  Where a window's product drops below the normal float
    range, the logs of its own sums are added instead, so a cell is -inf
    only when some per-step sum is exactly zero.
    """
    v0 = v0_init.copy()
    v1 = 1.0 - v0_init
    acc = np.zeros(v0.size)
    window = np.ones(v0.size)
    sums, n_dead = [], 0
    for t in inv:
        w0 = m00[t] * v0 + m01[t] * v1
        w1 = m10[t] * v0 + m11[t] * v1
        s = w0 + w1
        window *= s
        r = 1.0 / np.where(s > 0.0, s, 1.0)
        v0 = w0 * r
        v1 = w1 * r
        sums.append(s)
        if len(sums) == 4:
            n_dead = _fold(acc, window, sums, n_dead)
    _fold(acc, window, sums, n_dead)
    return acc


def _fold(acc, window, sums, n_dead):
    """Add the log of the window into ``acc``; returns the count of -inf cells."""
    low = window < _TINY
    acc += np.log(np.where(low, 1.0, window))
    # a dead cell's window stays zero, so only new low cells need the slow path
    if np.count_nonzero(low) > n_dead:
        idx = np.flatnonzero(low & (acc > -np.inf))
        with np.errstate(divide="ignore"):
            for s in sums:
                acc[idx] += np.log(s[idx])
        n_dead = int(np.count_nonzero(acc == -np.inf))
    window[:] = 1.0
    sums.clear()
    return n_dead


_WORKER_CTX: _EngineContext | None = None


def _worker_eval(block):
    return block, _WORKER_CTX.eval_block(*block)


def evaluate_grid(
    trace: CountTrace,
    model: str,
    grid: GridSpec,
    prior: StatePrior | None = None,
    quad: _ctmc.QuadratureSpec | None = None,
    d: int | None = None,
    workers: int = 1,
) -> PosteriorGrid:
    """Posterior over the grid's free axes for one of the three models.

    ``model`` is "single" (axes alpha/beta), "ctmc" or "multistep" (axes
    r_alpha/r_beta); lambda and mu are free axes or fixed values either
    way.  With flat priors the log posterior of a cell is the trace
    log-likelihood at the cell's parameters; marginalisation over free
    emission axes is a plain sum over those axes of the normalised tensor.

    ``prior`` defaults to the per-cell stationary state distribution.  For
    the multistep model ``d`` defaults to the applicability rule evaluated
    at the largest grid rates.  Results do not depend on ``workers``.
    """
    if model not in ("single", "ctmc", "multistep"):
        raise ValueError(f"unknown model {model!r}")
    if len(grid.axes) == 0:
        raise ValueError("grid has no free axes")
    if quad is not None and model != "ctmc":
        raise ValueError("quadrature spec applies only to the ctmc model")
    if d is not None and model != "multistep":
        raise ValueError("subinterval count d applies only to the multistep model")
    if model == "ctmc" and quad is None:
        quad = _ctmc.QuadratureSpec()

    probe = _EngineContext(trace, model, grid, prior, quad, d)
    if model == "ctmc":
        corner = SwitchRates(float(probe.avals.max()), float(probe.bvals.max()))
        corner_em = EmissionRates(float(probe.mu_flat.max()), float(probe.lam_flat.max()))
        _ctmc.check_quadrature_convergence(
            corner, corner_em, quad, probe.distinct, tol=1e-9
        )

    blocks = probe.block_ranges()
    n_a, n_b = probe.avals.size, probe.bvals.size
    flat = np.empty((probe.n_pairs(), probe.n_em))

    if workers <= 1 or len(blocks) == 1:
        for blk in blocks:
            flat[blk[0] : blk[1]] = probe.eval_block(*blk)
    else:
        global _WORKER_CTX
        _WORKER_CTX = probe
        try:
            ctx = get_context("fork")
            with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
                for blk, result in pool.map(_worker_eval, blocks):
                    flat[blk[0] : blk[1]] = result
        finally:
            _WORKER_CTX = None

    full = flat.reshape(n_a, n_b, probe.n_lambda, probe.n_mu)
    free = set(grid.free_names)
    role_is_free = (
        bool(free & {"alpha", "r_alpha"}),
        bool(free & {"beta", "r_beta"}),
        "lambda" in free,
        "mu" in free,
    )
    log_post = full
    for axis_i in reversed(range(4)):
        if not role_is_free[axis_i]:
            log_post = np.squeeze(log_post, axis=axis_i)

    return _finalize(grid, model, log_post, probe.d)


def _finalize(grid, model, log_post, d):
    peak = np.max(log_post)
    if not np.isfinite(peak):
        raise ValueError("posterior is identically zero on this grid")
    post = np.exp(log_post - peak)
    post /= post.sum()
    mode_index = np.unravel_index(np.argmax(post), post.shape)
    mode_values = tuple(
        float(ax.values[i]) for ax, i in zip(grid.axes, mode_index)
    )
    marginals = {}
    for i, ax in enumerate(grid.axes):
        others = tuple(j for j in range(post.ndim) if j != i)
        m = post.sum(axis=others) if others else post.copy()
        marginals[ax.name] = m / m.sum()
    return PosteriorGrid(
        spec=grid,
        model=model,
        log_post=log_post,
        post=post,
        mode_index=tuple(int(i) for i in mode_index),
        mode=mode_values,
        marginals=marginals,
        d=d,
    )


# ---------------------------------------------------------------------------
# posterior summaries


def marginalize(posterior: PosteriorGrid, keep_axes) -> np.ndarray:
    """Sum the posterior down to the named axes; result is normalised.

    ``keep_axes`` is a subset of the free axis names; the returned array's
    axes follow the grid's canonical order.
    """
    names = list(posterior.spec.free_names)
    keep = set(keep_axes)
    unknown = keep - set(names)
    if unknown:
        raise ValueError(f"not free axes: {sorted(unknown)}")
    drop = tuple(i for i, n in enumerate(names) if n not in keep)
    out = posterior.post.sum(axis=drop) if drop else posterior.post.copy()
    return out / out.sum()


def credible_regions(marginal_2d: np.ndarray, levels) -> list[CredibleRegion]:
    """Highest-posterior-density regions of a normalised 2-d marginal.

    Cells are ranked by probability and accumulated until each requested
    level is reached; ties at the boundary are broken by flat index, so the
    smallest qualifying mask is returned and masks nest across levels.
    """
    m = np.asarray(marginal_2d, dtype=float)
    if m.ndim != 2:
        raise ValueError("marginal must be 2-d")
    if abs(m.sum() - 1.0) > 1e-6:
        raise ValueError("marginal must be normalised")
    flat = m.ravel()
    order = np.argsort(-flat, kind="stable")
    csum = np.cumsum(flat[order])
    regions = []
    for level in levels:
        if not 0.0 < level < 1.0:
            raise ValueError("credible levels must be inside (0, 1)")
        # slight shrink of the target absorbs float noise when the running
        # mass lands exactly on the level
        k = int(np.searchsorted(csum, level * (1.0 - 1e-12), side="left")) + 1
        k = min(k, flat.size)
        mask_flat = np.zeros(flat.size, dtype=bool)
        mask_flat[order[:k]] = True
        regions.append(
            CredibleRegion(
                level=float(level),
                mask=mask_flat.reshape(m.shape),
                contained_mass=float(csum[k - 1]),
                threshold=float(flat[order[k - 1]]),
            )
        )
    return regions


def mode(posterior: PosteriorGrid) -> tuple[float, ...]:
    """Parameter tuple of the maximal posterior cell."""
    return posterior.mode


def inference_error(true_params, posterior: PosteriorGrid) -> float:
    """Euclidean distance (in the switch-parameter plane) from truth to mode."""
    names = posterior.switch_names
    if len(names) != 2:
        raise ValueError("posterior must have both switch parameters free")
    true_a, true_b = float(true_params[0]), float(true_params[1])
    for value, name in ((true_a, names[0]), (true_b, names[1])):
        ax = posterior.spec.axis(name)
        if not ax.lo <= value <= ax.hi:
            raise ValueError(f"true {name}={value} outside grid bounds")
    mode_a = posterior.mode_value(names[0])
    mode_b = posterior.mode_value(names[1])
    return math.hypot(mode_a - true_a, mode_b - true_b)
