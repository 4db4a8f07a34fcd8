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

    def start_rows(self, a, b, mats):
        """Forward-pass start rows of the cells of switch pairs ``a``, ``b``.

        Each cell's row starts from (P(off), P(on)), stationary for its pair
        unless a prior was given, with log weight 0.  A cell whose tables
        never send a start state to both end states follows one hidden path
        per start state, and a rescaled mix of the two can lose one for
        good; its row is pinned to start off with log weight log P(off), and
        a second row, pinned to start on, gets log P(on).  Returns (start,
        log_w, pinned, log_w_on), the last two for the split cells only.
        """
        if self.prior is None:
            total = a + b
            safe = np.where(total > 0, total, 1.0)
            pair = np.where(total > 0, np.stack([b, a]) / safe, 0.5)
        else:
            pair = np.repeat(self.prior.vector[:, None], a.size, axis=1)
        start = np.repeat(pair, self.n_em, axis=1)
        m00, m01, m10, m11 = mats
        pinned = np.flatnonzero(
            ~np.any(((m00 > 0) & (m10 > 0)) | ((m01 > 0) & (m11 > 0)), axis=0)
        )
        log_w = np.zeros(start.shape[1])
        with np.errstate(divide="ignore"):
            log_w[pinned] = np.log(start[0, pinned])
            log_w_on = np.log(start[1, pinned])
        start[:, pinned] = [[1.0], [0.0]]
        return start, log_w, pinned, log_w_on

    def eval_block(self, p_start, p_end):
        a, b = self.pair_params(p_start, p_end)
        entries = getattr(self, f"_entries_{self.model}")(a, b)
        mats = tuple(np.ascontiguousarray(m) for m in entries)
        start, log_w, pinned, log_w_on = self.start_rows(a, b, mats)
        acc = log_w + _forward_cells(*mats, self.inv, start)
        if pinned.size:
            sub = tuple(m[:, pinned] for m in mats)
            start_on = np.tile([[0.0], [1.0]], pinned.size)
            on = log_w_on + _forward_cells(*sub, self.inv, start_on)
            acc[pinned] = np.logaddexp(acc[pinned], on)
        return acc.reshape(a.size, self.n_em)


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


_LN2 = math.log(2.0)
# The recursion runs over slices of this many cells, so that a step's state
# vectors and table rows stay in cache.  Cells are independent, so the
# slicing changes no bit.
_CHUNK_CELLS = 16384
# Steps per window between rescalings.
_WINDOW_STEPS = 8
# Rerun limits of a window; see _forward_cells.
_SUM_FLOOR = 2.0**-600
_DIP_RATIO = 2.0**-300
_VALUE_FLOOR = 2.0**-960


def _forward_cells(m00, m01, m10, m11, inv, start, prefixes=None):
    """Log-likelihood of every cell by the forward recursion.

    The state vector is left unscaled over windows of ``_WINDOW_STEPS``
    steps.  At the end of each it is scaled by the power of two that brings
    its sum into [0.5, 1), read from ``np.frexp``, and that exponent adds
    to an int64 count e.  Table columns sum to at most 1, so the sum never
    grows and cannot overflow.  Scaling by a power of two is exact, so the
    result is bitwise that of a rescaling at every step unless some value
    turns subnormal inside a window.  Where that could happen, a cell's
    window runs again from its saved start, rescaled at every step:

    - where its sum fell below ``_SUM_FLOOR`` from a nonzero start, an
      exact zero included.  Above that, a component that keeps at least
      ``_DIP_RATIO`` of the other stays far above the subnormal range, and
      a subnormal product is lost to rounding in the sum it joins;
    - where a component that some table row can leave below
      ``_DIP_RATIO`` of the other fell below ``_VALUE_FLOOR`` at some
      step.  Slices of cells holding such a component track each step's
      smallest values.  A component that starts the window at zero and
      that no row feeds from the other state stays zero and is exempt.

    The result e ln 2 + log(v0 + v1) is -inf only where some step sends
    the vector to exactly zero.

    ``start`` holds the (off, on) start vectors, shape (2, cells).  With
    ``prefixes`` of shape (len(inv) + 1, 2, cells), the state vector after
    every step is stored there, the start vector in row 0.  Inside a window
    it is stored unscaled; a cell's vectors at one position share one scale,
    which cancels in any ratio of their components.
    """
    out = np.empty(start.shape[1])
    for lo in range(0, out.size, _CHUNK_CELLS):
        sl = slice(lo, lo + _CHUNK_CELLS)
        mats = tuple(m[:, sl] for m in (m00, m01, m10, m11))
        part = None if prefixes is None else prefixes[:, :, sl]
        v, exps = _forward_chunk(mats, inv, start[:, sl], part, _WINDOW_STEPS)
        with np.errstate(divide="ignore"):
            out[sl] = exps * _LN2 + np.log(v[0] + v[1])
    return out


def _forward_chunk(mats, inv, start, prefixes, window):
    """End vector, scaled to a sum in [0.5, 1) or zero, and its exponents.

    Rescales once every ``window`` steps; see :func:`_forward_cells`.
    """
    m00, m01, m10, m11 = mats
    cells = start.shape[1]
    n = len(inv)
    if prefixes is None:
        v = start.copy()
        steps = np.empty((2, 2, cells))
    else:
        prefixes[0] = start
    track = False
    if window > 1:
        fed = np.stack([np.any(m01 > 0, axis=0), np.any(m10 > 0, axis=0)])
        may_dip = np.zeros((2, cells), dtype=bool)
        for r00, r01, r10, r11 in zip(m00, m01, m10, m11):
            may_dip[0] |= (r00 < _DIP_RATIO * r10) | (r01 < _DIP_RATIO * r11)
            may_dip[1] |= (r10 < _DIP_RATIO * r00) | (r11 < _DIP_RATIO * r01)
        may_dip &= fed | (start > 0)
        track = bool(may_dip.any())
        low = np.empty((2, cells)) if track else None
    exps = np.zeros(cells, dtype=np.int64)
    total, tmp = np.empty((2, cells))
    ex = np.empty(cells, dtype=np.intc)
    for lo in range(0, n, window):
        hi = min(lo + window, n)
        first = src = v if prefixes is None else prefixes[lo]
        if track:
            low.fill(np.inf)
        for k in range(lo + 1, hi + 1):
            dst = steps[k % 2] if prefixes is None else prefixes[k]
            t = inv[k - 1]
            np.multiply(m00[t], src[0], out=dst[0])
            dst[0] += np.multiply(m01[t], src[1], out=tmp)
            np.multiply(m10[t], src[0], out=dst[1])
            dst[1] += np.multiply(m11[t], src[1], out=tmp)
            if track:
                np.minimum(low, dst, out=low)
            src = dst
        np.add(src[0], src[1], out=total)
        if window > 1:
            unsafe = total < _SUM_FLOOR
            if track:
                dipped = may_dip & (low < _VALUE_FLOOR) & (fed | (first > 0))
                unsafe |= np.any(dipped, axis=0)
            lost = np.flatnonzero(unsafe & np.any(first > 0, axis=0))
            saved = first[:, lost]
        end = v if prefixes is None else src
        np.frexp(total, out=(tmp, ex))
        exps += ex
        np.negative(ex, out=ex)
        np.ldexp(src[0], ex, out=end[0])
        np.ldexp(src[1], ex, out=end[1])
        if window > 1 and lost.size:
            window_rows = None if prefixes is None else prefixes[lo : hi + 1]
            redo, redo_exps = _rerun_window(mats, inv[lo:hi], lost, saved, window_rows)
            end[:, lost] = redo
            exps[lost] += redo_exps + ex[lost]
    return (v if prefixes is None else prefixes[n]), exps


def _rerun_window(mats, rows, cells, start, window_rows):
    """One window for the given cells, rescaled at every step.

    ``rows`` are the window's table rows and ``start`` the cells' saved
    start vectors.  Writes the rescaled vectors into ``window_rows`` (the
    window's prefix rows, start row first), if given, and returns the end
    vector and its exponents.
    """
    sub = tuple(m[rows[:, None], cells] for m in mats)
    part = None if window_rows is None else np.empty((rows.size + 1, 2, cells.size))
    end, exps = _forward_chunk(sub, np.arange(rows.size), start, part, 1)
    if window_rows is not None:
        window_rows[1:, :, cells] = part[1:]
    return end, exps


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
