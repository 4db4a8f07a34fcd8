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

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import platform
import shutil
import subprocess
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path

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

# Every model, with the names of its (switch-on, switch-off) parameters
_RATES = ("r_alpha", "r_beta")
_MODELS = {"single": ("alpha", "beta"), "ctmc": _RATES, "multistep": _RATES}
_AXIS_ORDER = {"alpha": 0, "r_alpha": 0, "beta": 1, "r_beta": 1, "lambda": 2, "mu": 3}
_PROB_AXES = {"alpha", "beta"}
# Cells per block: 129 x 512, not 2^16.  The forward kernel reads one row of
# each step table per step, and a block's table rows lie a block of cells
# apart; rows a large power of two apart fall into the same cache sets and
# evict each other, which made the kernel half as fast on ctmc blocks.
_BLOCK_CELL_TARGET = 129 * 512


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
            if not math.isfinite(value):
                raise ValueError(f"fixed {name} must be finite")
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
    """Everything a worker needs, built once and inherited through fork.

    Every model's step tables come from one builder.  An interval's entry
    [end, start] is the Poisson count law at rate mu + x*lam mixed over the
    law of the on-fraction x, so the context holds one emission table at
    the model's on-fraction nodes, and ``tables`` mixes it over the
    model's weight law w[start, end, pair, node]: the start state's node
    for single, the smooth ctmc density on quadrature nodes plus the
    switch-free point masses at 0 and 1, or the multistep on-count law at
    n/d.
    """

    def __init__(self, trace, model, grid, prior, quad, d):
        self.model = model
        self.prior = prior

        roles = {ax.name: ax.values for ax in grid.axes}
        roles.update({n: np.array([float(v)]) for n, v in grid.fixed.items()})
        switch_a, switch_b = _MODELS[model]
        expected = {switch_a, switch_b, "lambda", "mu"}
        if set(roles) != expected:
            raise ValueError(
                f"model {model!r} needs parameters {sorted(expected)}, "
                f"got {sorted(roles)}"
            )
        self.avals = roles[switch_a]
        self.bvals = roles[switch_b]
        lam_grid, mu_grid = np.meshgrid(roles["lambda"], roles["mu"], indexing="ij")
        self.lam_flat = lam_grid.ravel()
        self.mu_flat = mu_grid.ravel()
        self.n_em = self.lam_flat.size

        if model == "multistep" and d is None:
            d = _multistep.choose_subinterval_count(
                float(self.avals.max()), float(self.bvals.max())
            )
        self.d = d

        # the on-fraction nodes x of the emission table, at rate mu + x*lam
        if model == "single":
            nodes = np.array([0.0, 1.0])
        elif model == "ctmc":
            self.quad = quad
            nodes = np.concatenate([[0.0], quad.nodes_weights()[0], [1.0]])
        else:
            _multistep._check_subinterval_count(d)
            nodes = np.arange(d + 1) / d
        counts = np.asarray(trace.counts)
        self.distinct, self.inv = np.unique(counts, return_inverse=True)
        rate = self.mu_flat[:, None] + self.lam_flat[:, None] * nodes
        self.emission_nodes = poisson_pmf(rate, self.distinct[:, None, None])

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

    # -- on-fraction laws w[start, end, pair, node] of the step tables --

    def _weights_single(self, a, b):
        # all weight on the start state's node, split over the end states
        stay_go = np.stack([[1.0 - a, a], [b, 1.0 - b]])
        return stay_go[..., None] * np.eye(2)[:, None, None, :]

    def _weights_ctmc(self, a, b):
        x, w = self.quad.nodes_weights()
        law = np.zeros((2, 2, a.size, x.size + 2))
        law[..., 1:-1] = _ctmc._smooth_densities(a[:, None], b[:, None], x) * w
        # switch-free histories: point masses at on-fraction 0 and 1
        law[0, 0, :, 0] = np.exp(-a)
        law[1, 1, :, -1] = np.exp(-b)
        return law

    def _weights_multistep(self, a, b):
        return _multistep.on_count_weights(self.d, a, b)

    def row_sets(self, a, b):
        """Forward-pass rows of the cells of switch pairs ``a``, ``b``, with
        their log-likelihoods.

        Returns a list of (tables, start, loglik, pinned) sets: four (D, rows)
        step tables, (2, rows) start vectors, each row's log-likelihood, its
        log weight plus ``_forward_cells`` of its tables, and a bool mask of
        the start-pinned rows.  The first set has one row per cell, started
        from (P(off), P(on)), stationary for its pair unless a prior was
        given, with log weight 0.  A cell whose tables never send a start
        state to both end states follows one hidden path per start state,
        and a rescaled mix of the two can lose one for good; its row is
        pinned to start off with log weight log P(off), and a second set,
        present only if there are such cells, holds their rows pinned to
        start on with log weight log P(on).  The grid engine and the state
        smoother both take their tables and forward pass from here.
        """
        mats = self.tables(a, b)
        if self.prior is None:
            total = a + b
            safe = np.where(total > 0, total, 1.0)
            pair = np.where(total > 0, np.stack([b, a]) / safe, 0.5)
        else:
            pair = np.repeat(self.prior.vector[:, None], a.size, axis=1)
        start = np.repeat(pair, self.n_em, axis=1)
        m00, m01, m10, m11 = mats
        pinned = ~np.any(((m00 > 0) & (m10 > 0)) | ((m01 > 0) & (m11 > 0)), axis=0)
        log_w = np.zeros(start.shape[1])
        with np.errstate(divide="ignore"):
            log_w[pinned] = np.log(start[0, pinned])
            log_w_on = np.log(start[1, pinned])
        start[:, pinned] = [[1.0], [0.0]]
        sets = [(mats, start, log_w, pinned)]
        if pinned.any():
            sub = tuple(np.ascontiguousarray(m[:, pinned]) for m in mats)
            start_on = np.tile([[0.0], [1.0]], log_w_on.size)
            sets.append((sub, start_on, log_w_on, np.ones(log_w_on.size, dtype=bool)))
        return [(m, s, w + _forward_cells(*m, self.inv, s), p) for m, s, w, p in sets]

    def tables(self, a, b):
        """The model's step tables for switch pairs ``a``, ``b``: four
        contiguous (D, cells) arrays, cells pair-major."""
        weights = getattr(self, f"_weights_{self.model}")(a, b)
        mixed = _mix_nodes(self.emission_nodes, weights)
        return tuple(m.reshape(len(m), -1) for m in mixed)

    def eval_block(self, p_start, p_end):
        a, b = self.pair_params(p_start, p_end)
        (_, _, acc, pinned), *on = self.row_sets(a, b)
        if on:
            acc[pinned] = np.logaddexp(acc[pinned], on[0][2])
        return acc.reshape(a.size, self.n_em)


def _cell_context(trace, model, switch, emissions, prior=None, quad=None, d=None):
    """The engine context of a grid of one parameter cell.

    ``switch`` is the model's (switch-on, switch-off) pair.
    """
    cell = {**dict(zip(_MODELS[model], switch)), "lambda": emissions.lam, "mu": emissions.mu}
    return _EngineContext(trace, model, GridSpec(axes=(), fixed=cell), prior, quad, d)


def _grid_context(trace, model, grid, prior, quad, d):
    """The engine context of ``grid`` under ``model``, checked for use.

    ``quad`` applies only to ctmc, where it defaults to QuadratureSpec()
    and must converge at the grid's corner, and ``d`` only to multistep.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}")
    if quad is not None and model != "ctmc":
        raise ValueError("quadrature spec applies only to the ctmc model")
    if d is not None and model != "multistep":
        raise ValueError("subinterval count d applies only to the multistep model")
    if model == "ctmc" and quad is None:
        quad = _ctmc.QuadratureSpec()
    ctx = _EngineContext(trace, model, grid, prior, quad, d)
    if model == "ctmc":
        corner = SwitchRates(float(ctx.avals.max()), float(ctx.bvals.max()))
        corner_em = EmissionRates(float(ctx.mu_flat.max()), float(ctx.lam_flat.max()))
        _ctmc.check_quadrature_convergence(corner, corner_em, quad, ctx.distinct)
    return ctx


def _mix_nodes(emission, weights):
    """Entries of sum_k weights[start, end, p, k] * emission[D, m, k].

    The step tables of all three models: the emission at on-fraction node
    k mixed over the weight law of the nodes.  One batched matmul, of the
    (end, start)-ordered weights (4, 1, p, K) with the emission (D, K, m),
    writes the four tables straight into one contiguous (4, D, p, m)
    array, its first axis in step-matrix order [end, start]: 00, 01, 10,
    11.  The order in which BLAS sums over k is its own choice, so ctmc
    and multistep entries can move in the last bit with the block's
    shape.  Single-step entries cannot: with K = 2 and one weight exactly
    zero, every entry is one rounded product.
    """
    p, k = weights.shape[2:]
    by_end = weights.transpose(1, 0, 2, 3).reshape(4, 1, p, k)
    return np.matmul(by_end, emission.transpose(0, 2, 1))


_LN2 = math.log(2.0)
# -ffp-contract=off keeps a * b + c from fusing into one rounding, which
# would move the results; no flag may flush subnormals to zero
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")


def _forward_cells(m00, m01, m10, m11, inv, start):
    """Log-likelihood of every cell by the forward recursion.

    Runs the kernel of ``_forward.c``, whose bits are those of the same
    recursion in numpy with ``frexp`` and ``ldexp`` rescaled after every
    step: the state vector scaled by the power of two that brings its sum
    into [0.5, 1), and that exponent added to an int64 count e.  The result
    e ln 2 + log(v0 + v1) is -inf only where some step sends the vector to
    exactly zero.  ``start`` holds the (off, on) start vectors, shape
    (2, cells).

    The kernel itself scales once per run of up to 16 steps.  A power of
    two commutes exactly with every product and sum that stays a normal
    double with and without it, so a run gives the per-step bits when none
    of its values leaves the normal range.  For each block of cells it
    takes, at a point just after a scaled step, e as the exponent of the
    least nonzero component and, for each table row, lo and hi as the
    exponents of its least and largest nonzero entry; every nonzero value
    of a run is then at least 2^(e + sum of the rows' lo - max(0, hi + 4)),
    in the unscaled and the per-step recursion alike, and the run is as
    long as that stays >= 2^-1022.  A subnormal entry or component, or an
    entry of 2 or more, leaves no room for a run, and the kernel scales
    after the step.  The source's header gives the proof.
    """
    _check_rows((m00, m01, m10, m11), inv, start)
    cells = start.shape[1]
    end = np.empty((2, cells))
    exps = np.zeros(cells, dtype=np.int64)
    kernel = _forward_kernel().forward
    kernel(len(inv), cells, m00, m01, m10, m11, inv, start, end, exps)
    with np.errstate(divide="ignore"):
        return exps * _LN2 + np.log(end[0] + end[1])


def _check_rows(tables, inv, start):
    """Raises ValueError unless ``tables`` are four (D, rows) arrays,
    ``start`` is (2, rows) and every interval reads a row of the tables:
    both kernels read the buffers at offsets that assume it."""
    rows = start.shape[1]
    if start.shape != (2, rows) or {m.shape for m in tables} != {(len(tables[0]), rows)}:
        raise ValueError("step tables and start vectors disagree in shape")
    if len(inv) and not 0 <= inv.min() <= inv.max() < len(tables[0]):
        raise ValueError("an interval reads a row outside the step tables")


@functools.cache
def _forward_kernel():
    """The library of ``_forward.c``, compiled with gcc on first use.

    Its ``forward`` kernel runs the grid engine's recursion, and its
    ``smooth`` kernel the state smoother's forward-backward pass.

    The library is cached in ``$XDG_CACHE_HOME/blinkinfer`` (by default
    ``~/.cache/blinkinfer``), or in a per-user temp directory where that is
    not writable.  Its name hashes the source, the flags and the CPU, then
    the compiler version; with no gcc on PATH, a cached build of the same
    source for this CPU is loaded.
    """
    source = Path(__file__).with_name("_forward.c")
    key = _digest(source.read_bytes(), _CFLAGS, _cpu_model())
    cache = _cache_dir()
    gcc = shutil.which("gcc")
    if gcc is not None:
        version = subprocess.run([gcc, "--version"], capture_output=True, check=True)
        path = cache / f"forward-{key}-{_digest(version.stdout)}.so"
        if not path.exists():
            _compile(gcc, source, path)
    else:
        built = sorted(cache.glob(f"forward-{key}-*.so"))
        if not built:
            raise ImportError("the forward kernel needs gcc, which is not on PATH")
        path = built[0]
    lib = ctypes.CDLL(str(path))
    f8, i8, b1 = (
        np.ctypeslib.ndpointer(t, flags="C") for t in (np.float64, np.int64, np.bool_)
    )
    c8 = ctypes.c_int64
    lib.forward.argtypes = [c8, c8, f8, f8, f8, f8, i8, f8, f8, i8]
    lib.smooth.argtypes = [c8, c8, c8, f8, f8, f8, f8, i8, f8, f8, b1, f8, f8]
    lib.forward.restype = lib.smooth.restype = None
    return lib


def _compile(gcc, source, path):
    """Build ``source`` into ``path`` under a temp name, then rename it."""
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        for flags in (_CFLAGS + ("-march=native",), _CFLAGS):
            cmd = [gcc, *flags, "-o", tmp, str(source), "-lm"]
            built = subprocess.run(cmd, capture_output=True, text=True)
            if built.returncode == 0:
                os.replace(tmp, path)
                return
        raise ImportError(f"gcc could not build the forward kernel:\n{built.stderr}")
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _cache_dir():
    """The first writable cache directory this user owns, made if need be."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    fallback = Path(tempfile.gettempdir()) / f"blinkinfer-{os.getuid()}"
    for path in (Path(base) / "blinkinfer", fallback):
        with contextlib.suppress(OSError):
            path.mkdir(mode=0o700, parents=True, exist_ok=True)
            if os.access(path, os.W_OK) and path.stat().st_uid == os.getuid():
                return path
    raise ImportError("no writable cache directory for the forward kernel")


def _cpu_model():
    """The CPU's model name and feature flags, which -march=native reads."""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        return sorted({ln for ln in f if ln.startswith(("model name", "flags"))})
    return platform.machine()


def _digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


_WORKER_CTX: _EngineContext | None = None

# OpenBLAS's thread-count calls, under the names its builds export
_BLAS_SET = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _blas_function(names, argtypes, restype):
    """The first of ``names`` that a loaded BLAS library exports, typed, or
    None.

    numpy loads its BLAS privately, so the library is found by its path in
    ``/proc/self/maps``; where that cannot be read, there is none.
    """
    with contextlib.suppress(OSError), open("/proc/self/maps") as f:
        paths = {ln.split()[-1] for ln in f if "blas" in ln.rpartition("/")[2]}
        for path in sorted(paths):
            with contextlib.suppress(OSError):
                lib = ctypes.CDLL(path)
                for name in names:
                    if hasattr(lib, name):
                        fn = getattr(lib, name)
                        fn.argtypes, fn.restype = argtypes, restype
                        return fn
    return None


def _worker_init():
    """Gives a pool worker one BLAS thread, so that a worker's table mixing
    wakes no thread pool to compete with the other workers' kernels."""
    set_threads = _blas_function(_BLAS_SET, [ctypes.c_int], None)
    if set_threads is not None:
        set_threads(1)


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
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if len(grid.axes) == 0:
        raise ValueError("grid has no free axes")
    probe = _grid_context(trace, model, grid, prior, quad, d)

    blocks = probe.block_ranges()
    flat = np.empty((probe.n_pairs(), probe.n_em))

    _forward_kernel()  # built before any fork, so that workers share it
    if workers <= 1 or len(blocks) == 1:
        for blk in blocks:
            flat[blk[0] : blk[1]] = probe.eval_block(*blk)
    else:
        global _WORKER_CTX
        _WORKER_CTX = probe
        try:
            # the fork context starts every worker at once, so start no idle one
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(blocks)),
                mp_context=get_context("fork"),
                initializer=_worker_init,
            )
            with pool:
                for blk, result in pool.map(_worker_eval, blocks):
                    flat[blk[0] : blk[1]] = result
        finally:
            _WORKER_CTX = None

    # fixed parameters hold one value each, so the flat (pair, emission)
    # order is the row-major order of the free axes
    log_post = flat.reshape(grid.shape)

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
