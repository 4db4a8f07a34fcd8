"""Grid-based Bayesian posteriors over switching parameters.

The posterior on a user-specified box with flat priors is proportional to
the trace likelihood, so the engine evaluates the log-likelihood on a
regular grid, one cell per parameter combination, and normalises at the
end.  Unknown emission rates are handled by putting lambda and mu on grid
axes of their own and summing them out.

Cells are independent, which the engine exploits twice: the grid is cut
into chunks of switch pairs by emission cells whose forward recursions run
vectorised across all cells of a chunk, and chunks can run side by side on
threads of one process, since the compiled kernels and numpy's float loops
release the interpreter lock.  Chunk boundaries depend only on the grid,
never on the worker count, and no cell's bits depend on its chunk, so the
resulting tensor is bitwise identical however many threads run.
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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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
# Bytes of one chunk's four step tables at most, a chunk being a thread's
# unit of work: one core's 2 MiB L2 on the machine measured, so that the
# forward pass reads the tables the mixer has just written from cache.  A
# chunk of one cell may exceed it.
_CHUNK_BYTES = 2 << 20
# Pairs per run from which a single-step run takes the product path, whose
# blocks hold one emission cell's pairs, so that a narrow run steps narrow
# blocks.  Product over table time of evaluating a grid, N = 1e4 and some
# 40 count values, min of 15 on a 2-CPU Xeon (AVX-512, shared host): at 64
# emission cells 2.7 at 4 pairs a run, 1.3 at 8, 0.87 at 16, 0.76 at 24,
# 0.74 at 32 and 0.62 at 64; at 9 emission cells 1.0 at 16, 1.15 at 20 and
# 0.77 at 32
_PRODUCT_PAIRS = 32


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
    """Everything a chunk needs, built once and read-only after ``__init__``,
    so that threads share it.

    Every model's step tables come from one builder.  An interval's entry
    [end, start] is the Poisson count law at rate mu + x*lam mixed over the
    law of the on-fraction x, so the context holds one emission table at
    the model's on-fraction nodes, of shape (count, emission cell, node),
    and ``weights`` gives the model's weight law of each switch pair over
    the nodes: the start state's node for single, the smooth ctmc density
    on quadrature nodes plus the switch-free point masses at 0 and 1, or
    the multistep on-count law at n/d.  ``_mix_nodes`` mixes the two with
    the compiled ``mix`` kernel, whose fixed order of summation makes every
    entry depend on its own cell alone.

    ``a`` and ``b`` hold every switch pair's parameters, pair i being
    (a[i], b[i]), and the grid's flat cell p * n_em + m is pair p at
    emission cell m.  ``chunks`` cuts the grid into chunks: a run of pairs
    by a run of emission cells, the four tables within ``_CHUNK_BYTES``.
    ``row_sets`` is the one route from a chunk to log-likelihoods, and
    ``logliks`` runs every chunk.  So no caller holds more than one chunk's
    tables and one run's weights per thread, and no cell's bits depend on
    the chunk that holds it.

    A single-step entry is one weight times one emission value, so a wide
    single-step run takes the product path, on which the forward kernel
    forms each entry as it steps and no table is built unless a caller
    asks ``row_sets``' sets for some rows' tables: the smoother for its
    kept rows, ``tables`` and the tests.  Every table still comes from
    ``_mix_nodes``.
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
        a_grid, b_grid = np.meshgrid(roles[switch_a], roles[switch_b], indexing="ij")
        self.a = a_grid.ravel()
        self.b = b_grid.ravel()
        lam_grid, mu_grid = np.meshgrid(roles["lambda"], roles["mu"], indexing="ij")
        self.lam_flat = lam_grid.ravel()
        self.mu_flat = mu_grid.ravel()
        self.n_em = self.lam_flat.size

        if model == "multistep" and d is None:
            d = _multistep.choose_subinterval_count(float(self.a.max()), float(self.b.max()))
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

    # -- on-fraction laws of the step tables, as ``mix`` reads them: (4,
    # node, pair), the first axis in step-matrix order [end, start] --

    def _weights_single(self, a, b):
        # all weight on the start state's node, split over the end states
        law = np.zeros((4, 2, a.size))
        law[0, 0], law[2, 0] = 1.0 - a, a
        law[1, 1], law[3, 1] = b, 1.0 - b
        return law

    def _weights_ctmc(self, a, b):
        x, w = self.quad.nodes_weights()
        dens = _ctmc._smooth_densities(a[:, None], b[:, None], x)
        law = np.zeros((4, x.size + 2, a.size))
        for q, (end, start) in enumerate(np.ndindex(2, 2)):
            np.multiply(dens[start, end], w, out=law[q, 1:-1].T)
        # switch-free histories: point masses at on-fraction 0 and 1
        law[0, 0] = np.exp(-a)
        law[3, -1] = np.exp(-b)
        return law

    def _weights_multistep(self, a, b):
        law = _multistep.on_count_weights(self.d, a, b)  # [start, end, pair, node]
        return np.ascontiguousarray(law.transpose(1, 0, 3, 2).reshape(4, -1, a.size))

    def weights(self, a, b):
        """The weight laws of switch pairs ``a``, ``b`` as ``mix`` reads
        them: (4, node, pair), the first axis in step-matrix order [end,
        start]: 00, 01, 10, 11."""
        return getattr(self, f"_weights_{self.model}")(a, b)

    def tables(self):
        """The step tables of a grid of one chunk, such as one cell's: four
        contiguous (D, cells) arrays, cells emission cell-major."""
        ((_, ems, weights),) = self.chunks()
        return _mix_nodes(self.emission_nodes, weights(), ems)

    def chunks(self):
        """The grid's chunks: (pairs, ems, weights) for each, ``pairs`` and
        ``ems`` its slices of the switch pairs and of the emission cells,
        and ``weights`` a function, shared by each run's chunks, whose first
        call computes the run's weight laws, freed with its last chunk.

        A run takes as many pairs as keep its weights and its tables at one
        emission cell within the budget together, the grid's pairs split
        into runs of even size: a run of a few pairs would mix slowly, as
        the mixer's register tiles are 16 pairs wide.  Each chunk takes as
        many emission cells as keep its tables within the budget, at least
        one.  A cell count that is a multiple of 2048 is cut by one where it
        can be: the forward pass reads one row of each table per step, and
        rows a large power of two apart fall into the same cache sets and
        evict each other.
        """
        total = self.a.size
        column = 32 * len(self.distinct)  # bytes of one cell's four table entries
        law = 32 * self.emission_nodes.shape[2]  # bytes of one pair's weights
        runs = -(-total // max(1, _CHUNK_BYTES // (column + law)))
        run = _off_powers(-(-total // runs), 1)
        for lo in range(0, total, run):
            pairs = slice(lo, min(lo + run, total))
            weights = _once(functools.partial(self.weights, self.a[pairs], self.b[pairs]))
            width = pairs.stop - lo
            ems = _off_powers(min(self.n_em, max(1, _CHUNK_BYTES // (column * width))), width)
            for m in range(0, self.n_em, ems):
                yield pairs, slice(m, min(m + ems, self.n_em)), weights

    def row_sets(self, pairs, ems, weights):
        """The forward-pass rows of one chunk of ``chunks``, with their
        log-likelihoods: a list of (cells, tables, start, loglik, pinned)
        sets.

        Each set holds each row's flat cell index in the grid, a function
        that maps an ascending array of the set's row indices to those
        rows' four (D, k) step tables, (2, rows) start vectors, each row's
        log weight plus its forward-pass log-likelihood, and a bool mask of
        the start-pinned rows.  The first set has one row per cell, emission
        cell-major, so that row j * pairs + i is pair i at emission cell j
        of the chunk, started from (P(off), P(on)), stationary for its pair
        unless a prior was given, with log weight 0.  A cell whose tables
        never send a start state to both end states follows one hidden path
        per start state, and a rescaled mix of the two can lose one for
        good; its row is pinned to start off with log weight log P(off), and
        a second set, present only if there are such cells, holds their rows
        pinned to start on with log weight log P(on).  No other code tells a
        frozen chain.

        A single-step run of at least ``_PRODUCT_PAIRS`` pairs takes the
        product path: ``_forward_products`` forms each entry as it steps,
        and the pinned mask comes from the emission's largest value at each
        node.  Its tables are mixed only for the rows a caller asks for,
        and for the second set's few rows, which run on the table path.
        Every other run mixes the chunk's tables and runs ``_forward_cells``
        on them; they are then referenced from the sets alone, so a caller
        that drops the sets before the next chunk holds one chunk's tables
        at a time.  Both paths give the same bits.
        """
        a, b = self.a[pairs], self.b[pairs]
        if self.prior is None:
            total = a + b
            safe = np.where(total > 0, total, 1.0)
            start = np.where(total > 0, np.stack([b, a]) / safe, 0.5)
        else:
            start = np.repeat(self.prior.vector[:, None], a.size, axis=1)
        start = np.tile(start, ems.stop - ems.start)
        pair_cells = np.arange(pairs.start, pairs.stop) * self.n_em
        cells = np.add.outer(np.arange(ems.start, ems.stop), pair_cells).ravel()
        law = weights()
        if self.model == "single" and a.size >= _PRODUCT_PAIRS:
            pinned = self._pinned_products(law, ems)
            tables = functools.partial(self._row_tables, law, ems)
            forward = functools.partial(_forward_products, self.emission_nodes, ems, law)
        else:
            mats = _mix_nodes(self.emission_nodes, law, ems)
            m00, m01, m10, m11 = mats
            pinned = ~np.any(((m00 > 0) & (m10 > 0)) | ((m01 > 0) & (m11 > 0)), axis=0)
            tables = functools.partial(_columns, mats)
            forward = functools.partial(_forward_cells, *mats)
        log_w = np.zeros(start.shape[1])
        with np.errstate(divide="ignore"):
            log_w[pinned] = np.log(start[0, pinned])
            log_w_on = np.log(start[1, pinned])
        start[:, pinned] = [[1.0], [0.0]]
        sets = [(cells, tables, start, log_w + forward(self.inv, start), pinned)]
        if pinned.any():
            sub = tables(np.flatnonzero(pinned))
            start_on = np.tile([[0.0], [1.0]], log_w_on.size)
            loglik_on = log_w_on + _forward_cells(*sub, self.inv, start_on)
            on = np.ones(log_w_on.size, dtype=bool)
            sets.append((cells[pinned], functools.partial(_columns, sub), start_on, loglik_on, on))
        return sets

    def _pinned_products(self, weights, ems):
        """The pinned mask of a single-step chunk, with no table: a start
        state branches at some row iff both its entries fl(w E) are > 0
        there, and so iff they are at E = the largest emission value over
        the rows at its node, as fl(w E) is monotone in E."""
        top = self.emission_nodes[:, ems].max(axis=0)[:, :, None]  # (ems, node, 1)
        off = (weights[0, 0] * top[:, 0] > 0) & (weights[2, 0] * top[:, 0] > 0)
        on = (weights[1, 1] * top[:, 1] > 0) & (weights[3, 1] * top[:, 1] > 0)
        return ~(off | on).ravel()

    def _row_tables(self, weights, ems, rows):
        """The step tables of the chunk's rows ``rows``, ascending: mixed
        one emission cell at a time over those rows' pairs alone, with the
        bits of the chunk's tables, as an entry's bits depend on its own
        cell alone."""
        if not rows.size:
            return tuple(np.empty((len(self.distinct), 0)) for _ in range(4))
        cell, pair = np.divmod(rows, weights.shape[2])
        cell += ems.start
        bounds = np.flatnonzero(np.diff(cell)) + 1
        pieces = [
            _mix_nodes(self.emission_nodes, weights.take(p, axis=2), slice(c[0], c[0] + 1))
            for c, p in zip(np.split(cell, bounds), np.split(pair, bounds))
        ]
        return tuple(np.concatenate(ms, axis=1) for ms in zip(*pieces))

    def logliks(self, workers=1):
        """Every cell's log-likelihood, a (pair, emission cell) array.

        Each chunk writes its own cells, a pinned cell's two rows merged,
        on ``min(workers, chunks, CPUs)`` threads: no thread beyond the
        CPUs, where it only takes time from the others.  The threads take
        chunks from one generator as they go.  The executor starts threads
        on submit alone, so where one is left the calling thread takes them
        through the builtin ``map`` and none starts.  No set's tables are
        read, so a chunk on the product path builds none but those of its
        pinned cells' start-on rows.
        """
        out = np.empty((self.a.size, self.n_em))
        chunks, lock = self.chunks(), threading.Lock()

        def next_chunk():
            with lock:
                return next(chunks, None)

        def take(_):
            while chunk := next_chunk():
                pairs, ems, _ = chunk
                sets = self.row_sets(*chunk)
                acc, pinned = sets[0][3:]
                if len(sets) > 1:
                    acc[pinned] = np.logaddexp(acc[pinned], sets[1][3])
                out[pairs, ems] = acc.reshape(ems.stop - ems.start, -1).T
                del sets  # so that the next chunk's tables take this one's memory

        # built before any thread starts, as functools.cache has no lock
        _forward_kernel()
        threads = min(workers, sum(1 for _ in self.chunks()), os.cpu_count() or 1)
        with ThreadPoolExecutor(threads) as pool:
            list((map if threads == 1 else pool.map)(take, range(threads)))
        return out


def _columns(tables, cols):
    """The columns ``cols``, ascending, of four (D, rows) tables: the tables
    themselves where those are all of their columns."""
    if cols.size == tables[0].shape[1]:
        return tables
    return tuple(m.take(cols, axis=1) for m in tables)


def _once(make):
    """A function that returns ``make()``, computed once under a lock."""
    lock, value = threading.Lock(), []

    def get():
        with lock:
            if not value:
                value.append(make())
        return value[0]

    return get


def _off_powers(count, times):
    """``count``, less one while that leaves ``count * times`` a multiple of
    2048 and ``count`` above 1."""
    while count > 1 and count * times % 2048 == 0:
        count -= 1
    return count


def _cell_context(trace, model, switch, emissions, prior=None, quad=None, d=None):
    """The engine context of a grid of one parameter cell.

    ``switch`` is the model's (switch-on, switch-off) pair.
    """
    cell = {**dict(zip(_MODELS[model], switch)), "lambda": emissions.lam, "mu": emissions.mu}
    return _EngineContext(trace, model, GridSpec(axes=(), fixed=cell), prior, quad, d)


def _check_model_options(model, quad, d):
    """Reject an unknown model, a ``quad`` given to any model but ctmc, and
    a ``d`` given to any model but multistep."""
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}")
    if quad is not None and model != "ctmc":
        raise ValueError("quadrature spec applies only to the ctmc model")
    if d is not None and model != "multistep":
        raise ValueError("subinterval count d applies only to the multistep model")


def _check_levels(levels):
    """Reject a credible level outside the open interval (0, 1)."""
    if not all(0.0 < level < 1.0 for level in levels):
        raise ValueError("credible levels must be inside (0, 1)")


def _grid_context(trace, model, grid, prior, quad, d):
    """The engine context of ``grid`` under ``model``, checked for use.

    ``quad`` applies only to ctmc, where it defaults to QuadratureSpec()
    and must converge at the grid's corner, and ``d`` only to multistep.
    """
    _check_model_options(model, quad, d)
    if model == "ctmc" and quad is None:
        quad = _ctmc.QuadratureSpec()
    ctx = _EngineContext(trace, model, grid, prior, quad, d)
    if model == "ctmc":
        corner = SwitchRates(float(ctx.a.max()), float(ctx.b.max()))
        corner_em = EmissionRates(float(ctx.mu_flat.max()), float(ctx.lam_flat.max()))
        _ctmc.check_quadrature_convergence(corner, corner_em, quad, ctx.distinct)
    return ctx


def _mix_nodes(emission, weights, ems=slice(None)):
    """Step tables of every model: the emission (D, emission cell, node) at
    emission cells ``ems``, mixed over ``weights`` (4, node, pair).

    Runs the compiled ``mix`` kernel, which reads the emission cells in
    place and writes the four tables, in step-matrix order [end, start]:
    00, 01, 10, 11, into one (4, D, cells, pairs) array.  Each entry is
    sum_k weights[q, k, p] * emission[D, m, k], its first product rounded
    and every next one added by fma in the order of k, whatever the chunk
    or tile: so a table entry depends on its own cell alone.  Returns the
    four tables as contiguous (D, rows) views, emission cell-major.
    """
    depth, cells, nodes = emission.shape
    first, stop, _ = ems.indices(cells)
    pairs = weights.shape[2]
    out = np.empty((4, depth, stop - first, pairs))
    _forward_kernel().mix(depth, nodes, cells, first, stop - first, pairs, weights, emission, out)
    return tuple(out.reshape(4, depth, -1))


_LN2 = math.log(2.0)
# -ffp-contract=off keeps a * b + c from fusing into one rounding, which
# would move the results: mix fuses only where it calls fma.  No flag may
# flush subnormals to zero
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_SOURCES = ("_forward.c", "_repr.c")


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
    args = (cells, len(m00), m00, m01, m10, m11)
    return _run_forward(_forward_kernel().forward, args, inv, start, len(m00))


def _forward_products(emission, ems, weights, inv, start):
    """``_forward_cells`` of the single-step tables that ``_mix_nodes``
    would build from ``emission`` at emission cells ``ems`` and
    ``weights`` (4, 2, pairs), bit for bit, with no table built.

    A single-step entry is one weight times one emission value, so the
    ``forward_products`` kernel forms each as it steps: pair i's weights
    00 and 10 at node 0 and 01 and 11 at node 1, times the row's emission
    at that node, the one rounded product that ``mix`` writes.  ``start``
    is (2, pairs * emission cells), emission cell-major.
    """
    depth, width, nodes = emission.shape
    first, stop, _ = ems.indices(width)
    pairs = weights.shape[2]
    if nodes != 2 or weights.shape != (4, 2, pairs) or start.shape != (2, pairs * (stop - first)):
        raise ValueError("weights, emission and start vectors disagree in shape")
    if len(inv) and not 0 <= inv.min() <= inv.max() < depth:
        raise ValueError("an interval reads a row outside the emission table")
    singles = (weights[0, 0], weights[1, 1], weights[2, 0], weights[3, 1])
    args = (pairs, first, stop - first, depth, width, *singles, emission)
    return _run_forward(_forward_kernel().forward_products, args, inv, start, depth)


def _run_forward(kernel, args, inv, start, depth):
    """Runs a forward kernel on ``args`` and returns each cell's
    log-likelihood, e ln 2 + log(v0 + v1) of its end vector v and exponent
    count e."""
    cells = start.shape[1]
    end = np.empty((2, cells))
    exps = np.zeros(cells, dtype=np.int64)
    reach = np.empty(depth, dtype=np.int64)  # the kernel's scratch, one per table row
    kernel(len(inv), *args, inv, start, end, exps, reach)
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


class LibraryError(ImportError):
    """The compiled library could not be built or loaded."""


@functools.cache
def _forward_kernel():
    """The package's compiled library, built with gcc on first use from
    ``_forward.c`` and ``_repr.c``.

    Its ``mix`` kernel builds every model's step tables, its ``forward``
    kernel runs the grid engine's recursion, its ``smooth`` kernel the
    state smoother's forward-backward pass; its ``repr_doubles`` writes
    the floats of the posterior JSON and its ``repr_rows`` the rows of the
    state CSV.  So ``infer`` and ``infer-state`` need it (and gcc, or a
    cached build), while ``simulate`` and ``threshold`` never load it.

    It is built with ``-march=native`` where gcc accepts that, else
    without.  ``mix`` sums with explicit ``fma`` calls, each one IEEE
    operation that rounds once, so both builds give the same bits; but
    without ``-march=native`` the calls go to libm's software ``fma``,
    and mixing runs some 40 times slower.

    The library is cached in ``$XDG_CACHE_HOME/blinkinfer`` (by default
    ``~/.cache/blinkinfer``), or in a per-user temp directory where that is
    not writable.  Its name hashes the sources, the flags and the CPU, then
    the compiler version; with no gcc on PATH, a cached build of the same
    sources for this CPU is loaded.  Raises ``LibraryError`` where neither
    works.
    """
    sources = [Path(__file__).with_name(name) for name in _SOURCES]
    key = _digest(*(s.read_bytes() for s in sources), _CFLAGS, _cpu_model())
    cache = _cache_dir()
    gcc = shutil.which("gcc")
    if gcc is not None:
        version = subprocess.run([gcc, "--version"], capture_output=True, check=True)
        path = cache / f"forward-{key}-{_digest(version.stdout)}.so"
        if not path.exists():
            _compile(gcc, sources, path)
    else:
        built = sorted(cache.glob(f"forward-{key}-*.so"))
        if not built:
            raise LibraryError("the compiled library needs gcc, which is not on PATH")
        path = built[0]
    lib = ctypes.CDLL(str(path))
    types = (np.float64, np.int64, np.uint64, np.uint8)
    f8, i8, u8, u1 = (np.ctypeslib.ndpointer(t, flags="C") for t in types)
    c8 = ctypes.c_int64
    lib.mix.argtypes = [c8, c8, c8, c8, c8, c8, f8, f8, f8]
    lib.forward.argtypes = [c8, c8, c8, f8, f8, f8, f8, i8, f8, f8, i8, i8]
    lib.forward_products.argtypes = [c8] * 6 + [f8] * 5 + [i8, f8, f8, i8, i8]
    lib.smooth.argtypes = [c8, c8, c8, f8, f8, f8, f8, i8, f8, f8, f8, f8]
    lib.repr_doubles.argtypes = [c8, f8, c8, c8, u8, u8, u1]
    lib.repr_rows.argtypes = [c8, f8, c8, u8, u8, u1]
    lib.mix.restype = lib.forward.restype = lib.forward_products.restype = lib.smooth.restype = None
    lib.repr_doubles.restype = lib.repr_rows.restype = c8
    return lib


def _compile(gcc, sources, path):
    """Build ``sources`` into ``path`` under a temp name, then rename it."""
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        for flags in (_CFLAGS + ("-march=native",), _CFLAGS):
            cmd = [gcc, *flags, "-o", tmp, *map(str, sources), "-lm"]
            built = subprocess.run(cmd, capture_output=True, text=True)
            if built.returncode == 0:
                os.replace(tmp, path)
                return
        raise LibraryError(f"gcc could not build the compiled library:\n{built.stderr}")
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
    raise LibraryError("no writable cache directory for the compiled library")


def _cpu_model():
    """The CPU's model name and feature flags, which -march=native reads."""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        return sorted({ln for ln in f if ln.startswith(("model name", "flags"))})
    return platform.machine()


def _digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


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
    at the largest grid rates.  Results do not depend on ``workers``: the
    grid's chunks run on at most ``workers`` threads, one per chunk and per
    CPU at most, and on the calling thread alone where that leaves one.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if len(grid.axes) == 0:
        raise ValueError("grid has no free axes")
    probe = _grid_context(trace, model, grid, prior, quad, d)
    # fixed parameters hold one value each, so the flat (pair, emission)
    # order is the row-major order of the free axes
    log_post = probe.logliks(workers).reshape(grid.shape)
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
    marginals = {ax.name: _sum_down(post, (i,)) for i, ax in enumerate(grid.axes)}
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
    return _sum_down(posterior.post, [i for i, n in enumerate(names) if n in keep])


def _sum_down(post, keep):
    """``post`` summed over every axis not in ``keep``, normalised."""
    drop = tuple(i for i in range(post.ndim) if i not in keep)
    out = post.sum(axis=drop) if drop else post.copy()
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
    _check_levels(levels)
    flat = m.ravel()
    order = np.argsort(-flat, kind="stable")
    csum = np.cumsum(flat[order])
    regions = []
    for level in levels:
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
