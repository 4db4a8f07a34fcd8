"""Posterior probability of the hidden state at each interval boundary.

Zeroing one row of an interval matrix restricts the matrix-product
likelihood to paths passing through that state, so the ratio of a masked
product to the full product is the state's posterior probability given the
whole trace.  Computed for every position by a checkpointed forward-backward
pass over the grid engine's forward recursion.  The forward pass keeps the
state vectors only at the boundaries of trace segments (the checkpoints)
and gives each row's likelihood.  The backward pass walks the segments from
last to first: it recomputes one segment's prefix vectors from its
checkpoint into a buffer of fixed size (~64 MB), then rolls the suffix
vectors back over them.  Prefix and suffix vectors are both rescaled by a
power of two at every step, so the recomputed prefixes are bitwise those
of one unbroken pass.  The scale factors of the two passes are common to
both states at a position, so they cancel in the ratio and never need
exponentiating.

Exposed for the single-step model; with parameters unknown the masked
products are averaged over a parameter grid weighted by each cell's
likelihood (flat priors).  A cell whose chain never mixes is split into
two start-pinned rows, as in the grid engine, so that no hidden path is
lost to the rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import posterior as _posterior
from .kernels import CountTrace, EmissionRates, StatePrior, SwitchProbs
from .posterior import GridSpec, _EngineContext
from .single_step import StepMatrix

__all__ = [
    "StatePosterior",
    "masked_matrices",
    "state_posterior_known",
    "state_posterior_marginal",
]

# Prefix vectors one chunk of rows may store in the backward pass, (steps
# + 1) x rows: 64 MB of (off, on) pairs.
_PREFIX_BUDGET = 4_000_000
# Rows per chunk, which bounds the checkpoints a chunk keeps
_ROW_CHUNK = 16384
_LEAST_POSITIVE = np.nextafter(0.0, 1.0)


@dataclass(frozen=True)
class StatePosterior:
    """Per-position on-state probabilities given the entire trace.

    ``p_on[k-1]`` is P(state at boundary k = on | all counts) for
    k = 1..N; boundary k is the end of interval k.  ``context`` records the
    model and parameters (or grid) used.
    """

    p_on: np.ndarray
    model: str = "single"
    context: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.p_on.size)


def masked_matrices(step: StepMatrix) -> tuple[StepMatrix, StepMatrix]:
    """Split an interval matrix by the end state.

    Returns (kept end state 0, kept end state 1); the two masked matrices
    sum back to the original, and inserting one of them into the matrix
    product restricts the path sum to histories with that end state at the
    masked position.
    """
    m0 = step.entries.copy()
    m1 = step.entries.copy()
    m0[1, :] = 0.0
    m1[0, :] = 0.0
    return (
        StepMatrix(m0, log_scale=step.log_scale),
        StepMatrix(m1, log_scale=step.log_scale),
    )


def state_posterior_known(
    trace: CountTrace,
    probs: SwitchProbs,
    emissions: EmissionRates,
    prior: StatePrior | None = None,
) -> StatePosterior:
    """State posterior with all four parameters known.

    The smoother of :func:`state_posterior_marginal` on a grid of one cell.
    """
    if probs.d != 1:
        raise ValueError("single-step model requires d = 1")
    if prior is None:
        prior = StatePrior.stationary_from_probs(probs)
    cell = {"alpha": probs.alpha, "beta": probs.beta, "lambda": emissions.lam}
    cell["mu"] = emissions.mu
    return StatePosterior(
        p_on=_smooth(trace, GridSpec(axes=(), fixed=cell), prior),
        model="single",
        context={"probs": probs, "emissions": emissions, "prior": prior},
    )


def state_posterior_marginal(
    trace: CountTrace,
    grid: GridSpec,
    prior: StatePrior | None = None,
) -> StatePosterior:
    """State posterior with unknown parameters marginalised over a grid.

    Averages each grid cell's masked-product numerators with weights
    proportional to the cell's likelihood (flat priors on the box), the
    grid realisation of integrating the parameters out.  Only the
    single-step model is supported.
    """
    return StatePosterior(
        p_on=_smooth(trace, grid, prior),
        model="single",
        context={"grid": grid, "prior": prior},
    )


def _smooth(trace, grid, prior):
    """On-probability at every boundary, averaged over the grid's start rows.

    Rows go in chunks of ``_ROW_CHUNK``, and the trace in segments of as
    many steps as keep a segment's prefixes within ``_PREFIX_BUDGET``
    vectors (~64 MB) for the chunk's width.  A first forward pass keeps
    each row's vector only at the segment boundaries and gives its log
    weight; a backward pass recomputes one segment's prefixes at a time
    from its checkpoint and rolls the suffix vectors over them for the
    row's numerators.  A running peak of the log weights combines the
    chunks.  A start-pinned row follows one hidden path, so its prefixes
    alone give its state; its suffix vectors stay at ones, since rolled
    back they could underflow on that path.
    """
    ctx = _EngineContext(trace, "single", grid, prior, None, None)
    n = len(trace)
    a, b = ctx.pair_params(0, ctx.n_pairs())
    mats = ctx.tables(a, b)
    start, log_w, pinned, log_w_on = ctx.start_rows(a, b, mats)
    is_pinned = np.zeros(log_w.size, dtype=bool)
    is_pinned[pinned] = True
    row_sets = [(mats, start, log_w, is_pinned)]
    if pinned.size:
        pinned_mats = tuple(m[:, pinned] for m in mats)
        start_on = np.tile([[0.0], [1.0]], pinned.size)
        all_pinned = np.ones(pinned.size, dtype=bool)
        row_sets.append((pinned_mats, start_on, log_w_on, all_pinned))

    chunk = _ROW_CHUNK
    cells = min(chunk, log_w.size)
    seg = max(1, _PREFIX_BUDGET // cells - 1)
    bounds = [*range(0, n, seg), n]
    fwd = np.empty((bounds[1] + 1, 2, cells))
    peak, sum_w, sum_w_pon = -np.inf, 0.0, np.zeros(n)
    for tables, starts, weights, split in row_sets:
        for lo in range(0, weights.size, chunk):
            sl = slice(lo, lo + chunk)
            sub = tuple(np.ascontiguousarray(m[:, sl]) for m in tables)
            first = np.ascontiguousarray(starts[:, sl])
            prefixes = fwd[:, :, : weights[sl].size]
            loglik, marks = _forward_marks(sub, ctx.inv, first, bounds, prefixes)
            loglik += weights[sl]
            top = loglik.max()
            if top == -np.inf:
                continue
            if top > peak:
                rescale = np.exp(peak - top)
                sum_w *= rescale
                sum_w_pon *= rescale
                peak = top
            w_row = np.exp(loglik - peak)
            _accumulate_backward(
                sub, ctx.inv, bounds, marks, prefixes, w_row, split[sl], sum_w_pon
            )
            # the numerators' own dot, so that rounding keeps p_on <= 1
            sum_w += float(np.dot(w_row, np.ones(w_row.size)))
    if sum_w == 0.0:
        raise ValueError("trace has zero probability everywhere on the grid")
    return sum_w_pon / sum_w


def _forward_marks(mats, inv, start, bounds, prefixes):
    """Log-likelihood of every row and its checkpoints, in one forward pass.

    Runs the recursion one segment ``bounds[j]..bounds[j+1]`` at a time
    from the scaled end vector of the segment before, and returns that
    start vector of every segment but the last as ``marks[j]``.  The last
    segment's prefixes go into ``prefixes``.  The segments' exponents add
    up exactly, so the log-likelihood is bitwise that of ``_forward_cells``.
    """
    n = len(inv)
    marks = np.empty((len(bounds) - 2, 2, start.shape[1]))
    exps = np.zeros(start.shape[1], dtype=np.int64)
    v = start
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        part = prefixes[: hi - lo + 1] if hi == n else None
        if part is None:
            marks[j] = v
        v, seg_exps = _posterior._forward_run(*mats, inv[lo:hi], v, part)
        exps += seg_exps
    with np.errstate(divide="ignore"):
        return exps * _posterior._LN2 + np.log(v[0] + v[1]), marks


def _accumulate_backward(mats, inv, bounds, marks, prefixes, w_row, pinned, sum_w_pon):
    """Add each row's weighted P(on at boundary k) into ``sum_w_pon[k-1]``.

    Walks the segments from last to first.  ``prefixes`` holds the last
    segment's prefix vectors from the forward pass; every earlier segment's
    are recomputed there from its checkpoint in ``marks``, bitwise as the
    forward pass had them.  The suffix vectors roll back from the end
    across the segments, rescaled by powers of two as in the forward pass;
    ``pinned`` rows keep theirs at ones.
    """
    m00, m01, m10, m11 = mats
    fixed = np.flatnonzero(pinned)
    g0, g1 = np.ones((2, w_row.size))
    num0, num1, tmp = np.empty((3, w_row.size))
    ex = np.empty(w_row.size, dtype=np.intc)
    for j in range(len(bounds) - 2, -1, -1):
        lo, hi = bounds[j], bounds[j + 1]
        rows = prefixes[: hi - lo + 1]
        if j < len(marks):
            _posterior._forward_run(*mats, inv[lo:hi], marks[j], rows)
        for k in range(hi - lo, 0, -1):
            np.multiply(g0, rows[k, 0], out=num0)
            np.multiply(g1, rows[k, 1], out=num1)
            num0 += num1
            # num1 <= num0, so this floor turns 0/0 into 0 and changes nothing else
            np.maximum(num0, _LEAST_POSITIVE, out=num0)
            sum_w_pon[lo + k - 1] += np.dot(w_row, np.divide(num1, num0, out=num1))
            t = inv[lo + k - 1]
            np.multiply(g0, m00[t], out=num0)
            num0 += np.multiply(g1, m10[t], out=tmp)
            np.multiply(g0, m01[t], out=num1)
            num1 += np.multiply(g1, m11[t], out=tmp)
            np.frexp(np.add(num0, num1, out=tmp), out=(tmp, ex))
            np.negative(ex, out=ex)
            np.ldexp(num0, ex, out=g0)
            np.ldexp(num1, ex, out=g1)
            g0[fixed] = g1[fixed] = 1.0
