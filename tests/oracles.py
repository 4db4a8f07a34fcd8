"""Independent reference computations shared by the test modules.

Everything here deliberately avoids the library's forward recursion: path
sums are enumerated, integrals are done with locally constructed quadrature
rules or replaced by a matrix exponential, the per-step recursion is plain
numpy, and the reference likelihood runs the paper's per-count tables
through ``scaled_chain_loglik``, so agreement with the package is a
two-route check.  The ``assert_*`` helpers hold the library's kernels to
these references.
"""

import itertools
import math

import numpy as np
from scipy.special import logsumexp
from scipy.stats import poisson

from blinkinfer import posterior
from blinkinfer.ctmc import count_state_prob_ctmc
from blinkinfer.kernels import (
    StatePrior,
    SwitchProbs,
    SwitchRates,
    scaled_chain_loglik,
)
from blinkinfer.multistep import (
    choose_subinterval_count,
    default_c_max,
    interval_distributions,
)
from blinkinfer.single_step import step_matrix_single


def path_sum_loglik(step_matrix_for_interval, n, prior_vec):
    """Log-likelihood by explicit enumeration over all boundary-state paths.

    ``step_matrix_for_interval(t)`` returns the 2x2 matrix (entry [end,
    start]) of interval t (1-based).  Exponential in n; keep n small.
    """
    mats = [np.asarray(step_matrix_for_interval(t), dtype=float) for t in range(1, n + 1)]
    with np.errstate(divide="ignore"):
        log_mats = [np.log(m) for m in mats]
        log_prior = np.log(np.asarray(prior_vec, dtype=float))
    n_paths = 1 << (n + 1)
    paths = (np.arange(n_paths)[:, None] >> np.arange(n + 1)[None, :]) & 1
    terms = log_prior[paths[:, 0]]
    for t in range(1, n + 1):
        terms = terms + log_mats[t - 1][paths[:, t], paths[:, t - 1]]
    return float(logsumexp(terms))


def reference_loglik(model, trace, switch, emissions, prior=None, d=None):
    """Log-likelihood by ``scaled_chain_loglik`` over per-count tables.

    The tables come from the paper's constructions, one count at a time:
    :func:`step_matrix_single` for "single", :func:`count_state_prob_ctmc`
    with the default quadrature for "ctmc", and
    :func:`interval_distributions` at :func:`default_c_max` for
    "multistep".  ``switch`` is the model's (switch-on, switch-off) pair.
    The prior defaults to the stationary one, uniform for a frozen chain,
    and ``d`` to the applicability rule.
    """
    a, b = switch
    counts = set(trace.counts.tolist())
    if model == "single":
        probs = SwitchProbs(a, b)
        stationary = StatePrior.stationary_from_probs(probs)
        table = {c: step_matrix_single(c, probs, emissions).entries for c in counts}
    else:
        rates = SwitchRates(a, b)
        stationary = StatePrior.stationary_from_rates(rates)
    if model == "ctmc":
        table = {
            c: [
                [count_state_prob_ctmc(c, s, e, rates, emissions) for s in (0, 1)]
                for e in (0, 1)
            ]
            for c in counts
        }
    elif model == "multistep":
        d = d or choose_subinterval_count(a, b)
        c_max = default_c_max(trace.max_count, emissions)
        # entry [end, start] at count c is probs[start, end, c]
        dist = interval_distributions(d, rates, emissions, c_max)
        table = dist.probs.transpose(2, 1, 0)
    mats = (np.asarray(table[c]) for c in trace.counts)
    return scaled_chain_loglik(mats, stationary if prior is None else prior)


def tensordot_mix(emission, weights):
    """Entries of sum_k weights[start, end, p, k] * emission[D, m, k].

    One ``np.tensordot`` over k, then a transpose: a reference for the
    engine's compiled ``mix`` kernel that sums in BLAS's order, not mix's
    fixed one, so the two agree to rounding.  Returns four (D, p, m) arrays
    in step-matrix order [end, start]: 00, 01, 10, 11.
    """
    joint = np.tensordot(emission, weights, axes=([2], [3]))
    joint = joint.transpose(0, 4, 1, 2, 3)  # (D, p, m, start, end)
    return joint[..., 0, 0], joint[..., 1, 0], joint[..., 0, 1], joint[..., 1, 1]


def gauss_legendre_integral(func, lo, hi, n=96):
    """Definite integral with a dedicated Gauss-Legendre rule on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(n)
    xm = lo + (hi - lo) * (x + 1.0) / 2.0
    wm = (hi - lo) * w / 2.0
    return float(np.dot(wm, func(xm)))


def substep_path_matrix(count, d, r_alpha, r_beta, mu, lam):
    """Step matrix (entry [end, start]) of the d-sub-step model by enumeration.

    Sums over all 2**d sub-step state sequences that follow the start state:
    the product of the sub-step switching probabilities along the sequence
    times the Poisson probability of ``count`` at rate mu + lam * k / d,
    where k is the number of sub-steps that start on.  The sequences are
    enumerated as rows of one array, and their products are added up per
    (end state, k) before the Poisson factor multiplies them.  ``count``
    may be an array; the result then has shape (2, 2) + count.shape.
    """
    p_on = -math.expm1(-r_alpha / d)
    p_off = -math.expm1(-r_beta / d)
    trans = np.array([[1.0 - p_on, p_on], [p_off, 1.0 - p_off]])  # [from, to]
    later = (np.arange(2**d)[:, None] >> np.arange(d)) & 1  # every sequence
    count = np.asarray(count)
    out = np.zeros((2, 2) + count.shape)
    for start in (0, 1):
        states = np.hstack([np.full((len(later), 1), start), later])
        weight = np.prod(trans[states[:, :-1], states[:, 1:]], axis=1)
        k = states[:, :-1].sum(axis=1)
        for end in (0, 1):
            for n in range(d + 1):
                w = weight[(states[:, -1] == end) & (k == n)].sum()
                out[end, start] += w * poisson.pmf(count, mu + lam * n / d)
    return out


def ctmc_expm_step_matrix(counts, r_alpha, r_beta, mu, lam):
    """Continuous-time step matrices by the matrix exponential.

    Exponentiates the generator Q of the Markov-modulated Poisson process
    on (count, state), states 2 * count + state, counts 0..max(counts).
    Mass leaving the largest count is dropped; counts only rise within an
    interval, so that changes no entry returned.  No Bessel function and no
    quadrature.  The exponential is summed by uniformisation,
    exp(Q) = sum_n Pois(n; L) P^n with P = I + Q / L and L the largest exit
    rate: every term is nonnegative, so every entry keeps its relative
    accuracy however far in the count tail, where ``scipy.linalg.expm`` is
    accurate only relative to the whole matrix.  The sum stops past the
    Poisson mode once its tail bound, Pois(n) (n + 1) / (n + 1 - L), is
    below 2^-60 of the least positive entry.  Returns shape
    (len(counts), 2, 2), entry [k, end, start].
    """
    counts = np.asarray(counts)
    k_max = int(counts.max())
    leave = (r_alpha, r_beta)
    emit = (mu, mu + lam)
    size = 2 * (k_max + 1)
    q = np.zeros((size, size))
    for c in range(k_max + 1):
        for s in (0, 1):
            i = 2 * c + s
            q[i, i] = -(leave[s] + emit[s])
            q[i, 2 * c + 1 - s] = leave[s]
            if c < k_max:
                q[i, i + 2] = emit[s]
    rate = max(-q.diagonal().min(), 1.0)
    if rate > 700.0:
        raise ValueError("exp(-rate) would underflow")
    jump = np.eye(size) + q / rate
    v = np.eye(size)[:2]  # rows of P^n from count 0, states off and on
    term = math.exp(-rate)
    rows = term * v
    for n in itertools.count(1):
        v = v @ jump
        term *= rate / n
        rows += term * v
        # every entry reachable at all is positive once n > k_max + 1
        if n > max(rate, k_max + 1):
            tail = term * (n + 1) / (n + 1 - rate)
            if tail <= 2.0**-60 * rows[rows > 0].min():
                break
    rows = rows.reshape(2, k_max + 1, 2)  # [start, count, end]
    return rows[:, counts, :].transpose(1, 2, 0)


def log_forward_backward_mats(log_mats, prior_vec):
    """Log-likelihood and on-state posteriors from log step matrices.

    ``log_mats[t, end, start]`` is the log step matrix of interval t + 1,
    for any model.  Runs the forward and backward passes in log space,
    combining terms with logsumexp, so no hidden path is lost to rescaling
    however far it falls behind.  ``prior_vec`` is (P(off), P(on)) at the
    start.  Returns (log-likelihood, p_on) with ``p_on[k-1]`` = P(on at
    boundary k | all counts), k = 1..N.
    """
    n = len(log_mats)
    with np.errstate(divide="ignore"):
        log_prior = np.log(np.asarray(prior_vec, dtype=float))
    fwd = np.empty((n + 1, 2))
    bwd = np.zeros((n + 1, 2))
    fwd[0] = log_prior
    for t in range(1, n + 1):
        fwd[t] = logsumexp(log_mats[t - 1] + fwd[t - 1][None, :], axis=1)
    for t in range(n, 0, -1):
        bwd[t - 1] = logsumexp(log_mats[t - 1] + bwd[t][:, None], axis=0)
    joint = fwd[1:] + bwd[1:]
    log_p = joint - logsumexp(joint, axis=1, keepdims=True)
    return float(logsumexp(fwd[n])), np.exp(log_p[:, 1])


def log_forward_backward(counts, alpha, beta, mu, lam, prior_vec):
    """Single-step :func:`log_forward_backward_mats`.

    The log step matrices are built here from scipy's Poisson log-pmf, the
    emission at the start state's rate.
    """
    counts = np.asarray(counts)
    with np.errstate(divide="ignore"):
        log_trans = np.log(np.array([[1.0 - alpha, alpha], [beta, 1.0 - beta]]))
    emit = np.stack(
        [poisson.logpmf(counts, mu), poisson.logpmf(counts, mu + lam)], axis=1
    )
    return log_forward_backward_mats(log_trans.T[None] + emit[:, None, :], prior_vec)


def per_step_forward(m00, m01, m10, m11, inv, start, prefixes=None):
    """Log-likelihood of every cell by a numpy recursion rescaled every step.

    Step k maps each cell's (off, on) vector v to M v with M's entries
    [end, start] read from row ``inv[k]`` of the four (D, cells) arrays,
    as ``m00 * v0 + m01 * v1`` and ``m10 * v0 + m11 * v1``.  The vector is
    then scaled with ``np.ldexp`` by the power of two, read from
    ``np.frexp`` of its sum, that brings the sum into [0.5, 1), and the
    exponents add up per cell.  With ``prefixes`` of shape (len(inv) + 1,
    2, cells), the scaled vector after every step is stored there, the
    start vector in row 0.  The library's compiled recursion must give
    these bits.
    """
    v = np.array(start, dtype=float)
    exps = np.zeros(v.shape[1], dtype=np.int64)
    if prefixes is not None:
        prefixes[0] = v
    for k, t in enumerate(inv, 1):
        x0 = m00[t] * v[0]
        x0 = x0 + m01[t] * v[1]
        x1 = m10[t] * v[0]
        x1 = x1 + m11[t] * v[1]
        _, shift = np.frexp(x0 + x1)
        exps += shift
        v = np.stack([np.ldexp(x0, -shift), np.ldexp(x1, -shift)])
        if prefixes is not None:
            prefixes[k] = v
    with np.errstate(divide="ignore"):
        return exps * math.log(2.0) + np.log(v[0] + v[1])


def assert_forward_matches(mats, inv, start):
    """Assert that the forward kernel's log-likelihoods and end vectors are
    the bits of :func:`per_step_forward`'s result and last prefix; returns
    the oracle's log-likelihoods."""
    prefixes = np.empty((len(inv) + 1, *start.shape))
    want = per_step_forward(*mats, inv, start, prefixes)
    np.testing.assert_array_equal(posterior._forward_cells(*mats, inv, start), want)
    end = np.empty_like(start)
    exps = np.zeros(start.shape[1], dtype=np.int64)
    reach = np.empty(len(mats[0]), dtype=np.int64)
    forward = posterior._forward_kernel().forward
    forward(len(inv), start.shape[1], len(mats[0]), *mats, inv, start, end, exps, reach)
    np.testing.assert_array_equal(end, prefixes[-1])
    return want


def per_step_smooth(m00, m01, m10, m11, inv, start, log_w):
    """Weighted mean over rows of P(on at boundary k), k = 1..len(inv).

    Forward prefixes f come from :func:`per_step_forward`, and backward
    vectors g from the same recursion on the transposed tables (m00, m10,
    m01, m11) over the reversed ``inv``, started at ones.  A row's
    probability is 1 where f0 = 0, on every row, and elsewhere g1 f1 /
    (g0 f0 + g1 f1), the sum floored at the least positive double; so a
    frozen row, whose prefix is one-hot, and a one-way row started in its
    absorbing on state keep their state where g has lost it.  Its weight is
    exp(log-likelihood + log_w - peak).  Every row runs, and the rows add
    up one at a time with ``np.cumsum``, heaviest first: a stable sort by
    decreasing weight, so equal weights keep row order.  The library's
    smoother, which stops once no lighter row can change a bit, must give
    these bits.
    """
    n, rows = len(inv), start.shape[1]
    fwd = np.empty((n + 1, 2, rows))
    loglik = log_w + per_step_forward(m00, m01, m10, m11, inv, start, fwd)
    bwd = np.empty((n + 1, 2, rows))
    per_step_forward(m00, m10, m01, m11, inv[::-1], np.ones((2, rows)), bwd)
    g = bwd[::-1]  # g[k] is the backward vector at boundary k
    x0 = g[1:, 0] * fwd[1:, 0]
    x1 = g[1:, 1] * fwd[1:, 1]
    x0 = np.maximum(x0 + x1, np.nextafter(0.0, 1.0))
    ratio = np.where(fwd[1:, 0] == 0.0, 1.0, x1 / x0)
    w = np.exp(loglik - loglik.max())
    order = np.argsort(-w, kind="stable")
    terms = (w * ratio)[:, order]
    return np.cumsum(terms, axis=1)[:, -1] / np.cumsum(w[order])[-1]


def engine_rows(ctx):
    """Every row that ``ctx.row_sets`` gives over the chunks of ``ctx``, in
    the grid's flat cell order, the start-on rows of pinned cells last: the
    four (D, rows) tables, asked of each set for all its rows, the (2,
    rows) starts, the log-likelihoods and the pinned masks."""
    keyed = []
    for chunk in ctx.chunks():
        sets = ctx.row_sets(*chunk)
        keyed += [
            (cells + i * ctx.a.size * ctx.n_em, tables(np.arange(cells.size)), *rest)
            for i, (cells, tables, *rest) in enumerate(sets)
        ]
    order = np.argsort(np.concatenate([c[0] for c in keyed]))
    mats = tuple(
        np.concatenate(ms, axis=1).take(order, axis=1) for ms in zip(*(c[1] for c in keyed))
    )
    start, loglik, pinned = (
        np.concatenate([c[i] for c in keyed], axis=-1).take(order, axis=-1) for i in (2, 3, 4)
    )
    return mats, start, loglik, pinned


def assert_heaviest_prefix(weight, start, sent_weight, sent_start, num):
    """Assert the smoother's stop rule on what its kernel was sent.

    ``weight`` and ``start`` are every row's weight and (2, rows) start
    vectors, and ``sent_weight`` and ``sent_start`` what the kernel
    received, in call order.  The kernel must receive a prefix of the rows
    of nonzero weight in stable decreasing-weight order, and every such row
    it did not receive must weigh w with 2 w < spacing(num[k]) at every k,
    where ``num`` holds the final numerators.
    """
    order = np.argsort(-weight, kind="stable")[: np.count_nonzero(weight)]
    sent = sent_weight.size
    assert sent <= order.size
    np.testing.assert_array_equal(sent_weight, weight[order[:sent]])
    np.testing.assert_array_equal(sent_start, start[:, order[:sent]])
    if sent < order.size:
        assert 2.0 * weight[order[sent]] < np.spacing(num).min()
