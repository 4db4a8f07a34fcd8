"""Checks of each workload's output against reference.py and the truth.

Each check returns a list of problems; an empty list means the output is
correct.  Nothing is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import json

import numpy as np

import reference as ref
from workloads import (
    WORKLOADS,
    axis_values,
    grid_shape,
    params_of,
    true_index,
)

SAMPLED_CELLS = 24  # random cells checked on top of the corners and the truth

# Tolerances on a log-likelihood.  Both routes round once per interval, at
# the magnitude of the running total, so the absolute part scales with N.
REL_TOL = 1e-9
ABS_TOL_PER_STEP = 1e-10
# ctmc: evaluate_grid refuses a quadrature whose refinement moves any step
# probability by more than 1e-9; take that as the error budget of each step.
CTMC_TOL_PER_STEP = 1e-9
P_ON_TOL = 1e-7


def check_outputs(name, seed, inputs, work, res) -> list[str]:
    problems = []
    if len(set(res["digests"])) > 1:
        problems.append("repeated calls gave different outputs")
    if not res["digests"]:
        return problems
    wl = WORKLOADS[name]
    counts = inputs["counts"]
    if name == "ctmc_cli":
        problems += _check_ctmc_json(wl, seed, counts, work / "posterior.json")
    elif name == "state_marg":
        problems += _check_states(wl, inputs, work / "states.csv")
    else:
        log_post = np.load(work / "log_post.npy")
        post = np.load(work / "post.npy")
        problems += _check_cells(wl, seed, counts, log_post)
        if abs(post.sum() - 1.0) > 1e-12 * post.size:
            problems.append(f"posterior sums to {post.sum()!r}")
        if name == "single_marg":
            problems += _check_truth_in_hpd(wl, np.exp(log_post - log_post.max()))
    return problems


def sample_cells(wl, seed) -> list[tuple[int, ...]]:
    """Every grid corner, the cell nearest the truth and seeded random cells."""
    shape = grid_shape(wl)
    corners = np.stack(np.meshgrid(*[[0, n - 1] for n in shape], indexing="ij"), -1)
    cells = {tuple(int(i) for i in c) for c in corners.reshape(-1, len(shape))}
    cells.add(true_index(wl))
    rng = np.random.default_rng([int(seed), 99])
    flat = rng.choice(int(np.prod(shape)), size=SAMPLED_CELLS, replace=False)
    cells.update(tuple(int(i) for i in np.unravel_index(f, shape)) for f in flat)
    return sorted(cells)


def reference_loglik(wl, counts, cells) -> np.ndarray:
    """Reference log-likelihood of each cell (a tuple of grid indices)."""
    values = params_of(wl)
    names = [ax[0] for ax in wl["axes"]]
    free = {n: np.array([values[n][c[i]] for c in cells]) for i, n in enumerate(names)}
    p = {n: free.get(n, np.full(len(cells), float(values[n][0])))
         for n in values}
    distinct, idx = np.unique(counts, return_inverse=True)
    if wl["model"] == "single":
        a, b = p["alpha"], p["beta"]
        logm = ref.single_step_logm(distinct, a, b, p["lambda"], p["mu"])
    else:
        a, b = p["r_alpha"], p["r_beta"]
        build = ref.ctmc_logm if wl["model"] == "ctmc" else ref.multistep_logm
        extra = () if wl["model"] == "ctmc" else (wl["d"],)
        logm = build(distinct, a, b, p["lambda"], p["mu"], *extra)
    return ref.forward_loglik(logm, idx, ref.stationary_log_prior(a, b))


def compare_loglik(got, want, per_step, n) -> list[str]:
    problems = []
    if not np.array_equal(np.isfinite(got), np.isfinite(want)):
        problems.append(f"-inf pattern differs: got {got.tolist()} want {want.tolist()}")
        return problems
    fin = np.isfinite(want)
    err = np.abs(got[fin] - want[fin])
    tol = REL_TOL * np.abs(want[fin]) + per_step * n
    if np.any(err > tol):
        worst = int(np.argmax(err - tol))
        problems.append(f"log-likelihood off by {err[worst]:.3e} (tolerance "
                        f"{tol[worst]:.3e}) at reference {want[fin][worst]!r}")
    return problems


def _check_cells(wl, seed, counts, log_post) -> list[str]:
    cells = sample_cells(wl, seed)
    got = np.array([log_post[c] for c in cells])
    want = reference_loglik(wl, counts, cells)
    per_step = CTMC_TOL_PER_STEP if wl["model"] == "ctmc" else ABS_TOL_PER_STEP
    return compare_loglik(got, want, per_step, counts.size)


def _switch_marginal(wl, weights) -> np.ndarray:
    m = weights.sum(axis=tuple(range(2, weights.ndim)))
    return m / m.sum()


def _check_truth_in_hpd(wl, weights) -> list[str]:
    mask = ref.hpd_mask(_switch_marginal(wl, weights), 0.99)
    if not mask[true_index(wl)[:2]]:
        return ["truth outside the 99% HPD region"]
    return []


def _check_ctmc_json(wl, seed, counts, path) -> list[str]:
    with open(path) as fh:
        doc = json.load(fh)
    shape = grid_shape(wl)
    problems = []
    names = [ax["name"] for ax in doc["axes"]]
    if names != [ax[0] for ax in wl["axes"]]:
        return [f"posterior axes {names}"]
    for ax, spec in zip(doc["axes"], wl["axes"]):
        if not np.array_equal(ax["values"], axis_values(spec)):
            problems.append(f"axis {ax['name']} values differ from the grid")
    lp = np.asarray(doc["log_posterior"], dtype=float)
    if lp.size != int(np.prod(shape)):
        return problems + [f"{lp.size} log_posterior values for {int(np.prod(shape))} cells"]
    lp = lp.reshape(shape)
    problems += _check_cells(wl, seed, counts, lp)
    top = tuple(int(i) for i in np.unravel_index(np.argmax(lp), shape))
    if tuple(doc["mode_index"]) != top:
        problems.append(f"mode_index {doc['mode_index']} is not the argmax {list(top)}")
    marginal = _switch_marginal(wl, np.exp(lp - lp.max()))
    stored = np.asarray(doc["switch_marginal"]["values"]).reshape(marginal.shape)
    if not np.allclose(stored, marginal, rtol=1e-9, atol=1e-15):
        problems.append("switch_marginal differs from the sum of the posterior")
    problems += _check_truth_in_hpd(wl, np.exp(lp - lp.max()))
    hpd = {h["level"]: h for h in doc["hpd"]}
    mask = ref.hpd_mask(marginal, 0.99)
    if abs(hpd[0.99]["contained_mass"] - marginal[mask].sum()) > 1e-9:
        problems.append("99% HPD contained mass differs from the reference region")
    return problems


def _check_states(wl, inputs, path) -> list[str]:
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    counts, states = inputs["counts"], inputs["states"]
    n = counts.size
    problems = []
    if rows.shape != (n, 2) or not np.array_equal(rows[:, 0], np.arange(1, n + 1)):
        return [f"state CSV has shape {rows.shape}, expected ({n}, 2) with t = 1..{n}"]
    p_on = rows[:, 1]
    if np.any((p_on < 0.0) | (p_on > 1.0)):
        problems.append("p_on outside [0, 1]")
    values = params_of(wl)
    a = np.repeat(values["alpha"], values["beta"].size)
    b = np.tile(values["beta"], values["alpha"].size)
    lam = np.full(a.size, float(values["lambda"][0]))
    mu = np.full(a.size, float(values["mu"][0]))
    distinct, idx = np.unique(counts, return_inverse=True)
    logm = ref.single_step_logm(distinct, a, b, lam, mu)
    want = ref.smoothed_p_on(logm, idx, ref.stationary_log_prior(a, b))
    err = float(np.max(np.abs(p_on - want)))
    if err > P_ON_TOL:
        problems.append(f"p_on differs from the reference smoother by {err:.3e}")
    # p_on[k-1] is the state at boundary k, which sets the count of interval
    # k+1; compare on the boundaries both methods see, k = 1..N-1
    truth = states[1:n]
    smoother_acc = np.mean((p_on[: n - 1] > 0.5) == truth)
    cut = wl["truth"]["mu"] + wl["truth"]["lambda"] / 2.0
    threshold_acc = np.mean((counts[1:] > cut) == truth)
    if smoother_acc < threshold_acc:
        problems.append(f"smoother accuracy {smoother_acc:.4f} below the midpoint "
                        f"threshold's {threshold_acc:.4f}")
    return problems
