"""One workload in a fresh process; started by run.py, never imported.

``probe CSV`` imports the package, loads the trace and prints the
monotonic clock: the parent subtracts its own reading taken just before
the start, which gives the set-up time.

``run`` does the same set-up, then repeats rounds of (calibration kernel,
inference call, fault probe) until ``--seconds`` have passed, and writes
``result.json`` into ``--work``: per-call wall and CPU times with the
kernel's time before each, the peak resident set, a digest of every call's
output, and (with ``--trace 1``) the per-layer metrics.  The first call's
output stays in ``--work`` for the parent's checks.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import blinkinfer.cli as bcli  # noqa: E402  (set-up starts here)


if __name__ == "__main__" and sys.argv[1] == "probe":
    bcli.read_trace_csv(sys.argv[2])
    print(repr(time.monotonic()))
    sys.exit(0)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import blinkinfer  # noqa: E402
import blinkinfer.ctmc as bctmc  # noqa: E402
import blinkinfer.multistep as bmulti  # noqa: E402
import blinkinfer.posterior as bpost  # noqa: E402
import blinkinfer.single_step as bsingle  # noqa: E402
import blinkinfer.state_inference as bstate  # noqa: E402
from blinkinfer import kernels as bkern  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
from calibrate import Calibration  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    FAULT_PROBE,
    WORKLOADS,
    fault_probe_counts,
    grid_shape,
    params_of,
    switch_names,
)

LEVELS = (0.5, 0.9, 0.99)

# Public functions wrapped in spans during the traced call, as
# (module, attribute the package calls through, span name).
TRACED = [
    (bcli, "read_trace_csv", "cli.read_trace_csv"),
    (bcli, "evaluate_grid", "posterior.evaluate_grid"),
    (bcli, "write_posterior_json", "cli.write_posterior_json"),
    (bcli, "write_state_csv", "cli.write_state_csv"),
    (bcli, "credible_regions", "posterior.credible_regions"),
    (bcli, "state_posterior_marginal", "state_inference.state_posterior_marginal"),
    (bpost, "evaluate_grid", "posterior.evaluate_grid"),
    (bpost, "poisson_pmf", "kernels.poisson_pmf"),
    (bctmc, "check_quadrature_convergence", "ctmc.check_quadrature_convergence"),
    (bctmc, "count_state_prob_ctmc", "ctmc.count_state_prob_ctmc"),
    (bmulti, "interval_distributions", "multistep.interval_distributions"),
    (bmulti, "base_distributions", "multistep.base_distributions"),
    (bmulti, "convolve_halving", "multistep.convolve_halving"),
]


def grid_of(wl):
    axes = tuple(bpost.GridAxis(*ax) for ax in wl["axes"])
    return bpost.GridSpec(axes=axes, fixed=dict(wl["fixed"]))


def grid_args(wl):
    out = []
    for name, lo, hi, n in wl["axes"]:
        out += ["--grid", f"{name}={lo!r}:{hi!r}:{n}"]
    for name, value in wl["fixed"].items():
        out += ["--fix", f"{name}={value!r}"]
    return out


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    """The inference call of one workload, on inputs already loaded."""

    def __init__(self, name, csv_path, trace, work):
        self.name = name
        self.wl = WORKLOADS[name]
        self.csv = csv_path
        self.trace = trace
        self.work = work
        self.posterior = None

    def call(self):
        """Run the inference once; return a digest of its output."""
        wl = self.wl
        if self.name == "ctmc_cli":
            out = os.path.join(self.work, "posterior.json")
            argv = ["infer", "--in", self.csv, "--model", "ctmc", *grid_args(wl),
                    "--workers", str(wl["workers"]), "--out", out]
            if bcli.main(argv) != 0:
                raise RuntimeError("blinkinfer infer failed")
            return _file_digest(out)
        if self.name == "state_marg":
            out = os.path.join(self.work, "states.csv")
            argv = ["infer-state", "--in", self.csv, "--model", "single",
                    *grid_args(wl), "--out", out]
            if bcli.main(argv) != 0:
                raise RuntimeError("blinkinfer infer-state failed")
            return _file_digest(out)
        post = bpost.evaluate_grid(self.trace, wl["model"], grid_of(wl), d=wl["d"],
                                   workers=wl["workers"])
        self.posterior = post
        return _digest(post.log_post, post.post)

    def save_first(self):
        if self.posterior is not None:
            np.save(os.path.join(self.work, "log_post.npy"), self.posterior.log_post)
            np.save(os.path.join(self.work, "post.npy"), self.posterior.post)


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def fault_probe() -> bool:
    """Whether the package gets the fixed FAULT_PROBE input right."""
    counts = fault_probe_counts()
    post = bpost.evaluate_grid(blinkinfer.CountTrace(counts), "single", grid_of(FAULT_PROBE))
    cells = [(i, j) for i in range(2) for j in range(2)]
    got = np.array([post.log_post[c] for c in cells])
    want = checks.reference_loglik(FAULT_PROBE, counts, cells)
    return not checks.compare_loglik(got, want, checks.ABS_TOL_PER_STEP, counts.size)


def timed_calls(work, seconds):
    """Repeat rounds until ``seconds`` have passed; at least one round.

    A round is the calibration kernel, one timed inference call, and the
    untimed fault probe.
    """
    rec = {"wall_s": [], "cpu_s": [], "kernel_s": [], "digests": [], "errors": [],
           "probe_failed": 0}
    cal = Calibration()
    deadline = time.perf_counter() + seconds
    while True:
        kernel_s = cal.seconds()
        c0, w0 = _cpu_seconds(), time.perf_counter()
        try:
            digest = work.call()
        except Exception:  # counted as a failed operation, and reported
            rec["errors"].append(traceback.format_exc(limit=4))
            digest = None
        w1, c1 = time.perf_counter(), _cpu_seconds()
        if digest is not None:
            rec["wall_s"].append(w1 - w0)
            rec["cpu_s"].append(c1 - c0)
            rec["kernel_s"].append(kernel_s)
            rec["digests"].append(digest)
            if len(rec["digests"]) == 1:
                work.save_first()
        rec["probe_failed"] += not fault_probe()
        if w1 >= deadline:
            return rec


def _median_time(tracer, name, fn, repeat):
    result = None
    times = []
    for _ in range(repeat):
        with tracer.span(name) as s:
            result = fn()
        times.append(s[4] - s[3])
    return statistics.median(times), result


def _home(name, csv_dir):
    """A workload and its trace, for metrics always taken on that workload."""
    return WORKLOADS[name], bcli.read_trace_csv(os.path.join(csv_dir, f"{name}.csv"))


def _truth_probs(wl):
    t = wl["truth"]
    return bkern.SwitchProbs(t["alpha"], t["beta"], 1), bkern.EmissionRates(t["mu"], t["lambda"])


def _truth_rates(wl):
    t = wl["truth"]
    return bkern.SwitchRates(t["r_alpha"], t["r_beta"]), bkern.EmissionRates(t["mu"], t["lambda"])


def _emission_cells(wl):
    """(lambda, mu) of every emission cell, flattened as the engine does."""
    vals = params_of(wl)
    lam, mu = np.meshgrid(vals["lambda"], vals["mu"], indexing="ij")
    return lam.ravel(), mu.ravel()


def layer_metrics(work, untraced_s, csv_dir, tracer, verdicts):
    """Per-layer metrics; each timing is a span recorded by ``tracer``.

    ``verdicts`` receives the traced run's own checks, each True or False.
    """
    m = {}
    own = work.wl
    n = len(work.trace)
    cells = int(np.prod(grid_shape(own)))

    # -- the workload's own call, with the package's public calls wrapped
    for module, attr, span_name in TRACED:
        tracer.patch(module, attr, span_name)
    try:
        with tracer.span(f"workload.{work.name}") as s:
            digest = work.call()
    finally:
        tracer.unpatch()
    traced_s = s[4] - s[3]
    verdicts["traced_digest_matches"] = digest == verdicts["first_digest"]
    m["trace.overhead_ms"] = (traced_s - untraced_s) * 1e3
    inner = tracer.durations("posterior.evaluate_grid")

    # -- kernels: Poisson tables over distinct counts x emission cells
    distinct = np.unique(work.trace.counts).astype(float)
    lam, mu = _emission_cells(own)
    if own["model"] == "ctmc":
        x, _ = bctmc.QuadratureSpec().nodes_weights()
        rate = mu[:, None] + lam[:, None] * x[None, :]

        def table():
            return bkern.poisson_pmf(rate[None], distinct[:, None, None])
        nodes = x.size + 2  # the engine also keeps the off and on tables
    else:
        def table():
            return (bkern.poisson_pmf(mu[None, :], distinct[:, None]),
                    bkern.poisson_pmf((mu + lam)[None, :], distinct[:, None]))
        nodes = 2
    t, _ = _median_time(tracer, "kernels.poisson_pmf[table]", table, 5)
    m["kernels.poisson_table_ms"] = t * 1e3
    m["posterior.emission_table_mb"] = distinct.size * lam.size * nodes * 8 / 1e6

    # -- scalar paths at the true cell of their home workload
    wl, trace = _home("single_marg", csv_dir)
    probs, em = _truth_probs(wl)
    mats = {int(c): bsingle.step_matrix_single(int(c), probs, em).entries
            for c in np.unique(trace.counts)}
    prior = bkern.StatePrior.stationary_from_probs(probs)
    t, _ = _median_time(tracer, "kernels.scaled_chain_loglik", lambda: bkern.scaled_chain_loglik(
        (mats[int(c)] for c in trace.counts), prior), 3)
    m["kernels.chain_ns_per_step"] = t / len(trace) * 1e9
    t, _ = _median_time(tracer, "single_step.trace_loglik_single",
                        lambda: bsingle.trace_loglik_single(trace, probs, em), 3)
    m["single_step.trace_loglik_ms"] = t * 1e3

    wl, trace = _home("ctmc_cli", csv_dir)
    rates, em = _truth_rates(wl)
    t, _ = _median_time(tracer, "ctmc.trace_loglik_ctmc",
                        lambda: bctmc.trace_loglik_ctmc(trace, rates, em), 3)
    m["ctmc.trace_loglik_ms"] = t * 1e3
    # the grid corner, largest rates and emissions, as evaluate_grid checks it
    p = params_of(wl)
    corner = bkern.SwitchRates(p["r_alpha"].max(), p["r_beta"].max())
    corner_em = bkern.EmissionRates(p["mu"].max(), p["lambda"].max())
    t, _ = _median_time(tracer, "ctmc.check_quadrature_convergence",
                        lambda: bctmc.check_quadrature_convergence(
                            corner, corner_em, bctmc.QuadratureSpec(),
                            np.unique(trace.counts), tol=1e-9), 3)
    m["ctmc.quad_check_ms"] = t * 1e3

    # one and two workers on the ctmc_cli grid; bitwise equal by contract
    grid = grid_of(wl)
    t1, p1 = _median_time(tracer, "posterior.evaluate_grid[1 worker]",
                          lambda: bpost.evaluate_grid(trace, "ctmc", grid, workers=1), 1)
    t2, p2 = _median_time(tracer, "posterior.evaluate_grid[2 workers]",
                          lambda: bpost.evaluate_grid(trace, "ctmc", grid, workers=2), 1)
    m["posterior.workers2_speedup"] = t1 / t2
    verdicts["workers_bitwise_equal"] = bool(
        np.array_equal(p1.log_post, p2.log_post) and np.array_equal(p1.post, p2.post))

    wl, trace = _home("multistep_free", csv_dir)
    rates, em = _truth_rates(wl)
    d = wl["d"]
    t, _ = _median_time(tracer, "multistep.trace_loglik_multistep",
                        lambda: bmulti.trace_loglik_multistep(trace, rates, em, d=d), 3)
    m["multistep.trace_loglik_ms"] = t * 1e3
    lam_m, mu_m = _emission_cells(wl)
    ax = params_of(wl)
    c_max = bmulti.default_c_max(trace.max_count,
                                 bkern.EmissionRates(float(mu_m.max()), float(lam_m.max())))
    sample = [(ra, rb, lm, mm) for ra in ax["r_alpha"][::3] for rb in ax["r_beta"][::3]
              for lm, mm in zip(lam_m[::9], mu_m[::9])]

    def per_cell():
        for ra, rb, lm, mm in sample:
            bmulti.interval_distributions(d, bkern.SwitchRates(ra, rb),
                                          bkern.EmissionRates(mm, lm), c_max)
    t, _ = _median_time(tracer, "multistep.interval_distributions[sample]", per_cell, 1)
    m["multistep.interval_dist_ms"] = t / len(sample) * 1e3

    # -- the state smoother on its home workload
    wl, trace = _home("state_marg", csv_dir)
    probs, em = _truth_probs(wl)
    t, _ = _median_time(tracer, "state_inference.state_posterior_known",
                        lambda: bstate.state_posterior_known(trace, probs, em), 3)
    m["state_inference.known_ms"] = t * 1e3
    if work.name == "state_marg":
        t = tracer.durations("state_inference.state_posterior_marginal")[0]
    else:
        t, _ = _median_time(tracer, "state_inference.state_posterior_marginal",
                            lambda: bstate.state_posterior_marginal(trace, grid_of(wl)), 1)
    st_cells = int(np.prod(grid_shape(wl)))
    m["state_inference.marginal_s"] = t
    m["state_inference.ns_per_cell_step"] = t / (st_cells * len(trace)) * 1e9

    # -- the engine on the workload's own grid: one worker, full and half trace
    if work.name == "ctmc_cli":
        m["posterior.evaluate_grid_s"] = inner[0]
        full_s, post = t1, p1
    elif work.name == "state_marg":
        full_s, post = _median_time(tracer, "posterior.evaluate_grid", lambda: bpost.evaluate_grid(
            work.trace, own["model"], grid_of(own)), 1)
        m["posterior.evaluate_grid_s"] = full_s
    else:
        m["posterior.evaluate_grid_s"] = inner[0]
        full_s, post = untraced_s, work.posterior
    half = blinkinfer.CountTrace(work.trace.counts[: n // 2])
    half_s, _ = _median_time(tracer, "posterior.evaluate_grid[half trace]",
                             lambda: bpost.evaluate_grid(half, own["model"], grid_of(own),
                                                         d=own["d"]), 1)
    slope = (full_s - half_s) / (cells * (n - n // 2))
    m["posterior.forward_ns_per_cell_step"] = slope * 1e9
    m["posterior.fixed_ns_per_cell"] = (full_s / cells - slope * n) * 1e9

    names = switch_names(own)

    def summaries():
        return bpost.credible_regions(bpost.marginalize(post, names), LEVELS)
    t, _ = _median_time(tracer, "posterior.summaries", summaries, 5)
    m["posterior.summaries_ms"] = t * 1e3

    # -- CLI file formats
    t, _ = _median_time(tracer, "cli.read_trace_csv", lambda: bcli.read_trace_csv(work.csv), 5)
    m["cli.read_trace_ms"] = t * 1e3
    json_path = os.path.join(work.work, "posterior.json")
    if work.name == "ctmc_cli":
        t = tracer.durations("cli.write_posterior_json")[0]
    else:
        t, _ = _median_time(tracer, "cli.write_posterior_json",
                            lambda: bcli.write_posterior_json(json_path, post, LEVELS), 1)
    m["cli.write_posterior_json_s"] = t
    m["cli.posterior_json_mb"] = os.path.getsize(json_path) / 1e6
    m["trace.spans"] = len(tracer.spans)
    return m


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("run",))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    csv_path = os.path.join(args.work, f"{args.workload}.csv")
    trace = bcli.read_trace_csv(csv_path)
    if not os.path.abspath(bcli.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"blinkinfer imported from {bcli.__file__}, not from {ROOT}/src")

    work = Workload(args.workload, csv_path, trace, args.work)
    rec = timed_calls(work, args.seconds)
    result = {"peak_rss_mb": _peak_rss_mb(), **rec}
    if args.trace and rec["wall_s"]:
        tracer = Tracer()
        verdicts = {"first_digest": rec["digests"][0]}
        result["layers"] = layer_metrics(
            work, statistics.median(rec["wall_s"]), args.work, tracer, verdicts)
        result["checks"] = verdicts
        result["span_summary"] = tracer.summary()
        tracer.dump(os.path.join(args.work, "spans.json"))
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
