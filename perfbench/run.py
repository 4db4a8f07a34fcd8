"""Benchmark: time, CPU and memory to a posterior, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  This process makes the inputs from the
seed, times the package's set-up in fresh probe processes, runs the
workload in one more fresh process (child.py), then checks the outputs
against the independent references in reference.py.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread per process, here and in every child, so that the two
# grid workers never oversubscribe the CPUs.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S, Calibration  # noqa: E402
from checks import check_outputs  # noqa: E402
from workloads import WORKLOADS, make_inputs, write_trace_csv  # noqa: E402

SETUP_PROBES = 3
DEADLINE_S = 170.0
END_TO_END = (("setup_s", "s"), ("infer_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {
    "kernels.poisson_table_ms": "ms",
    "kernels.chain_ns_per_step": "ns",
    "single_step.trace_loglik_ms": "ms",
    "ctmc.quad_check_ms": "ms",
    "ctmc.trace_loglik_ms": "ms",
    "multistep.interval_dist_ms": "ms",
    "multistep.trace_loglik_ms": "ms",
    "posterior.evaluate_grid_s": "s",
    "posterior.fixed_ns_per_cell": "ns",
    "posterior.forward_ns_per_cell_step": "ns",
    "posterior.workers2_speedup": "ratio",
    "posterior.summaries_ms": "ms",
    "posterior.emission_table_mb": "MB",
    "state_inference.marginal_s": "s",
    "state_inference.ns_per_cell_step": "ns",
    "state_inference.known_ms": "ms",
    "cli.read_trace_ms": "ms",
    "cli.write_posterior_json_s": "s",
    "cli.posterior_json_mb": "MB",
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def machine_record() -> dict:
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "numba": has_numba,
    }


def _child_cmd(*args):
    return [sys.executable, str(HERE / "child.py"), *args]


def _run_child(cmd, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child timed out: {' '.join(cmd[1:])}") from None
    if proc.returncode != 0:
        raise BenchError(f"child failed ({proc.returncode}): {err.strip()[-2000:]}")
    return out, err


def setup_times(csv_path, deadline) -> tuple[list[float], list[float]]:
    """Process start until the package is imported and the trace loaded.

    Returns the probe times and, for each, the calibration kernel's time
    measured just before it.
    """
    cal = Calibration()
    times, kernel = [], []
    for _ in range(SETUP_PROBES):
        kernel.append(cal.seconds())
        start = time.monotonic()
        out, _ = _run_child(_child_cmd("probe", str(csv_path)), deadline)
        times.append(float(out.strip().splitlines()[-1]) - start)
    return times, kernel


def scaled(times, kernel) -> float:
    """Median time on a machine where the calibration kernel takes REFERENCE_S."""
    return REFERENCE_S * statistics.median(t / k for t, k in zip(times, kernel))


def run_one(name, seed, seconds, trace, deadline) -> dict:
    base = ROOT / ".bench_work"
    work = base / f"{name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        inputs = {}
        for other in (WORKLOADS if trace else [name]):
            inputs[other] = make_inputs(other, seed)
            write_trace_csv(work / f"{other}.csv", inputs[other]["counts"])
        setup, setup_kernel = setup_times(work / f"{name}.csv", deadline)
        _run_child(_child_cmd("run", "--workload", name, "--seconds", repr(seconds),
                              "--trace", str(trace), "--work", str(work)), deadline)
        with open(work / "result.json") as fh:
            res = json.load(fh)
        problems = check_outputs(name, seed, inputs[name], work, res)
        if trace:
            problems += [f"traced run: {k} is false" for k, v in res["checks"].items()
                         if v is False]
            shutil.copy(work / "spans.json", base / f"spans-{name}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not res["wall_s"]:
        raise BenchError("no inference call succeeded:\n" + "\n".join(res["errors"]))

    rounds = len(res["wall_s"]) + len(res["errors"])
    report = {
        "correct": not problems,
        "attempted": 2 * rounds,  # the inference call and the fault probe
        "failed": len(res["errors"]) + res["probe_failed"],
        "problems": problems + res["errors"],
    }
    if trace:
        layers = res["layers"]
        report["metrics"] = {k: {"value": layers[k], "unit": u}
                             for k, u in PER_LAYER_UNITS.items()}
        report["span_summary"] = res["span_summary"]
    else:
        values = {
            "setup_s": scaled(setup, setup_kernel),
            "infer_s": scaled(res["wall_s"], res["kernel_s"]),
            "cpu_s": scaled(res["cpu_s"], res["kernel_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        report["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        report["unscaled"] = {
            "setup_s": statistics.median(setup),
            "infer_s": statistics.median(res["wall_s"]),
            "cpu_s": statistics.median(res["cpu_s"]),
            "kernel_s": statistics.median(setup_kernel + res["kernel_s"]),
        }
    return report


def _print_report(name, report):
    print(f"[{name}] attempted={report['attempted']} failed={report['failed']} "
          f"correct={report['correct']}")
    for key, m in report["metrics"].items():
        print(f"[{name}]   {key:38s} {m['value']:.6g} {m['unit']}")
    if "unscaled" in report:
        print(f"[{name}] unscaled medians: " + json.dumps(report["unscaled"], sort_keys=True))
    for p in report["problems"]:
        print(f"[{name}]   problem: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "blinkinfer" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'blinkinfer'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    deadline = time.monotonic() + DEADLINE_S
    print("machine: " + json.dumps(machine_record(), sort_keys=True))
    try:
        report = run_one(args.workload, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        for key, row in sorted(report["span_summary"].items()):
            print(f"[span] {key:52s} calls={row['calls']:<6d} total={row['total_s']:.4f}s "
                  f"self={row['self_s']:.4f}s")
    _print_report(args.workload, report)
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own ``run.py`` process."""
    summary = {}
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"[{name}] error: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
            ok = False
            continue
        summary[name] = json.loads(lines[-1])
        ok = ok and summary[name]["correct"]
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
