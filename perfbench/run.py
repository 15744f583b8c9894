"""qevents benchmark: three seeded workloads, end to end or traced by layer.

Run from the repository root:

    python3 perfbench/run.py                       # every workload, summary table
    python3 perfbench/run.py --workload gated-trajectories --seed 3 --seconds 15 --trace 0

Each workload runs in child processes (``child.py``) with the BLAS thread
count set in their environment.  ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` runs a fixed number of ops twice, untraced
and under the span tracer, and reports the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See WORKLOADS.md for what each workload measures and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("gated-trajectories", "history-sampling", "mixture-bridge")
SETUP_REPEATS = 5          # set-ups per run; setup_s is their median
WINDOW_OPS = 100           # fewest ops in a window of the latency figures
CLOSURE_TOL_MS = 0.001     # largest trace.closure_error_ms a traced run accepts
BLAS_THREADS = 1           # fixed so runs do not depend on other load on the box
DEADLINE_S = 170.0         # every run ends well inside 180 s
SPANS = ROOT / ".perfbench"   # where traced runs write their spans


def machine_record() -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "numpy": np.__version__,
            "scipy": scipy_version, "python": platform.python_version()}


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, trace: int,
          deadline: float) -> tuple[dict, str]:
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode, "--trace", str(trace)]
    if trace:
        SPANS.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(SPANS / f"{workload}-{seed}.csv.gz")]
    cmd += ["--launch-time", repr(time.time())]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("no time left for another child")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=timeout, cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} {mode} child timed out") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{workload} {mode} child exited {proc.returncode}:\n"
                          f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def window_figures(r: dict) -> tuple[float, float, float]:
    """Medians of throughput (ops/s), p50 and p90 (ms) over windows of the run.

    A window is WINDOW_OPS or more consecutive ops made of whole blocks, so
    it holds every template in its share and its p90 lies beyond ten ops;
    windows start at every block.  Every op of a window counts, and the
    medians over windows leave out slow stretches of the host that cover
    less than half of the run (see WORKLOADS.md).  Ops run back to back, so
    a window's throughput is its ops over their summed wall time.
    """
    lat = r["latencies_ms"]
    ends = [0] + r["block_ends"]
    width = max(1, -(-WINDOW_OPS // ends[1]))        # blocks per window
    width = min(width, len(ends) - 1)
    thr, p50, p90 = [], [], []
    for i in range(len(ends) - width):
        w = lat[ends[i]:ends[i + width]]
        thr.append(len(w) / (sum(w) / 1e3))
        p50.append(float(np.percentile(w, 50)))
        p90.append(float(np.percentile(w, 90)))
    return statistics.median(thr), statistics.median(p50), statistics.median(p90)


def run_timed(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics of one timed child, with the median of several set-ups."""
    # set-up-only children before and after the timed one, so the set-up
    # samples spread over the run's whole span of host load
    before = (SETUP_REPEATS - 1) // 2
    runs = [spawn(workload, seed, seconds, "setup", 0, deadline)[0] for _ in range(before)]
    r, _ = spawn(workload, seed, seconds, "timed", 0, deadline)
    runs += [r] + [spawn(workload, seed, seconds, "setup", 0, deadline)[0]
                   for _ in range(SETUP_REPEATS - 1 - before)]
    setups = [x["setup_s"] for x in runs]
    # a warm-up op that fails its check counts as a failed op
    warmup_errors = [f"warm-up op: {x['warmup_error']}" for x in runs if x["warmup_error"]]
    r["attempted"] += len(runs)
    r["failed"] += len(warmup_errors)
    r["errors"] = warmup_errors + r["errors"]
    throughput, p50, p90 = window_figures(r)
    metrics = {
        "throughput_ops_s": (throughput, "ops/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (r["maxrss_kb"] / 1024.0, "MB"),
        # printed, not gated: 0 at this commit, and failed/attempted carry it
        "error_rate": (r["failed"] / r["attempted"], "ratio"),
        # whole-run figures, printed beside the window medians
        "run_throughput_ops_s": (r["ops"] / (sum(r["latencies_ms"]) / 1e3), "ops/s"),
        "run_latency_p50_ms": (float(np.percentile(r["latencies_ms"], 50)), "ms"),
        "run_latency_p90_ms": (float(np.percentile(r["latencies_ms"], 90)), "ms"),
    }
    info = {"ops": r["ops"], "blocks": len(r["block_ends"]), "setup_samples_s": setups,
            "errors": r["errors"], "attempted": r["attempted"], "failed": r["failed"],
            "ref_kernel_ms": r["ref_kernel_ms"], "revisit_frac": r["revisit_frac"],
            "host_probe_us": statistics.median(r["host_probes"]) * 1e6,
            "cpu_moves": r["cpu_moves"]}
    if "fired_frac" in r:
        info["fired_frac"] = r["fired_frac"]
    return metrics, info


def run_traced(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    import tracing
    plain, _ = spawn(workload, seed, seconds, "fixed", 0, deadline)
    traced, stderr = spawn(workload, seed, seconds, "fixed", 1, deadline)
    if plain["ops"] != traced["ops"]:
        raise ChildFailed("traced and untraced runs did different ops")
    trace = traced["trace"]
    if trace["trace.closure_error_ms"] > CLOSURE_TOL_MS:
        raise ChildFailed(f"spans leave their parent or op by "
                          f"{trace['trace.closure_error_ms']:.6f} ms")
    import_qevents, import_scipy = tracing.import_times_ms(stderr)
    units = {"calls": "count", "spans": "count", "draws_per_call": "ratio",
             "melems": "Melem", "peak_alloc_mb": "MB"}
    metrics = {}
    for name, value in sorted(trace.items()):
        metrics[name] = (value, units.get(name.rsplit(".", 1)[-1], "ms"))
    metrics["cli.import_qevents_ms"] = (import_qevents, "ms")
    metrics["cli.import_scipy_ms"] = (import_scipy, "ms")
    metrics["events.fired_frac"] = (traced.get("fired_frac", 0.0), "ratio")
    metrics["bench.revisit_frac"] = (traced["revisit_frac"], "ratio")
    metrics["bench.ops"] = (traced["ops"], "count")
    metrics["machine.ref_kernel_ms"] = (traced["ref_kernel_ms"], "ms")
    metrics["trace.overhead_ms"] = ((traced["region_wall_s"] - plain["region_wall_s"]) * 1e3,
                                    "ms")
    warmup_errors = [f"warm-up op: {x['warmup_error']}" for x in (plain, traced)
                     if x["warmup_error"]]
    info = {"ops": traced["ops"], "errors": warmup_errors + traced["errors"],
            "attempted": traced["attempted"] + 2,
            "failed": traced["failed"] + len(warmup_errors)}
    return metrics, info


def declared_metrics(trace: int) -> list[str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    if trace:
        metrics, info = run_traced(workload, seed, seconds, deadline)
    else:
        metrics, info = run_timed(workload, seed, seconds, deadline)
    names = declared_metrics(trace)
    missing = [n for n in names if n not in metrics]
    if missing:
        raise ChildFailed(f"metrics not measured: {missing}")
    print(f"# {workload} seed={seed} ops={info['ops']} "
          f"attempted={info['attempted']} failed={info['failed']}")
    for name in (sorted(metrics) if trace else metrics):
        value, unit = metrics[name]
        print(f"#   {name:58s} {value:14.6g} {unit}")
    for key in ("blocks", "setup_samples_s", "ref_kernel_ms", "host_probe_us", "cpu_moves",
                "revisit_frac", "fired_frac"):
        if key in info:
            print(f"#   {key}: {info[key]}")
    if trace:
        print(f"#   spans written to {SPANS.name}/{workload}-{seed}.csv.gz")
    for err in info["errors"]:
        print(f"#   error: {err}")
    return {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "qevents" / "__init__.py").is_file():
        print(f"qevents sources not found under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json") as fh:
            args.seconds = json.load(fh)["run_seconds"]

    print("# machine " + json.dumps(machine_record()))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in workloads:
        deadline = time.monotonic() + DEADLINE_S
        try:
            results[w] = run_one(w, args.seed, args.seconds, args.trace, deadline)
        except ChildFailed as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
