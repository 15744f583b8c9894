"""One workload process: set up, run ops, check them, report one JSON line.

Started by ``run.py``; not meant to be run by hand.  Modes:

* ``setup``  -- set up (import, one block of inputs, one untimed warm-up op)
  and stop;
* ``timed``  -- set up, build the rest of the input pool, then run whole op
  blocks until ``--seconds`` elapsed;
* ``fixed``  -- set up, then run the workload's fixed number of trace blocks
  (with ``--trace 1`` under the span tracer and tracemalloc).

The process caps its own address space first, so an input that outgrows the
cap fails as a ``MemoryError`` op instead of being killed by the kernel.
"""

import os
import resource
import sys
import time

ADDRESS_SPACE_CAP = 3 << 30
CPU_CHECK_S = 0.25      # seconds between two host probes
CPU_SWITCH_GAIN = 1.05  # another CPU must probe this much faster to move there

resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

import argparse  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOAD_TAGS = {"gated-trajectories": 1, "history-sampling": 2, "mixture-bridge": 3}
HERE = Path(__file__).resolve().parent


class HostProbe:
    """Watches how fast the host runs, and keeps the process on its quietest CPU.

    On a shared host each vCPU slows down by up to 1.5x, for a few seconds at
    a time, when other tenants load the physical core under it, and the whole
    box slows down for minutes at a time.  Between ops (never inside one),
    every ``CPU_CHECK_S`` seconds, the probe times a short fixed interpreter
    loop on every CPU the process may use, pins the process to the fastest
    and logs that CPU's time; ``run.py`` prints the median of the log as a
    marker of host speed.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.current = self.cpus[0] if len(self.cpus) == 1 else None
        self.last = 0.0
        self.moves = 0
        self.log = []           # probe seconds on the chosen CPU
        self.pick()

    @staticmethod
    def _loop() -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            s = 0
            for i in range(3000):
                s += i * i
            best = min(best, time.perf_counter() - t0)
        return best

    def pick(self) -> None:
        times = {}
        if len(self.cpus) > 1:
            # the current CPU is probed last, so staying put needs no further move
            others = [c for c in self.cpus if c != self.current]
            for cpu in others + ([self.current] if self.current is not None else []):
                os.sched_setaffinity(0, {cpu})
                times[cpu] = self._loop()
            best = min(times, key=times.get)
            if (self.current is not None and best != self.current
                    and times[self.current] <= times[best] * CPU_SWITCH_GAIN):
                best = self.current
            if best != cpu:
                os.sched_setaffinity(0, {best})
            self.moves += self.current is not None and best != self.current
            self.current = best
        else:
            times[self.current] = self._loop()
        self.log.append(times[self.current])
        self.last = time.perf_counter()

    def maybe_pick(self) -> None:
        if time.perf_counter() - self.last >= CPU_CHECK_S:
            self.pick()


def ref_kernel_ms() -> float:
    """Median time of a fixed 300x300 complex SVD, a marker of machine drift."""
    import numpy as np
    rng = np.random.default_rng(300)
    A = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        np.linalg.svd(A)
        times.append(time.perf_counter() - t0)
    return sorted(times)[3] * 1e3


def _short(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:300]


def run_in_process(args, launch: float) -> dict:
    host = HostProbe()
    import qevents  # noqa: F401  (first, so -X importtime shows its full cost)
    import numpy as np

    import workloads
    from tracing import Tracer

    W = workloads.IN_PROCESS[args.workload]
    warnings.simplefilter("ignore")
    rng = np.random.default_rng([args.seed, WORKLOAD_TAGS[args.workload]])
    op_rng = np.random.default_rng([args.seed, WORKLOAD_TAGS[args.workload], 1])

    tracer = None
    region_start = time.perf_counter()
    if args.trace:
        import tracemalloc
        tracer = Tracer().install()
        tracemalloc.start()
    # set-up: one block of inputs and one warm-up op
    pool = [W.block(rng)]
    warm = W.warmup_op(rng)
    warm_rec = W.run(warm)
    setup_s = time.time() - launch
    out = {"setup_s": setup_s, "warmup_error": W.check(warm, warm_rec)}
    if args.mode == "setup":
        return out
    blocks = W.trace_blocks if args.mode == "fixed" else W.blocks
    pool += [W.block(rng) for _ in range(blocks - 1)]

    records = []            # (op, record or None)
    errors = []
    latencies = []
    op_times = []           # (start, end) of each op, on the span clock
    seen = set()
    revisits = 0
    block_ends = []         # ops done after each block
    stream = W.ops(pool, op_rng)
    host.log.clear()
    host.pick()
    t_start = time.perf_counter()
    while True:
        for op in next(stream):
            key = id(op[0])
            revisits += key in seen
            seen.add(key)
            host.maybe_pick()
            if tracer:
                tracer.op = len(latencies)
            t0 = time.perf_counter()
            try:
                rec = W.run(op)
            except Exception as exc:   # a failed op is counted, not fatal
                rec = None
                errors.append(_short(exc))
            t1 = time.perf_counter()
            latencies.append((t1 - t0) * 1e3)
            op_times.append((t0, t1))
            records.append((op, rec))
        elapsed = time.perf_counter() - t_start
        block_ends.append(len(latencies))
        if args.mode == "fixed" and len(block_ends) >= W.trace_blocks:
            break
        if args.mode == "timed" and elapsed >= args.seconds:
            break
    region_end = time.perf_counter()

    if tracer:
        tracemalloc.stop()
        tracer.uninstall()
        out["trace"] = tracer.summary(region_start, t_start, op_times, region_end)
        if args.spans_out:
            tracer.write(args.spans_out)

    failed = 0
    for op, rec in records:
        if rec is None:
            failed += 1
            continue
        try:
            msg = W.check(op, rec)
        except Exception as exc:
            msg = _short(exc)
        if msg:
            failed += 1
            errors.append(msg)
    if args.workload == "gated-trajectories":
        fired, steps = workloads.gated_fired_steps([r for _, r in records if r])
        out["fired_frac"] = fired / steps if steps else 0.0
    out.update(ops=len(records), attempted=len(records), failed=failed,
               errors=errors[:5], latencies_ms=latencies, block_ends=block_ends,
               region_wall_s=region_end - region_start,
               revisit_frac=revisits / len(records), cpu_moves=host.moves,
               host_probes=host.log,
               ref_kernel_ms=ref_kernel_ms())
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOAD_TAGS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launch-time", type=float, required=True)
    p.add_argument("--spans-out", default=None)
    args = p.parse_args()
    args.seed %= 1 << 63        # seed sequences take non-negative integers
    sys.path.insert(0, str(HERE))
    try:
        out = run_in_process(args, args.launch_time)
    except Exception:
        traceback.print_exc()
        return 1
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
