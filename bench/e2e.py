"""End-to-end figures of qevents, written to BENCH_e2e.json at the repository root.

Run from anywhere, with no arguments:

    python3 bench/e2e.py

It records the machine, the cold start of the ``qevents`` command line for
each subcommand on each config in ``demos/configs`` (best of 3 subprocesses),
the wall time of one Tier-1 run (``python -m pytest -q
--continue-on-collection-errors`` from the repository root) with its
slowest acceptance check (pytest's ``--durations``, the call phase), and
scale probes, each in a child process capped at PROBE_SECONDS of wall
time and PROBE_BYTES of address space.  A probe that hits its cap is
recorded with ``capped`` set to "time" or "memory" instead of being dropped.
Every child runs with BLAS_THREADS BLAS threads and imports this checkout's
``src``.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "demos" / "configs"
OUT = ROOT / "BENCH_e2e.json"
BLAS_THREADS = 1
COLD_REPEATS = 3
PROBE_SECONDS = 60.0
PROBE_BYTES = 2 << 30

# each probe script sets up its inputs, then prints the seconds and the
# result of the call it measures; last the child prints its peak RSS in KiB,
# read as VmHWM, since ru_maxrss may count the memory of the forking parent
_COMMUTING = (
    "from qevents import DeFinettiModel, commuting_realization\n"
    "model = DeFinettiModel(np.array([0.4, 0.6]), np.array([0.8, 0.3]))\n"
    "frame, state = commuting_realization(model, 9)\n"
)
PROBES = {
    "detect_event, commuting_realization dim 1024": _COMMUTING + (
        "from qevents import detect_event\n"
        "start = time.perf_counter()\n"
        "v = detect_event(frame, state, frame.times[0], frame.partitions[0][0])\n"
        "print(time.perf_counter() - start, repr(v.distance))\n"),
    "sampler_vs_measure 1000 samples, commuting_realization dim 1024": _COMMUTING + (
        "from qevents import sampler_vs_measure\n"
        "start = time.perf_counter()\n"
        "tv = sampler_vs_measure(frame, state, len(frame.times), 1000, seed=0)\n"
        "print(time.perf_counter() - start, repr(tv))\n"),
    "detect_event, diagonal_algebra(1024), generic dense state": (
        "from qevents import (DensityState, HeisenbergFrame, PartitionOfUnity,\n"
        "                     detect_event, diagonal_algebra)\n"
        "g = np.random.default_rng(1024)\n"
        "z = g.standard_normal((1024, 1024)) + 1j * g.standard_normal((1024, 1024))\n"
        "rho = z @ z.conj().T\n"
        "state = DensityState(rho / np.trace(rho).real)\n"
        "low = np.arange(1024) < 512\n"
        "part = PartitionOfUnity(('a', 'b'), (low.astype(float), (~low).astype(float)))\n"
        "frame = HeisenbergFrame.build((1.0,), part, restrictions=diagonal_algebra(1024))\n"
        "start = time.perf_counter()\n"
        "v = detect_event(frame, state, 1.0, part)\n"
        "print(time.perf_counter() - start, repr(v.distance))\n"),
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                 else []))
    return env


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def cli_runs() -> list[tuple[str, Path]]:
    """(subcommand, config) for every subcommand a demo config is written for."""
    runs = []
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = json.loads(path.read_text())
        if cfg["model"]["kind"] == "mixture":
            runs.append(("mesoscopic", path))
            continue
        runs += [("detect", path), ("trajectory", path)]
        if "protocol" in cfg.get("run", {}):
            runs.append(("lsw", path))
    return runs


def cold_start(command: str, config: Path, env: dict) -> dict:
    """Best wall time of COLD_REPEATS fresh ``python -m qevents.cli`` processes."""
    times, codes = [], set()
    for _ in range(COLD_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-W", "ignore", "-m", "qevents.cli", command,
                               "--config", str(config)],
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
        times.append(time.perf_counter() - start)
        codes.add(proc.returncode)
    return {"command": command, "config": config.name, "best_s": round(min(times), 4),
            "exit_codes": sorted(codes)}


def tier1(env: dict) -> dict:
    """Wall time and summary line of one Tier-1 run, and its slowest acceptance check."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors", "--durations=0"],
                          cwd=ROOT, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines() or ["no output"]
    timing = re.compile(r"([\d.]+)s call\s+(tests/test_acceptance\.py::\S+)")
    calls = [(float(m[1]), m[2]) for m in map(timing.match, lines) if m]
    slowest = max(calls, default=None)
    return {"wall_s": round(wall, 2), "exit_code": proc.returncode,
            "summary": lines[-1].strip("= "),
            "slowest_acceptance": slowest and {"test": slowest[1], "call_s": slowest[0]}}


def probe(name: str, body: str, env: dict) -> dict:
    """Run one probe script in a capped child; its figures, or the cap it hit."""
    script = ("import resource, time\n"
              f"resource.setrlimit(resource.RLIMIT_AS, ({PROBE_BYTES}, {PROBE_BYTES}))\n"
              "import numpy as np\n"
              + body +
              "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM'))\n"
              "      .split()[1])\n")
    record = {"probe": name, "cap_s": PROBE_SECONDS, "cap_mb": PROBE_BYTES >> 20}
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=PROBE_SECONDS)
    except subprocess.TimeoutExpired:
        return {**record, "capped": "time", "wall_s": round(time.perf_counter() - start, 2)}
    record["wall_s"] = round(time.perf_counter() - start, 2)
    if proc.returncode != 0:
        error = (proc.stderr.strip().splitlines() or ["no message"])[-1]
        return {**record, "capped": "memory" if "MemoryError" in error else None,
                "error": error[:300]}
    seconds, result, maxrss = proc.stdout.split()
    return {**record, "capped": None, "call_s": round(float(seconds), 4), "result": result,
            "max_rss_mb": round(int(maxrss) / 1024, 1)}


def main() -> int:
    env = child_env()
    cold = [cold_start(command, config, env) for command, config in cli_runs()]
    suite = tier1(env)
    probes = [probe(name, body, env) for name, body in PROBES.items()]
    payload = {"machine": machine_record(), "cli_cold_start": cold, "tier1": suite,
               "probes": probes}
    OUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for row in cold:
        print(f"{row['command']:>10} {row['config']:<28} {row['best_s']:.3f} s")
    print(f"Tier-1: {suite['summary']}, {suite['wall_s']:.1f} s wall; slowest acceptance "
          f"check: {suite['slowest_acceptance']}")
    for row in probes:
        figure = (f"capped ({row['capped']})" if row["capped"]
                  else row.get("error") or f"{row['call_s']:.3f} s, {row['max_rss_mb']} MB")
        print(f"{row['probe']}: {figure}")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
