"""The record shapes of ``bench/e2e.py``'s capped probes.

Each probe runs in one child process: a probe that finishes records its
figures, one that outlives ``PROBE_SECONDS`` or meets ``MemoryError`` under
``PROBE_BYTES`` records the cap it hit instead of being dropped.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1] / "bench" / "e2e.py"


def _e2e():
    spec = importlib.util.spec_from_file_location("bench_e2e", E2E)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


e2e = _e2e()


@pytest.fixture
def children(monkeypatch):
    """The children ``subprocess.run`` starts during the test."""
    started, real = [], subprocess.run

    def spy(*args, **kwargs):
        started.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", spy)
    return started


def test_a_finishing_probe_records_its_figures(children):
    body = ("start = time.perf_counter()\n"
            "x = int(np.arange(4).sum())\n"
            "print(time.perf_counter() - start, repr(x))\n")
    record = e2e.probe("sum", body, e2e.child_env())
    assert len(children) == 1
    assert set(record) == {"probe", "cap_s", "cap_mb", "wall_s", "capped", "call_s", "result",
                           "max_rss_mb"}
    assert record["capped"] is None and record["result"] == "6"
    assert record["probe"] == "sum" and record["cap_mb"] == e2e.PROBE_BYTES >> 20
    assert record["call_s"] >= 0.0 and record["max_rss_mb"] > 0.0


def test_a_probe_past_the_time_cap_records_the_cap(children, monkeypatch):
    monkeypatch.setattr(e2e, "PROBE_SECONDS", 0.5)
    record = e2e.probe("sleep", "time.sleep(30)\n", e2e.child_env())
    assert len(children) == 1
    assert record == {"probe": "sleep", "cap_s": 0.5, "cap_mb": e2e.PROBE_BYTES >> 20,
                      "capped": "time", "wall_s": record["wall_s"]}
    assert 0.5 <= record["wall_s"] < 30.0


def test_a_probe_past_the_memory_cap_records_the_cap(children):
    # the address-space cap refuses the mapping, so no memory is touched
    body = f"x = np.empty({2 * e2e.PROBE_BYTES}, dtype=np.uint8)\n"
    record = e2e.probe("alloc", body, e2e.child_env())
    assert len(children) == 1
    assert set(record) == {"probe", "cap_s", "cap_mb", "wall_s", "capped", "error"}
    assert record["capped"] == "memory" and "MemoryError" in record["error"]
