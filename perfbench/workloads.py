"""Seeded inputs, operations and correctness checks of the in-process workloads.

Every workload builds a pool of input blocks from its seed
(``InProcess.block``), then runs ops from that pool block after block
(``InProcess.ops``).  A block is a fixed list of structural templates
(dimension, outcome count, access, policy, sizes) whose numbers (states,
unitaries, weights, trajectory seeds) are drawn from the seed, so every run
sees the same mix of op costs and different seeds see different matrices.
Ops return a small record;
``check`` compares it with a reference afterwards, outside the timed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles
import qevents
from qevents import cli

TIMES4 = (1.0, 2.0, 3.0, 4.0)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def monomial_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """A permutation with random phases: maps diagonal partitions to diagonal ones."""
    S = np.zeros((d, d), dtype=complex)
    S[rng.permutation(d), np.arange(d)] = np.exp(2j * np.pi * rng.random(d))
    return S


def distinct_weights(rng: np.random.Generator, d: int, min_gap: float = 1e-3) -> np.ndarray:
    """Full-rank probability vector whose entries differ pairwise by min_gap."""
    while True:
        w = rng.dirichlet(np.ones(d))
        s = np.sort(w)
        if s[0] > min_gap and np.diff(s).min() > min_gap:
            return w


def diagonal_projections(d: int, labels: np.ndarray, n_out: int) -> list[np.ndarray]:
    out = []
    for o in range(n_out):
        P = np.zeros((d, d), dtype=complex)
        idx = np.flatnonzero(labels == o)
        P[idx, idx] = 1.0
        out.append(P)
    return out


class RecordFrom:
    """Callable record policy: record events at times >= t0."""

    def __init__(self, t0: float):
        self.t0 = t0

    def __call__(self, t: float) -> bool:
        return t >= self.t0


# ---------------------------------------------------------------------------
# gated-trajectories

# (d, outcomes, access, step unitary, record policy); one block runs each
# frame with two consecutive trajectory seeds.  By op count the
# block is 35 % d=2, 30 % d=4, 30 % d=6 and 5 % d=8, so p50 sits in the
# middle of the d=4 class and p90 inside the d=6 class, among the ops of the
# two (6, 3, full, haar, always) frames, the slowest d=6 template.  Equal
# outcome blocks make the rank after a collapse, and so an op's cost, the
# same whichever outcome is drawn.
GATED_TEMPLATES = (
    (2, 2, "full", "haar", "always"), (2, 2, "full", "mono", "always"),
    (2, 2, "diag", "mono", "always"), (2, 2, "chain", "mono", "never"),
    (2, 2, "full", "haar", "from2"), (2, 2, "full", "mono", "never"),
    (2, 2, "chain", "mono", "from2"),
    (4, 2, "full", "haar", "always"), (4, 3, "full", "mono", "always"),
    (4, 2, "diag", "mono", "always"), (4, 3, "chain", "mono", "from2"),
    (4, 2, "full", "haar", "never"), (4, 3, "full", "mono", "from2"),
    (6, 3, "full", "haar", "always"), (6, 3, "full", "haar", "always"),
    (6, 3, "full", "mono", "from2"), (6, 2, "chain", "mono", "always"),
    (6, 3, "diag", "mono", "never"), (6, 2, "full", "haar", "never"),
    (8, 2, "full", "haar", "always"),
)
GATED_WARMUP = (4, 2, "full", "haar", "always")


@dataclass
class GatedFrame:
    frame: object
    initial: object
    policy: object          # "always", "never" or a callable, for run_trajectory
    stacks: tuple           # per-time projection stacks, for the oracle
    diagonal: tuple         # per-time diagonal access, for the oracle


def make_gated_frame(rng: np.random.Generator, template) -> GatedFrame:
    d, n_out, access, stype, policy = template
    labels = rng.permutation(np.arange(d) % n_out)
    projs = diagonal_projections(d, labels, n_out)
    S = haar_unitary(rng, d) if stype == "haar" else monomial_unitary(rng, d)
    rho = np.diag(distinct_weights(rng, d)).astype(complex)
    if access == "full":
        # a random basis, so nothing about the inputs is diagonal
        V = haar_unitary(rng, d)
        projs = [V @ P @ V.conj().T for P in projs]
        S = V @ S @ V.conj().T
        rho = V @ rho @ V.conj().T
        rho = (rho + rho.conj().T) / 2.0
        restrictions, diagonal = None, (False,) * 4
    elif access == "diag":
        D = qevents.diagonal_algebra(d)
        restrictions, diagonal = [D] * 4, (True,) * 4
    else:
        D = qevents.diagonal_algebra(d)
        restrictions, diagonal = [None, D, D, D], (False, True, True, True)
    partition = qevents.PartitionOfUnity(tuple(range(n_out)), tuple(projs))
    frame = qevents.HeisenbergFrame.build(TIMES4, [partition], step_propagator=S,
                                          restrictions=restrictions)
    initial = qevents.DensityState(rho)
    pol = RecordFrom(2.0) if policy == "from2" else policy
    stacks = tuple(np.stack(c[0].projections) for c in frame.partitions)
    return GatedFrame(frame, initial, pol, stacks, diagonal)


def gated_run(op):
    f, traj_seed = op
    res = qevents.run_trajectory(f.frame, f.initial, record_policy=f.policy,
                                 rng_seed=traj_seed, require_detection=True)
    log = res.branch_log
    labels = f.frame.partitions[0][0].labels
    return {
        "fired": [b.fired for b in log],
        "outcomes": [None if b.outcome is None else labels.index(b.outcome) for b in log],
        "probabilities": [b.probability for b in log],
        "distances": [b.distance for b in log],
        "final": res.final_state.matrix,
    }


def _close(a, b, tol):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def gated_check(op, rec):
    f, traj_seed = op
    record = f.policy if callable(f.policy) else (lambda t: f.policy == "always")
    ref = oracles.gated_trajectory(f.initial.matrix, f.frame.times, f.stacks, f.diagonal,
                                   record, traj_seed)
    if rec["fired"] != ref["fired"]:
        return f"fired flags {rec['fired']} != reference {ref['fired']}"
    if rec["outcomes"] != ref["outcomes"]:
        return f"outcomes {rec['outcomes']} != reference {ref['outcomes']}"
    for a, b in zip(rec["probabilities"], ref["probabilities"]):
        if not _close(a, b, 1e-9):
            return f"probability {a} != reference {b}"
    for a, b in zip(rec["distances"], ref["distances"]):
        if not _close(a, b, 1e-9):
            return f"distance {a} != reference {b}"
    qevents.DensityState(rec["final"])      # raises if not a density matrix
    return None


def gated_fired_steps(records):
    """(fired steps, detection steps) over the op records."""
    fired = sum(sum(r["fired"]) for r in records)
    steps = sum(len(r["fired"]) for r in records)
    return fired, steps


# ---------------------------------------------------------------------------
# history-sampling

# ("svm", d, T, outcomes, samples): consistency_check + sampler_vs_measure;
# ("cli", d, T, outcomes, samples): in-process cli.cmd_trajectory, one op in
# four.  Op cost follows samples * T, so a block has three cost groups:
# 3 cheap ops (0-37.5 %), 3 middle ops of one template (37.5-75 %, holding
# p50) and 2 dear ops of one template (75-100 %, holding p90).
HISTORY_TEMPLATES = (
    ("cli", 2, 3, 3, 200), ("cli", 2, 3, 3, 200), ("svm", 4, 3, 3, 200),
    ("svm", 3, 4, 2, 500), ("svm", 3, 4, 2, 500), ("svm", 3, 4, 2, 500),
    ("svm", 4, 5, 2, 2000), ("svm", 4, 5, 2, 2000),
)
HISTORY_WARMUP = ("svm", 2, 3, 2, 200)


@dataclass
class HistoryInput:
    kind: str
    T: int
    samples: int
    frame: object = None
    initial: object = None
    config: dict = None
    rho: np.ndarray = None
    stacks: tuple = None
    labels: tuple = None


def _matrix_json(M: np.ndarray) -> dict:
    return {"re": M.real.tolist(), "im": M.imag.tolist()}


def make_history_input(rng: np.random.Generator, template) -> HistoryInput:
    kind, d, T, n_out, samples = template
    labels = rng.permutation(np.arange(d) % n_out)
    S = haar_unitary(rng, d)
    V = haar_unitary(rng, d)
    rho = V @ np.diag(distinct_weights(rng, d)).astype(complex) @ V.conj().T
    rho = (rho + rho.conj().T) / 2.0
    times = tuple(float(k + 1) for k in range(T))
    if kind == "cli":
        config = {
            "schema": "qevents-config/1",
            "model": {"kind": "frame", "times": list(times),
                      "initial_state": _matrix_json(rho),
                      "step_propagator": _matrix_json(S),
                      "base_partitions": {"diagonal_labels": [int(x) for x in labels]}},
            "run": {"samples": samples, "record_policy": "always",
                    "require_detection": False, "keep_histories": 10},
        }
        # the oracle's view of the same frame, rebuilt from the JSON numbers
        frame, initial = cli._build_frame(config["model"])
        stacks = tuple(np.stack(c[0].projections) for c in frame.partitions)
        return HistoryInput(kind, T, samples, config=config, rho=initial.matrix,
                            stacks=stacks, labels=frame.partitions[0][0].labels)
    part = qevents.PartitionOfUnity(tuple(range(n_out)),
                                    tuple(diagonal_projections(d, labels, n_out)))
    frame = qevents.HeisenbergFrame.build(times, [part], step_propagator=S)
    return HistoryInput(kind, T, samples, frame=frame, initial=qevents.DensityState(rho))


def history_run(op):
    inp, seed = op
    if inp.kind == "cli":
        payload, _, _, code = cli.cmd_trajectory(inp.config, seed)
        return {"code": code, "events_total": payload["events_total"],
                "histogram": {row["outcome"]: row["count"] for row in payload["histogram"]}}
    report = qevents.consistency_check(inp.frame, inp.initial, inp.T)
    tv = qevents.sampler_vs_measure(inp.frame, inp.initial, inp.T, inp.samples, seed=seed)
    return {"leaves": report.leaves, "marginal": report.max_marginal_residual,
            "normalization": report.normalization_residual, "tv": tv}


def history_check(op, rec):
    inp, _ = op
    if inp.kind == "cli":
        if rec["code"] != 0:
            return f"cmd_trajectory exit code {rec['code']}"
        if rec["events_total"] != inp.samples * inp.T:
            return f"events_total {rec['events_total']} != {inp.samples * inp.T}"
        marg = oracles.step_marginals(inp.rho, inp.stacks)
        expected = dict(zip(inp.labels, np.sum(marg, axis=0) / inp.T))
        bound = oracles.hoeffding(inp.samples)
        for label, count in rec["histogram"].items():
            frac = count / rec["events_total"]
            if abs(frac - expected[label]) > bound:
                return f"outcome {label} fraction {frac:.4f} vs exact {expected[label]:.4f}"
        return None
    if rec["marginal"] > 1e-12 or rec["normalization"] > 1e-12:
        return f"consistency residuals {rec['marginal']:.2e}/{rec['normalization']:.2e}"
    bound = oracles.tv_bound(rec["leaves"], inp.samples)
    if not rec["tv"] <= bound:
        return f"TV {rec['tv']:.4f} above bound {bound:.4f}"
    return None


# ---------------------------------------------------------------------------
# mixture-bridge

# (hypotheses H, realization length n): dims H * 2**n from 16 to 192.  Op
# cost follows the dimension, so a block has three cost groups: 4 ops of
# dim 16-48 (0-40 %), 4 of dim 128 (40-80 %, holding p50) and 2 of dim 192
# (80-100 %, holding p90).  Dim 256 (H=4, n=6) costs about 1 s an op, which
# would leave fewer than 100 ops in a run.
MIXTURE_TEMPLATES = (
    (2, 3), (3, 4), (2, 4), (4, 3),
    (4, 5), (4, 5), (2, 6), (2, 6),
    (3, 6), (3, 6),
)
MIXTURE_WARMUP = (2, 3)
MIXTURE_N_VALUES = [50, 200]
MIXTURE_COUNT = 2000
MIXTURE_PROTOCOLS = 8


@dataclass
class MixtureInput:
    weights: list
    p_plus: list
    n: int
    words: list
    config: dict


def separated_clicks(rng: np.random.Generator, H: int, min_gap: float = 0.15) -> list:
    while True:
        p = np.sort(rng.uniform(0.05, 0.95, H))
        if H == 1 or np.diff(p).min() >= min_gap:
            return [float(x) for x in rng.permutation(p)]


def make_mixture_input(rng: np.random.Generator, template) -> MixtureInput:
    H, n = template
    w = rng.dirichlet(np.ones(H))
    w = [float(x) for x in w[:-1]] + [float(1.0 - w[:-1].sum())]
    p = separated_clicks(rng, H)
    words = [tuple(int(x) for x in rng.choice((1, -1), size=n))
             for _ in range(MIXTURE_PROTOCOLS)]
    config = {
        "schema": "qevents-config/1",
        "model": {"kind": "mixture", "weights": w, "p_plus": p, "tau": 1.0},
        "run": {"n_values": MIXTURE_N_VALUES, "count": MIXTURE_COUNT},
    }
    return MixtureInput(w, p, n, words, config)


def mixture_run(op):
    inp, seed = op
    payload, _, _, code = cli.cmd_mesoscopic(inp.config, seed)
    model = qevents.DeFinettiModel(np.array(inp.weights), np.array(inp.p_plus), 1.0)
    frame, state = qevents.commuting_realization(model, inp.n)
    pairs = []
    for word in inp.words:
        proto = qevents.MeasurementProtocol(word, frame.times)
        pairs.append((qevents.lsw_probability(frame, state, proto),
                      qevents.exact_protocol_probability(model, word)))
    return {"code": code,
            "rows": [(r["n"], r["nu"], r["exact_mass"], r["exact_coverage"])
                     for r in payload["rows"]],
            "pairs": pairs}


def mixture_check(op, rec):
    inp, _ = op
    if rec["code"] != 0:
        return f"cmd_mesoscopic exit code {rec['code']}"
    for lsw, exact in rec["pairs"]:
        if abs(lsw - exact) > 1e-12:
            return f"lsw_probability {lsw!r} != exact {exact!r}"
    refs = {n: oracles.band_masses(inp.weights, inp.p_plus, n) for n in MIXTURE_N_VALUES}
    if len(rec["rows"]) != len(MIXTURE_N_VALUES) * len(inp.p_plus):
        return f"{len(rec['rows'])} mesoscopic rows"
    for n, nu, mass, coverage in rec["rows"]:
        ref_mass, ref_cov = refs[n]
        if abs(mass - ref_mass[nu]) > 1e-12 or abs(coverage - ref_cov) > 1e-12:
            return (f"n={n} nu={nu}: exact_mass {mass!r}/coverage {coverage!r} "
                    f"vs reference {ref_mass[nu]!r}/{ref_cov!r}")
    return None


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InProcess:
    make: Callable       # (rng, template) -> input
    templates: tuple     # one block of inputs
    warmup: tuple        # template of the untimed warm-up op
    run: Callable        # (input, seed) -> record
    check: Callable      # ((input, seed), record) -> None or a failure message
    repeats: int         # consecutive seeds each input of a block is run with
    blocks: int          # blocks of inputs in the pool of a timed run
    trace_blocks: int    # blocks run by a traced run (fixed, so counts repeat)

    def block(self, rng: np.random.Generator) -> list:
        """One block of inputs, one per template."""
        return [self.make(rng, t) for t in self.templates]

    def warmup_op(self, rng: np.random.Generator):
        return self.make(rng, self.warmup), int(rng.integers(1 << 31))

    def ops(self, pool, rng: np.random.Generator):
        """Endless stream of op blocks, cycling through the pool.

        Each input is run with ``repeats`` consecutive seeds, kept together,
        as the CLI's per-sample loop runs a frame; the order of inputs within
        a block is shuffled.
        """
        seed = int(rng.integers(1 << 31))
        while True:
            for block in pool:
                ops = [[(inp, seed + k * self.repeats + j) for j in range(self.repeats)]
                       for k, inp in enumerate(block)]
                seed += len(block) * self.repeats
                yield [op for i in rng.permutation(len(block)) for op in ops[i]]


IN_PROCESS = {
    "gated-trajectories": InProcess(make_gated_frame, GATED_TEMPLATES, GATED_WARMUP,
                                    gated_run, gated_check, 2, 8, 1),
    "history-sampling": InProcess(make_history_input, HISTORY_TEMPLATES, HISTORY_WARMUP,
                                  history_run, history_check, 1, 8, 4),
    "mixture-bridge": InProcess(make_mixture_input, MIXTURE_TEMPLATES, MIXTURE_WARMUP,
                                mixture_run, mixture_check, 1, 6, 2),
}
