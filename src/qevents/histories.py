"""Sequential history measures over a frame.

The probability of an outcome sequence is the state evaluated on the
two-sided ordered product of the corresponding time-indexed projections,
computed here by sandwiching the density matrix step by step.  The measure
is additive in each final slot (dropping the last outcome marginalizes), so
exhaustive enumeration doubles as a consistency oracle for the sampler.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvariantViolation
from .events import _CHUNK_ELEMENTS, HeisenbergFrame, _block_paths
from .operators import DensityState, PartitionOfUnity
from .seeding import substream

logger = logging.getLogger(__name__)

MAX_TREE_LEAVES = 10 ** 6

__all__ = [
    "MeasurementProtocol",
    "ConsistencyReport",
    "lsw_probability",
    "consistency_check",
    "enumerate_protocols",
    "sampler_vs_measure",
]


@dataclass(frozen=True)
class MeasurementProtocol:
    """A finite record: outcome labels with the times they were obtained at."""

    outcomes: tuple
    times: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        if len(self.outcomes) != len(self.times):
            raise ValueError("outcomes and times must have equal length")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("protocol times must be strictly increasing")

    def __len__(self):
        return len(self.outcomes)


def _partition_for(frame: HeisenbergFrame, k: int, label) -> PartitionOfUnity:
    candidates = frame.partitions[k]
    if len(candidates) == 1:
        return candidates[0]
    matching = [p for p in candidates if label in p.labels]
    if len(matching) != 1:
        raise ValueError(
            f"ambiguous candidate partition for label {label!r} at time {frame.times[k]}")
    return matching[0]


def lsw_probability(frame: HeisenbergFrame, initial: DensityState,
                    protocol: MeasurementProtocol) -> float:
    """Probability of a finite outcome sequence under the history measure.

    Applies the projections innermost-first on the density matrix; the trace
    of the final unnormalized state is the sequence probability.  When the
    state and every projection involved are diagonal, the same products are
    taken on the diagonals alone.  Rounding can push the value marginally
    outside [0, 1]; it is clamped and the clamp magnitude logged.
    """
    if len(protocol) == 0:
        return 1.0
    factors = []
    for t, label in zip(protocol.times, protocol.outcomes):
        partition = _partition_for(frame, frame.index_of(t), label)
        factors.append((partition, partition.index_for(label)))
    diagonal = initial.diagonal
    if diagonal is not None and all(partition.diagonals is not None
                                    for partition, _ in factors):
        for partition, j in factors:
            p = partition.diagonals[j]
            diagonal = p * diagonal * p
        value = float(np.real(np.sum(diagonal)))
    else:
        sigma = initial.matrix
        for partition, j in factors:
            P = partition.projections[j]
            sigma = P @ sigma @ P
        value = float(np.real(np.trace(sigma)))
    return _clamp(value)


def _clamp(value: float) -> float:
    clamped = min(max(value, 0.0), 1.0)
    if clamped != value:
        logger.debug("history probability clamped by %.3e", abs(value - clamped))
    return clamped


def _label_sets(frame: HeisenbergFrame, steps: int) -> list[tuple]:
    """Outcome labels of the single candidate at each of the first ``steps`` times."""
    if steps > len(frame.times):
        raise ValueError(f"frame has only {len(frame.times)} times, {steps} steps requested")
    label_sets = []
    leaves = 1
    for k in range(steps):
        if len(frame.partitions[k]) != 1:
            raise ValueError("history enumeration needs exactly one candidate per time")
        labels = frame.partitions[k][0].labels
        leaves *= len(labels)
        if leaves > MAX_TREE_LEAVES:
            raise ValueError(f"outcome tree too large: more than {MAX_TREE_LEAVES} leaves")
        label_sets.append(labels)
    return label_sets


def enumerate_protocols(frame: HeisenbergFrame, steps: int) -> list[MeasurementProtocol]:
    """All outcome sequences over the first ``steps`` frame times."""
    label_sets = _label_sets(frame, steps)
    times = frame.times[:steps]
    return [MeasurementProtocol(combo, times)
            for combo in itertools.product(*label_sets)]


def _walk_outcome_tree(frame: HeisenbergFrame, initial: DensityState, steps: int,
                       visit: Callable[[tuple, float], None]) -> float:
    """Walk the outcome tree over the first ``steps`` times, a chunk of nodes at a time.

    Each node's state is ``P @ sigma @ P`` of its parent's, from the root
    ``initial.matrix``: the products ``lsw_probability`` takes, on the
    diagonals alone when the state and every partition walked are diagonal.
    A node's mass is the real trace of its state (1.0 at the root).

    A chunk of G nodes at step k becomes its G * m children in one stacked
    product ``F @ sigma @ F`` over the (m, d, d) projections F of step k
    (elementwise on diagonals), with one batched trace for their masses.
    The children are cut into chunks again and pushed depth first, so
    ``visit(outcomes, mass)`` sees the leaves in ``itertools.product``
    order.  A chunk's children hold at most ``_CHUNK_ELEMENTS`` numbers
    (one node each if a node is larger), and one array of children is alive
    per step, whatever the number of leaves.  Returns the largest gap
    between an inner node's mass and the sum of its children's, summed left
    to right from 0.0 in label order.
    """
    _label_sets(frame, steps)
    if steps == 0:
        visit((), 1.0)
        return 0.0
    partitions = [frame.partitions[k][0] for k in range(steps)]
    diagonal = (initial.diagonal is not None
                and all(p.diagonals is not None for p in partitions))
    if diagonal:
        root, families = initial.diagonal, [p.diagonals[None] for p in partitions]
    else:
        root, families = initial.matrix, [p.stack[None] for p in partitions]
    gap = 0.0
    pending = [(0, [()], root[None], [1.0])]
    while pending:
        k, outcomes, sigma, masses = pending.pop()
        F = families[k]
        if diagonal:
            children = F * sigma[:, None]
            children *= F
            rows = children.sum(axis=2).real.tolist()
        else:
            children = F @ sigma[:, None] @ F
            rows = children.trace(axis1=2, axis2=3).real.tolist()
        for mass, row in zip(masses, rows):
            total = 0.0
            for child_mass in row:
                total += child_mass
            gap = max(gap, abs(total - mass))
        outcomes = [prefix + (label,) for prefix in outcomes for label in partitions[k].labels]
        masses = [mass for row in rows for mass in row]
        if k + 1 == steps:
            for leaf, mass in zip(outcomes, masses):
                visit(leaf, mass)
            continue
        children = children.reshape(-1, *root.shape)
        g = max(1, _CHUNK_ELEMENTS // families[k + 1][0].size)
        for a in reversed(range(0, len(outcomes), g)):
            pending.append((k + 1, outcomes[a:a + g], children[a:a + g], masses[a:a + g]))
    return gap


@dataclass(frozen=True)
class ConsistencyReport:
    steps: int
    leaves: int
    max_marginal_residual: float
    normalization_residual: float


def consistency_check(frame: HeisenbergFrame, initial: DensityState,
                      steps: int) -> ConsistencyReport:
    """Verify prefix-marginal consistency and total normalization.

    For every strict prefix, the measures of its one-step extensions must
    sum back to the measure of the prefix; the full-length measures must sum
    to one.  Residuals beyond 1e-12 raise.
    """
    leaves = 0
    total = 0.0

    def add(outcomes: tuple, mass: float):
        nonlocal leaves, total
        leaves += 1
        total += mass

    max_marginal = _walk_outcome_tree(frame, initial, steps, add)
    norm_residual = abs(total - 1.0)
    if max_marginal > 1e-12 or norm_residual > 1e-12:
        raise InvariantViolation(
            f"history measure inconsistent: marginal residual {max_marginal:.3e}, "
            f"normalization residual {norm_residual:.3e}")
    return ConsistencyReport(steps, leaves, max_marginal, norm_residual)


def sampler_vs_measure(frame: HeisenbergFrame, initial: DensityState,
                       steps: int, samples: int, seed: int = 0) -> float:
    """Total-variation distance between sampled and exact history measures.

    Runs the trajectory sampler (always-record, unconditional projective
    steps) for ``samples`` trajectories against the exact enumeration of all
    length-``steps`` sequences.  Sample i takes row i of one
    ``(samples, steps)`` block of uniforms from ``substream(seed)``.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    exact: dict[tuple, float] = {}

    def record(outcomes: tuple, mass: float):
        exact[outcomes] = _clamp(mass)

    _walk_outcome_tree(frame, initial, steps, record)
    paths = _block_paths(frame, initial, substream(seed).random((samples, steps)),
                         record_policy="always", require_detection=False)
    counts = {path.outcomes: path.members.size for path in paths}
    tv = 0.0
    seen = set(exact) | set(counts)
    for key in seen:
        tv += abs(counts.get(key, 0) / samples - exact.get(key, 0.0))
    return 0.5 * tv
