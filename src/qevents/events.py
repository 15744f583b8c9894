"""Event detection and collapse dynamics in the Heisenberg picture.

A frame fixes the discrete times, the propagators that transport observables
to each time, candidate outcome partitions, and (optionally) shrinking
restriction algebras modeling loss of access to past degrees of freedom.
States never evolve between events; all time dependence sits in the
projections.  An event happens at a time when the candidate partition is
close enough to the center of the restricted state's centralizer, with the
admissible closeness set by the spread of the outcome weights.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .algebras import (FiniteAlgebra, SPAN_TOL, _inclusion_residual, contains,
                       full_matrix_algebra)
from .centralizers import CentralizerReport, centralizer, expect_onto_center
from .errors import InadmissibleThresholdError, InvariantViolation
from .operators import (DEFAULT_TOL, DensityState, PartitionOfUnity, _checked_norm,
                        _unitarity_defect, as_operator, operator_norm)
from .seeding import substream

logger = logging.getLogger(__name__)

__all__ = [
    "HeisenbergFrame",
    "DetectionVerdict",
    "EventRecord",
    "BranchRecord",
    "EarliestEventReport",
    "TrajectoryResult",
    "admissible_threshold",
    "detect_event",
    "earliest_event",
    "born_probabilities",
    "collapse",
    "unrecorded_update",
    "run_trajectory",
]


def _identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


@dataclass(frozen=True, eq=False)
class HeisenbergFrame:
    """Times, propagators, candidate partitions and restriction algebras.

    ``propagators[k]`` maps observables from the first listed time to
    ``times[k]`` (so the first entry is the identity), and ``partitions[k]``
    holds the candidate partitions already expressed at ``times[k]``.
    ``restrictions[k]`` is the algebra of observables still accessible from
    ``times[k]`` on; later algebras must be contained in earlier ones.  A
    ``None`` entry stands for unrestricted access (the full matrix algebra,
    materialized lazily only when detection asks for it, so large frames used
    purely for history evaluation never pay for it).

    Derived data is cached on the instance with ``functools.cached_property``:
    currently ``full_ambient``.
    """

    times: tuple[float, ...]
    propagators: tuple[np.ndarray, ...]
    partitions: tuple[tuple[PartitionOfUnity, ...], ...]
    restrictions: tuple[FiniteAlgebra | None, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if len(times) == 0:
            raise ValueError("frame needs at least one time")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)

        props = tuple(as_operator(U) for U in self.propagators)
        if len(props) != len(times):
            raise ValueError("one propagator per time required")
        dim = props[0].shape[0]
        for k, U in enumerate(props):
            if U.shape[0] != dim:
                raise ValueError("propagators must share one dimension")
            r = _unitarity_defect(U, DEFAULT_TOL)
            if r > DEFAULT_TOL:
                raise InvariantViolation(f"propagator at time {times[k]} not unitary: {r:.3e}")
        r0 = _checked_norm(props[0] - np.eye(dim), DEFAULT_TOL)
        if r0 > DEFAULT_TOL:
            raise InvariantViolation(f"propagator at the initial time must be the identity: {r0:.3e}")
        object.__setattr__(self, "propagators", props)

        parts = []
        for k, cand in enumerate(self.partitions):
            if isinstance(cand, PartitionOfUnity):
                cand = (cand,)
            cand = tuple(cand)
            if len(cand) == 0:
                raise ValueError(f"no candidate partition at time {times[k]}")
            for P in cand:
                if P.dim != dim:
                    raise ValueError("partition dimension differs from frame dimension")
            parts.append(cand)
        if len(parts) != len(times):
            raise ValueError("one candidate list per time required")
        object.__setattr__(self, "partitions", tuple(parts))

        restr = tuple(self.restrictions)
        if len(restr) != len(times):
            raise ValueError("one restriction algebra per time required")
        full_dim = dim * dim
        for R in restr:
            if R is not None and R.dim != dim:
                raise ValueError("restriction algebra dimension differs from frame dimension")
        for k in range(len(restr) - 1):
            # later knowledge is a subset of earlier knowledge
            if restr[k] is None or restr[k].algebra_dim == full_dim:
                continue
            if restr[k + 1] is None:
                raise InvariantViolation(
                    f"restriction algebras not nested at time {times[k + 1]}: "
                    "unrestricted access cannot follow a proper restriction")
            r = _inclusion_residual(restr[k + 1], restr[k])
            if r > SPAN_TOL:
                raise InvariantViolation(
                    f"restriction algebras not nested at time {times[k + 1]}: residual {r:.3e}")
        object.__setattr__(self, "restrictions", restr)

    @property
    def dim(self) -> int:
        return self.propagators[0].shape[0]

    @cached_property
    def full_ambient(self) -> FiniteAlgebra:
        """The full matrix algebra, standing in for ``None`` restrictions."""
        return full_matrix_algebra(self.dim)

    @classmethod
    def build(cls, times, partitions, propagators=None, step_propagator=None,
              restrictions=None, dim: int | None = None) -> "HeisenbergFrame":
        """Assemble a frame, transporting base partitions when asked.

        ``partitions`` is either a per-time sequence of candidates (taken as
        already transported) or, together with ``propagators`` or
        ``step_propagator``, a single list of base partitions to conjugate
        into each time.  ``step_propagator`` S produces the propagator S^k
        for the k-th listed time.
        """
        times = tuple(float(t) for t in times)
        n = len(times)

        def infer_dim():
            if dim is not None:
                return dim
            probe = partitions
            while isinstance(probe, (list, tuple)) and probe:
                probe = probe[0]
            if isinstance(probe, PartitionOfUnity):
                return probe.dim
            raise ValueError("cannot infer frame dimension")

        d = infer_dim()
        if step_propagator is not None:
            S = as_operator(step_propagator, d)
            props = []
            U = _identity(d)
            for _ in range(n):
                props.append(U)
                U = S @ U
            props = tuple(props)
        elif propagators is not None:
            props = tuple(as_operator(U, d) for U in propagators)
        else:
            props = tuple(_identity(d) for _ in range(n))

        base_mode = (isinstance(partitions, Sequence)
                     and all(isinstance(p, PartitionOfUnity) for p in partitions)
                     and len(partitions) != 0)
        if isinstance(partitions, PartitionOfUnity):
            partitions = [partitions]
            base_mode = True
        if base_mode:
            per_time = tuple(tuple(p.conjugated(U) for p in partitions) for U in props)
        else:
            per_time = tuple(tuple(c) if not isinstance(c, PartitionOfUnity) else (c,)
                             for c in partitions)

        if restrictions is None:
            restr = tuple(None for _ in range(n))
        elif isinstance(restrictions, FiniteAlgebra):
            restr = tuple(restrictions for _ in range(n))
        else:
            restr = tuple(restrictions)
        return cls(times, props, per_time, restr)

    def index_of(self, time) -> int:
        t = float(time)
        for k, tk in enumerate(self.times):
            if tk == t:
                return k
        raise ValueError(f"time {time!r} is not in the frame")


def _ambient(frame: HeisenbergFrame, k: int) -> FiniteAlgebra:
    """Restriction algebra at step k, materializing full access on demand."""
    R = frame.restrictions[k]
    return frame.full_ambient if R is None else R


@dataclass(frozen=True)
class DetectionVerdict:
    """Outcome of the event criterion at one time for one candidate partition."""

    happened: bool
    time: float
    distance: float
    threshold: float
    partition: PartitionOfUnity
    gap: float
    admissible: bool


@dataclass(frozen=True)
class EventRecord:
    time: float
    outcome: object
    probability: float
    recorded: bool


@dataclass(frozen=True)
class BranchRecord:
    """Audit entry for one frame time inside a trajectory."""

    time: float
    fired: bool
    admissible: bool | None
    distance: float | None
    threshold: float | None
    outcome: object | None
    probability: float | None
    recorded: bool


def admissible_threshold(state: DensityState, partition: PartitionOfUnity,
                         safety: float = 0.5, tol: float = DEFAULT_TOL) -> float:
    """Safety times the smallest outcome-weight gap (``_weight_gap``); ``detect_event``
    compares its distance against ``admissible_threshold(...) / N`` for N outcomes.

    Degenerate weights (or a single outcome) admit no threshold and raise.
    """
    if not 0.0 < safety < 1.0:
        raise ValueError(f"safety factor must lie in (0, 1), got {safety!r}")
    if partition.size < 2:
        raise InadmissibleThresholdError("no admissible threshold: single-outcome partition")
    gap = _weight_gap(state, partition)
    if gap <= tol:
        raise InadmissibleThresholdError(
            f"no admissible threshold: outcome weight gap {gap:.3e}")
    return safety * gap


def _weight_gap(state: DensityState, partition: PartitionOfUnity) -> float:
    """Smallest outcome-weight gap (0 for one outcome); ``detect_event``
    compares against safety * gap / N = ``admissible_threshold(...) / N``."""
    w = [state.expect_real(P) for P in partition.projections]
    if len(w) < 2:
        return 0.0
    return min(abs(a - b) for i, a in enumerate(w) for b in w[i + 1:])


def _detect(state: DensityState, partition: PartitionOfUnity, time: float,
            restriction: FiniteAlgebra, report: CentralizerReport,
            safety: float, tol: float) -> DetectionVerdict:
    for P in partition.projections:
        ok, r = contains(restriction, P, SPAN_TOL)
        if not ok:
            raise InvariantViolation(
                f"partition not inside the restriction algebra at time {time}: residual {r:.3e}")
    distance = 0.0
    for P in partition.projections:
        ce = expect_onto_center(restriction, state, P, report=report, check_ambient=False)
        distance = max(distance, operator_norm(ce - P))
    gap = _weight_gap(state, partition)
    admissible = partition.size >= 2 and gap > tol
    if admissible:
        threshold = safety * gap / partition.size
        happened = distance <= threshold
    else:
        threshold = float("nan")
        happened = False
    return DetectionVerdict(happened, float(time), float(distance), threshold,
                            partition, float(gap), admissible)


def detect_event(frame: HeisenbergFrame, state: DensityState, time,
                 partition: PartitionOfUnity, safety: float = 0.5,
                 tol: float = DEFAULT_TOL) -> DetectionVerdict:
    """Apply the event criterion to one partition at one frame time.

    The distance is the worst deviation of the partition's projections from
    their conditional expectation onto the center of the restricted state's
    centralizer; it must come in below safety * gap / N.  An inadmissible
    weight gap yields happened=False with threshold NaN rather than an error.
    """
    if not 0.0 < safety < 1.0:
        raise ValueError(f"safety factor must lie in (0, 1), got {safety!r}")
    k = frame.index_of(time)
    restriction = _ambient(frame, k)
    report = centralizer(restriction, state)
    return _detect(state, partition, frame.times[k], restriction, report, safety, tol)


@dataclass(frozen=True, eq=False)
class EarliestEventReport:
    happened: bool
    t_min: float | None
    t_star: float | None
    verdicts: tuple[tuple[DetectionVerdict, ...], ...]


def earliest_event(frame: HeisenbergFrame, state: DensityState,
                   safety: float = 0.5, tol: float = DEFAULT_TOL) -> EarliestEventReport:
    """Scan all frame times for the first detection.

    t_min is the first time any candidate fires.  Within the maximal
    contiguous run of firing times containing t_min, t_star marks the best
    (smallest-distance) detection.  If nothing fires the report says so and
    still carries every verdict for audit.
    """
    all_verdicts = []
    for k, t in enumerate(frame.times):
        restriction = _ambient(frame, k)
        report = centralizer(restriction, state)
        row = tuple(_detect(state, p, t, restriction, report, safety, tol)
                    for p in frame.partitions[k])
        all_verdicts.append(row)
    verdicts = tuple(all_verdicts)

    fired = [any(v.happened for v in row) for row in verdicts]
    if not any(fired):
        return EarliestEventReport(False, None, None, verdicts)
    k_min = fired.index(True)
    k_end = k_min
    while k_end + 1 < len(fired) and fired[k_end + 1]:
        k_end += 1
    best_time, best_dist = None, np.inf
    for k in range(k_min, k_end + 1):
        hits = sorted((v.distance for v in verdicts[k] if v.happened))
        if len(hits) > 1 and hits[1] - hits[0] <= 1e-12:
            logger.debug("detection tie at time %s: margin %.3e", frame.times[k], hits[1] - hits[0])
        if hits[0] < best_dist:
            best_dist, best_time = hits[0], frame.times[k]
    return EarliestEventReport(True, frame.times[k_min], best_time, verdicts)


def born_probabilities(state: DensityState, partition: PartitionOfUnity,
                       tol: float = 1e-12) -> list[tuple[object, float]]:
    """Outcome weights of a partition in a state, checked to sum to one."""
    out = []
    total = 0.0
    for label, P in zip(partition.labels, partition.projections):
        v = state.expect(P)
        if abs(v.imag) > 1e-9 or v.real < -1e-9:
            raise InvariantViolation(f"outcome weight {v!r} is not a probability")
        p = max(float(v.real), 0.0)
        out.append((label, p))
        total += p
    if abs(total - 1.0) > tol:
        raise InvariantViolation(f"outcome weights sum to {total!r}, not 1")
    return out


def collapse(state: DensityState, projection: np.ndarray,
             probability: float | None = None, tol: float = DEFAULT_TOL) -> DensityState:
    """Project the state on a recorded outcome and renormalize."""
    P = as_operator(projection, state.dim)
    p = state.expect_real(P) if probability is None else float(probability)
    if p <= tol:
        raise ValueError(f"zero-probability branch: weight {p!r}")
    return DensityState(P @ state.matrix @ P / p)


def unrecorded_update(state: DensityState, partition: PartitionOfUnity) -> DensityState:
    """Incoherent sum over unrecorded outcomes; preserves the trace exactly."""
    M = np.zeros_like(state.matrix)
    for P in partition.projections:
        M += P @ state.matrix @ P
    return DensityState(M)


@dataclass(frozen=True, eq=False)
class TrajectoryResult:
    history: tuple[EventRecord, ...]
    final_state: DensityState
    branch_log: tuple[BranchRecord, ...]


def _resolve_policy(record_policy) -> Callable[[float], bool]:
    if record_policy == "always":
        return lambda t: True
    if record_policy == "never":
        return lambda t: False
    if callable(record_policy):
        return record_policy
    raise ValueError(f"record_policy must be 'always', 'never' or a callable, got {record_policy!r}")


def run_trajectory(frame: HeisenbergFrame, initial: DensityState,
                   safety: float = 0.5, record_policy="always",
                   rng_seed: int | np.random.Generator = 0,
                   require_detection: bool = True,
                   tol: float = DEFAULT_TOL) -> TrajectoryResult:
    """One stochastic trajectory through the frame.

    At each time the event criterion is evaluated for every candidate (the
    minimal-distance firing candidate wins; ties are logged).  When an event
    happens an outcome is sampled from the Born weights with the seeded
    generator, then either collapsed into the state (recorded) or summed out
    (unrecorded).  Unrecorded events stay out of the returned history but
    appear in the branch log.

    With ``require_detection=False`` the detection criterion is bypassed and
    a projective step is taken at every time; this is the reading under
    which trajectory sampling reproduces the sequential history measure.

    Exactly one uniform is drawn from the generator per fired time, in time
    order, so a caller-supplied generator advances by the number of events.
    """
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else substream(int(rng_seed))
    (path,) = _sample_paths(frame, initial, 1, lambda members, j: rng.random(members.size),
                            safety, record_policy, require_detection, tol)
    return TrajectoryResult(path.history, DensityState(path.state), path.branch_log)


class _Path(NamedTuple):
    """One distinct outcome path of a sampled batch and the samples that took it."""

    members: np.ndarray                  # sample indices, ascending
    history: tuple[EventRecord, ...]
    branch_log: tuple[BranchRecord, ...]
    state: np.ndarray                    # final density matrix of the path


def _sample_paths(frame: HeisenbergFrame, initial: DensityState, samples: int,
                  draw: Callable[[np.ndarray, int], np.ndarray],
                  safety: float = 0.5, record_policy="always",
                  require_detection: bool = True, tol: float = DEFAULT_TOL,
                  steps: int | None = None) -> Iterator[_Path]:
    """Sample ``samples`` trajectories over the first ``steps`` frame times at once.

    Samples that drew the same outcomes so far share one state, so the batch
    advances as groups {outcome prefix -> state}: the Born weights (and, with
    detection, the centralizer and the event verdict) are computed once per
    group, and ``draw(members, j)`` supplies the uniforms of the group's
    samples for their j-th event (counting from 0), which a single
    ``searchsorted`` turns into outcomes.  Each sample thus uses one uniform
    per fired time, in time order, exactly as a one-at-a-time loop would.
    Groups are walked depth first and each distinct path is yielded as soon
    as it is complete, so at most steps x (outcomes per time) states are
    alive at once, whatever the batch size.
    """
    steps = len(frame.times) if steps is None else steps
    should_record = _resolve_policy(record_policy)
    if not require_detection and any(len(c) != 1 for c in frame.partitions[:steps]):
        raise ValueError("unconditional stepping needs exactly one candidate per time")

    pending = [(0, initial.matrix, np.arange(samples), ())]
    while pending:
        k, rho, members, log = pending.pop()
        if k == steps:
            herm = float(np.linalg.norm(rho - rho.conj().T))
            drift = abs(float(rho.trace().real) - 1.0)
            if herm > 1e-8 or drift > 1e-8:
                raise InvariantViolation(
                    "trajectory state left the density-matrix manifold "
                    f"(hermiticity defect {herm:.3e}, trace drift {drift:.3e})")
            history = tuple(EventRecord(b.time, b.outcome, b.probability, True)
                            for b in log if b.recorded)
            yield _Path(members, history, log, rho)
            continue
        t = frame.times[k]
        verdict = None
        if require_detection:
            state_k = DensityState(rho, validate=False)
            restriction = _ambient(frame, k)
            report = centralizer(restriction, state_k)
            verdicts = [_detect(state_k, p, t, restriction, report, safety, tol)
                        for p in frame.partitions[k]]
            firing = sorted((v for v in verdicts if v.happened), key=lambda v: v.distance)
            if not firing:
                skipped = BranchRecord(t, False, any(v.admissible for v in verdicts),
                                       min(v.distance for v in verdicts),
                                       None, None, None, False)
                pending.append((k + 1, rho, members, log + (skipped,)))
                continue
            if len(firing) > 1 and firing[1].distance - firing[0].distance <= 1e-12:
                logger.debug("candidate tie at time %s: margin %.3e", t,
                             firing[1].distance - firing[0].distance)
            verdict = firing[0]
            partition = verdict.partition
        else:
            partition = frame.partitions[k][0]

        stack = partition.stack
        weights = np.einsum("ab,nba->n", rho, stack).real
        np.clip(weights, 0.0, None, out=weights)
        cum = np.cumsum(weights)
        total = cum[-1]
        if total <= 0.0:
            raise InvariantViolation(f"total branch weight vanished at time {t}")
        fired = sum(b.fired for b in log)
        idx = np.searchsorted(cum, draw(members, fired) * total, side="right")
        np.minimum(idx, len(cum) - 1, out=idx)
        recorded = bool(should_record(t))
        if not recorded:
            dephased = sum(P @ rho @ P for P in stack)
        children = []
        for j in np.flatnonzero(np.bincount(idx)).tolist():
            p = float(weights[j] / total)
            entry = BranchRecord(t, True,
                                 verdict.admissible if verdict else None,
                                 verdict.distance if verdict else None,
                                 verdict.threshold if verdict else None,
                                 partition.labels[j], p, recorded)
            child = stack[j] @ rho @ stack[j] / weights[j] if recorded else dephased
            children.append((k + 1, child, members[idx == j], log + (entry,)))
        pending.extend(reversed(children))
