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
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .algebras import (FiniteAlgebra, SPAN_TOL, _inclusion_residual, contains,
                       full_matrix_algebra)
from .centralizers import CentralizerReport, _center_distance, _state_in_frame, centralizer
from .errors import InadmissibleThresholdError, InvariantViolation
from .operators import (DEFAULT_TOL, DensityState, PartitionOfUnity, _REALNESS_TOL,
                        _checked_norm, _expectations, _unitarity_defect, as_operator)
from .seeding import _stream_uniforms, substream

logger = logging.getLogger(__name__)

#: numbers one chunk of tree nodes may hold, here and in the exact walk of
#: ``histories``; bounds the memory of both
_CHUNK_ELEMENTS = 1 << 12

__all__ = [
    "HeisenbergFrame",
    "DetectionVerdict",
    "EventRecord",
    "BranchRecord",
    "EarliestEventReport",
    "TrajectoryResult",
    "SampledPath",
    "admissible_threshold",
    "detect_event",
    "earliest_event",
    "born_probabilities",
    "collapse",
    "unrecorded_update",
    "run_trajectory",
    "sample_trajectories",
]


def _identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


class HeisenbergFrame:
    """Times, propagators, candidate partitions and restriction algebras.

    ``propagators[k]`` maps observables from the first listed time to
    ``times[k]`` (so the first entry is the identity), and ``partitions[k]``
    holds the candidate partitions already expressed at ``times[k]``.
    ``restrictions[k]`` is the algebra of observables still accessible from
    ``times[k]`` on; later algebras must be contained in earlier ones.  A
    ``None`` entry stands for unrestricted access (the full matrix algebra,
    materialized lazily only when detection asks for it, so large frames used
    purely for history evaluation never pay for it).  ``propagators`` given
    as None stands for the identity at every time; the frame then holds no
    d x d array of its own, and its dimension is that of the partitions.

    Derived data is cached on the instance with ``functools.cached_property``:
    ``full_ambient``, and ``propagators`` when given as None (one shared,
    read-only identity matrix, materialized on first read).  The restriction
    check of each of the frame's own candidates is cached in a dict keyed by
    (time index, candidate index), filled by ``_outside_restriction``.
    """

    def __init__(self, times, propagators, partitions, restrictions):
        times = tuple(float(t) for t in times)
        if len(times) == 0:
            raise ValueError("frame needs at least one time")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        self.times = times

        dim = None
        if propagators is not None:
            props = tuple(as_operator(U) for U in propagators)
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
            self.propagators = props

        parts = []
        for k, cand in enumerate(partitions):
            if isinstance(cand, PartitionOfUnity):
                cand = (cand,)
            cand = tuple(cand)
            if len(cand) == 0:
                raise ValueError(f"no candidate partition at time {times[k]}")
            for P in cand:
                dim = P.dim if dim is None else dim
                if P.dim != dim:
                    raise ValueError("partition dimension differs from frame dimension")
            parts.append(cand)
        if len(parts) != len(times):
            raise ValueError("one candidate list per time required")
        self.partitions = tuple(parts)
        self.dim = dim

        restr = tuple(restrictions)
        if len(restr) != len(times):
            raise ValueError("one restriction algebra per time required")
        full_dim = dim * dim
        for R in restr:
            if R is not None and R.dim != dim:
                raise ValueError("restriction algebra dimension differs from frame dimension")
        for k in range(len(restr) - 1):
            # later knowledge is a subset of earlier knowledge; an algebra that
            # repeats lies in itself, unchecked
            if restr[k] is None or restr[k + 1] is restr[k] or restr[k].algebra_dim == full_dim:
                continue
            if restr[k + 1] is None:
                raise InvariantViolation(
                    f"restriction algebras not nested at time {times[k + 1]}: "
                    "unrestricted access cannot follow a proper restriction")
            r = _inclusion_residual(restr[k + 1], restr[k])
            if r > SPAN_TOL:
                raise InvariantViolation(
                    f"restriction algebras not nested at time {times[k + 1]}: residual {r:.3e}")
        self.restrictions = restr
        self._restriction_checks: dict[tuple[int, int], float | None] = {}

    @cached_property
    def propagators(self) -> tuple[np.ndarray, ...]:
        """Identity propagators, materialized on first read (given as None)."""
        eye = _identity(self.dim)
        eye.setflags(write=False)
        return (eye,) * len(self.times)

    @cached_property
    def full_ambient(self) -> FiniteAlgebra:
        """The full matrix algebra, standing in for ``None`` restrictions."""
        return full_matrix_algebra(self.dim)

    @classmethod
    def build(cls, times, partitions, propagators=None, step_propagator=None,
              restrictions=None) -> "HeisenbergFrame":
        """Assemble a frame, transporting base partitions when asked.

        ``partitions`` is either a per-time sequence of candidates (taken as
        already transported) or, together with ``propagators`` or
        ``step_propagator``, a single list of base partitions to conjugate
        into each time.  ``step_propagator`` S produces the propagator S^k
        for the k-th listed time.  With neither, every propagator is the
        identity: the frame gets None (no d x d array), and base partitions
        are used as they are at every time.
        """
        times = tuple(float(t) for t in times)
        n = len(times)

        probe = partitions
        while isinstance(probe, (list, tuple)) and probe:
            probe = probe[0]
        if not isinstance(probe, PartitionOfUnity):
            raise ValueError("cannot infer frame dimension")
        d = probe.dim
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
            props = None

        base_mode = (isinstance(partitions, Sequence)
                     and all(isinstance(p, PartitionOfUnity) for p in partitions)
                     and len(partitions) != 0)
        if isinstance(partitions, PartitionOfUnity):
            partitions = [partitions]
            base_mode = True
        if base_mode and props is None:
            per_time = (tuple(partitions),) * n
        elif base_mode:
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

    def _outside_restriction(self, k: int, partition: PartitionOfUnity) -> float | None:
        """Residual of the partition's first projection outside the restriction
        at step k, or None if every projection lies inside.

        Cached for the frame's own candidates at step k, recognized by
        identity; any other partition is checked again on every call, so the
        cache holds at most one entry per candidate.
        """
        key = next(((k, i) for i, c in enumerate(self.partitions[k]) if c is partition), None)
        if key in self._restriction_checks:
            return self._restriction_checks[key]
        restriction = _ambient(self, k)
        residual = None
        for P in partition.projections:
            ok, r = contains(restriction, P, SPAN_TOL)
            if not ok:
                residual = r
                break
        if key is not None:
            self._restriction_checks[key] = residual
        return residual

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
    """Outcome of the event criterion at one time for one candidate partition.

    ``weights`` are tr(rho P_j) in label order: ``gap`` is read from them, and
    a trajectory that fires on the verdict draws its outcome from them.
    """

    happened: bool
    time: float
    distance: float
    threshold: float
    partition: PartitionOfUnity
    gap: float
    admissible: bool
    weights: tuple[float, ...]


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
                         safety: float = 0.5) -> float:
    """Safety times the smallest outcome-weight gap (``_weight_gap``); ``detect_event``
    compares its distance against ``admissible_threshold(...) / N`` for N outcomes.

    Degenerate weights (gap at most ``DEFAULT_TOL``) or a single outcome
    admit no threshold and raise.
    """
    if not 0.0 < safety < 1.0:
        raise ValueError(f"safety factor must lie in (0, 1), got {safety!r}")
    if partition.size < 2:
        raise InadmissibleThresholdError("no admissible threshold: single-outcome partition")
    gap = _weight_gap(_outcome_weights(state, partition))
    if gap <= DEFAULT_TOL:
        raise InadmissibleThresholdError(
            f"no admissible threshold: outcome weight gap {gap:.3e}")
    return safety * gap


def _outcome_weights(state: DensityState, partition: PartitionOfUnity) -> tuple[float, ...]:
    """tr(rho P_j) in label order, each checked real (``_expectations``)."""
    return tuple(_expectations(state.matrix, partition.stack, _REALNESS_TOL).tolist())


def _weight_gap(weights: tuple[float, ...]) -> float:
    """Smallest gap between outcome weights (0 for one outcome); ``detect_event``
    compares against safety * gap / N = ``admissible_threshold(...) / N``."""
    return min((abs(a - b) for i, a in enumerate(weights) for b in weights[i + 1:]), default=0.0)


def _detect(frame: HeisenbergFrame, k: int, state: DensityState,
            partition: PartitionOfUnity, report: CentralizerReport, R: np.ndarray,
            safety: float) -> DetectionVerdict:
    """The event criterion for one candidate, on the state's report and
    R = ``_state_in_frame(report, state)``."""
    time = frame.times[k]
    r = frame._outside_restriction(k, partition)
    if r is not None:
        raise InvariantViolation(
            f"partition not inside the restriction algebra at time {time}: residual {r:.3e}")
    distance = _center_distance(report, R, partition.stack)
    weights = _outcome_weights(state, partition)
    gap = _weight_gap(weights)
    admissible = partition.size >= 2 and gap > DEFAULT_TOL
    if admissible:
        threshold = safety * gap / partition.size
        happened = distance <= threshold
    else:
        threshold = float("nan")
        happened = False
    return DetectionVerdict(happened, float(time), float(distance), threshold,
                            partition, float(gap), admissible, weights)


def detect_event(frame: HeisenbergFrame, state: DensityState, time,
                 partition: PartitionOfUnity, safety: float = 0.5) -> DetectionVerdict:
    """Apply the event criterion to one partition at one frame time.

    The distance is the worst deviation of the partition's projections from
    their conditional expectation onto the center of the restricted state's
    centralizer; it must come in below safety * gap / N.  An inadmissible
    weight gap yields happened=False with threshold NaN rather than an error.
    """
    if not 0.0 < safety < 1.0:
        raise ValueError(f"safety factor must lie in (0, 1), got {safety!r}")
    return _verdicts(frame, frame.index_of(time), state, (partition,), safety)[0]


def _verdicts(frame: HeisenbergFrame, k: int, state: DensityState, candidates,
              safety: float) -> list[DetectionVerdict]:
    """``_detect`` for each candidate at frame time k, on one centralizer report
    and one R = F* rho F."""
    report = centralizer(_ambient(frame, k), state)
    R = _state_in_frame(report, state)
    return [_detect(frame, k, state, p, report, R, safety) for p in candidates]


@dataclass(frozen=True, eq=False)
class EarliestEventReport:
    happened: bool
    t_min: float | None
    t_star: float | None
    verdicts: tuple[tuple[DetectionVerdict, ...], ...]


def earliest_event(frame: HeisenbergFrame, state: DensityState,
                   safety: float = 0.5) -> EarliestEventReport:
    """Scan all frame times for the first detection.

    t_min is the first time any candidate fires.  Within the maximal
    contiguous run of firing times containing t_min, t_star marks the best
    (smallest-distance) detection.  If nothing fires the report says so and
    still carries every verdict for audit.
    """
    verdicts = tuple(tuple(_verdicts(frame, k, state, frame.partitions[k], safety))
                     for k in range(len(frame.times)))

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


def born_probabilities(state: DensityState,
                       partition: PartitionOfUnity) -> list[tuple[object, float]]:
    """Outcome weights of a partition in a state, checked to sum to one within 1e-12."""
    values = _expectations(state.matrix, partition.stack).tolist()
    for v in values:
        if abs(v.imag) > 1e-9 or v.real < -1e-9:
            raise InvariantViolation(f"outcome weight {v!r} is not a probability")
    out = [(label, max(v.real, 0.0)) for label, v in zip(partition.labels, values)]
    total = sum(p for _, p in out)
    if abs(total - 1.0) > 1e-12:
        raise InvariantViolation(f"outcome weights sum to {total!r}, not 1")
    return out


def collapse(state: DensityState, projection: np.ndarray) -> DensityState:
    """Project the state on a recorded outcome and renormalize."""
    P = as_operator(projection, state.dim)
    p = state.expect_real(P)
    if p <= DEFAULT_TOL:
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
                   require_detection: bool = True) -> TrajectoryResult:
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
                            safety, record_policy, require_detection)
    return TrajectoryResult(path.history, DensityState(path.state), path.branch_log)


def sample_trajectories(frame: HeisenbergFrame, initial: DensityState, samples: int,
                        seed: int = 0, safety: float = 0.5, record_policy="always",
                        require_detection: bool = True) -> Iterator[SampledPath]:
    """``samples`` trajectories through the frame, one ``SampledPath`` per distinct
    outcome path.

    Sample i is the trajectory ``run_trajectory(..., rng_seed=substream(seed, i))``
    would give: its j-th event draws the j-th uniform of ``substream(seed, i)``,
    whatever the other samples draw.  The samples advance together, grouped by
    outcome prefix, and the paths come out in the order of a depth-first walk
    over outcome labels, each with the ascending indices of its samples; a
    path's records are built only when read.  The uniforms are formed in one
    vectorized pass (``seeding._stream_uniforms``).
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")
    block = _stream_uniforms(seed, samples, len(frame.times))
    return _block_paths(frame, initial, block, safety=safety, record_policy=record_policy,
                        require_detection=require_detection)


def _block_paths(frame: HeisenbergFrame, initial: DensityState, block: np.ndarray,
                 **kwargs) -> Iterator[SampledPath]:
    """``_sample_paths`` over the first ``block.shape[1]`` frame times, sample i
    taking the uniform of its j-th event from ``block[i, j]``."""
    samples, steps = block.shape
    flat = block.ravel()
    return _sample_paths(frame, initial, samples, lambda members, j: flat[members * steps + j],
                         steps=steps, **kwargs)


class SampledPath:
    """One distinct outcome path of a sampled batch and the samples that took it.

    ``members`` holds the samples' indices, ascending, and ``state`` the
    path's final density matrix.  ``entries`` holds one plain tuple of
    ``BranchRecord`` fields per time; ``branch_log``, ``history`` and
    ``outcomes`` are built from them on first read
    (``functools.cached_property``).
    """

    def __init__(self, members: np.ndarray, state: np.ndarray, entries: tuple):
        self.members = members
        self.state = state
        self.entries = entries

    @cached_property
    def branch_log(self) -> tuple[BranchRecord, ...]:
        return tuple(BranchRecord(*e) for e in self.entries)

    @cached_property
    def history(self) -> tuple[EventRecord, ...]:
        return tuple(EventRecord(e[0], e[5], e[6], True) for e in self.entries if e[7])

    @cached_property
    def outcomes(self) -> tuple:
        """The labels of the recorded events, in time order."""
        return tuple(e[5] for e in self.entries if e[7])


def _sample_paths(frame: HeisenbergFrame, initial: DensityState, samples: int,
                  draw: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  safety: float = 0.5, record_policy="always",
                  require_detection: bool = True,
                  steps: int | None = None) -> Iterator[SampledPath]:
    """Sample ``samples`` trajectories over the first ``steps`` frame times at once.

    Samples that drew the same outcomes so far share one state, so the batch
    advances as groups {outcome prefix -> state}, a chunk of groups one time
    step at a time.  A chunk holds its groups' states stacked (G, d, d), per
    sample its index, its group and its event count, and per group its
    record entries as plain tuples and, with detection, its
    ``DensityState``.  At step k the event verdict (with detection: one
    centralizer per group, the minimal-distance firing candidate wins) and
    the Born weights (the winning verdict's ``weights``, or one
    ``_expectations`` call without detection) are computed per group; a group
    with no firing candidate carries over without drawing, keeping its
    ``DensityState`` and so the centralizer reports kept on it (the root's
    is ``initial`` itself; a child of a firing group gets a new one).  One
    call ``draw(members, j)`` then supplies a uniform for each sample of
    the firing groups, ``j[i]`` being the number of events sample
    ``members[i]`` has seen (counting from 0), so each sample uses one
    uniform per fired time, in time order, exactly as a one-at-a-time loop
    would.  A uniform u becomes outcome min(searchsorted(cum, u * total,
    "right"), m - 1) of its group's cumulative weights, and the samples
    regroup by (group, outcome) in label order.  A recorded outcome j
    collapses its group to ``F[j] @ rho @ F[j] / w[j]`` in one stacked
    product; an unrecorded step dephases each group instead.

    The children are cut into chunks of at most ``_CHUNK_ELEMENTS`` numbers
    (one group each if a group is larger) and pushed depth first, so paths
    come out in the order of a depth-first walk over outcome labels, each
    as soon as its chunk is complete, and memory stays within about steps x
    (outcomes per time) chunks whatever the number of groups.  A path's
    records are built only when read (``SampledPath``).
    """
    steps = len(frame.times) if steps is None else steps
    should_record = _resolve_policy(record_policy)
    if not require_detection and any(len(c) != 1 for c in frame.partitions[:steps]):
        raise ValueError("unconditional stepping needs exactly one candidate per time")

    if not np.isfinite(initial.matrix).all():
        raise InvariantViolation("initial state is not finite")
    # a chunk: step, states (G, d, d), then per sample its index, its group
    # and its event count, then per group its record entries and, with
    # detection, its DensityState (None until ``_step_verdicts`` builds it)
    zeros = np.zeros(samples, dtype=np.intp)     # never written in place
    pending = [(0, initial.matrix[None], np.arange(samples), zeros, zeros, [()],
                [initial] if require_detection else None)]
    while pending:
        k, rho, members, gid, seen, entries, states = pending.pop()
        if k == steps:
            yield from _leaves(rho, members, gid, entries)
            continue
        t = frame.times[k]
        rows, parts, heads, weights, carried, shared = _step_verdicts(frame, k, rho, states,
                                                                      safety)
        if not rows:    # no group fires: the chunk carries over as it is
            pending.append((k + 1, rho, members, gid, seen,
                            [e + (carried[g],) for g, e in enumerate(entries)], states))
            continue
        if carried:     # row of each firing group; -1 for a group carried over
            row_of = np.full(len(rho), -1)
            row_of[rows] = np.arange(len(rows))
            row = row_of[gid]
            drawing = row >= 0
            row, row_of = row[drawing], row_of.tolist()
        else:
            row, drawing, row_of = gid, slice(None), range(len(rho))
        if shared is None:      # zero weights pad the rows to a common width
            width = max(p.size for p in parts)
            padded = np.zeros((len(rows), width))
            for r, w in enumerate(weights):
                padded[r, :len(w)] = w
            weights = padded
        else:
            width = shared.size
            weights = np.concatenate(weights).reshape(-1, width)
        weights = np.maximum(weights.real, 0.0)
        cum = np.add.accumulate(weights, axis=1)
        total = cum[:, -1]
        totals = total.tolist()
        if not all(0.0 < x < math.inf for x in totals):
            raise InvariantViolation(
                f"total branch weight vanished or is not finite at time {t}")
        # min(searchsorted(cum, u * total, "right"), m - 1) is a count over the
        # columns below a group's last (+inf past it), as the clip keeps cum monotone
        cut = cum[:, :-1]
        if shared is None:
            last = np.array([p.size - 1 for p in parts])
            cut = np.where(np.arange(width - 1) < last[:, None], cut, np.inf)
        value = draw(members[drawing], seen[drawing]) * total[row]
        # regroup by key = (group, outcome) without a sort: child ids in label order
        key = gid * width
        drawn = key[drawing]
        for column in cut.T:
            drawn = drawn + (column[row] <= value)
        if carried:
            key[drawing] = drawn
        else:
            key = drawn
        seen = seen + (drawing if carried else 1)
        recorded = bool(should_record(t))

        counts = np.bincount(key).tolist()
        kids = [q for q, c in enumerate(counts) if c]
        split = len(kids) > len(rho)    # else each group has one child, of its index
        child_gid = (np.cumsum(np.array(counts) > 0) - 1)[key] if split else gid
        weight_rows = weights.tolist()
        child_entries, fired_at, f_parent, f_row, f_label, f_weight = [], [], [], [], [], []
        for c, q in enumerate(kids):
            g, j = divmod(q, width)
            if g in carried:
                entry = carried[g]
            else:
                r = row_of[g]
                w = weight_rows[r][j]
                fired_at.append(c)
                f_parent.append(g)
                f_row.append(r)
                f_label.append(j)
                f_weight.append(w)
                entry = (t, True, *heads[r], parts[r].labels[j], w / totals[r], recorded)
            child_entries.append(entries[g] + (entry,))
        # a group carried over keeps its state object, and so its reports
        child_states = None if states is None else [
            states[q // width] if q // width in carried else None for q in kids]
        if recorded:
            if shared is None:
                F = np.stack([parts[r].stack[j] for r, j in zip(f_row, f_label)])
            else:
                F = shared.stack[f_label]
            grown = F @ (rho[f_parent] if split or carried else rho) @ F
            grown /= np.array(f_weight)[:, None, None]
        else:
            dephased = [sum(P @ rho[g] @ P for P in p.stack) for g, p in zip(rows, parts)]
            grown = np.array([dephased[r] for r in f_row])
        if carried:
            children = rho[[q // width for q in kids]]
            children[fired_at] = grown
        else:
            children = grown

        per = max(1, _CHUNK_ELEMENTS // rho[0].size)
        if len(kids) <= per:
            pending.append((k + 1, children, members, child_gid, seen, child_entries,
                            child_states))
            continue
        for a in reversed(range(0, len(kids), per)):
            sub = (child_gid >= a) & (child_gid < a + per)
            pending.append((k + 1, children[a:a + per], members[sub], child_gid[sub] - a,
                            seen[sub], child_entries[a:a + per],
                            None if child_states is None else child_states[a:a + per]))


def _step_verdicts(frame: HeisenbergFrame, k: int, rho: np.ndarray, states: list | None,
                   safety: float):
    """The event verdicts at step k for each group of the (G, d, d) ``rho``.

    ``states`` holds each group's ``DensityState``, or None where the group
    has none yet; one is built for it here and stored in the list.  Returns
    the firing groups, each one's winning partition, its (admissible,
    distance, threshold) and its weights (the verdict's), the entry of each
    group that carries over without an event, and the partition all firing
    groups share (None if they differ).  Without detection (``states`` None)
    every group fires with the step's one candidate, on complex weights.
    """
    if states is None:
        partition = frame.partitions[k][0]
        weights = [_expectations(r, partition.stack) for r in rho]
        return (range(len(rho)), [partition] * len(rho), [(None, None, None)] * len(rho),
                weights, {}, partition)
    t = frame.times[k]
    rows, parts, heads, weights, carried = [], [], [], [], {}
    for g in range(len(rho)):
        state = states[g]
        if state is None:
            state = states[g] = DensityState(rho[g], validate=False)
        verdicts = _verdicts(frame, k, state, frame.partitions[k], safety)
        firing = sorted((v for v in verdicts if v.happened), key=lambda v: v.distance)
        if not firing:
            carried[g] = (t, False, any(v.admissible for v in verdicts),
                          min(v.distance for v in verdicts), None, None, None, False)
            continue
        if len(firing) > 1 and firing[1].distance - firing[0].distance <= 1e-12:
            logger.debug("candidate tie at time %s: margin %.3e", t,
                         firing[1].distance - firing[0].distance)
        v = firing[0]
        rows.append(g)
        parts.append(v.partition)
        heads.append((v.admissible, v.distance, v.threshold))
        weights.append(v.weights)
    shared = parts[0] if parts and all(p is parts[0] for p in parts) else None
    return rows, parts, heads, weights, carried, shared


def _leaves(rho: np.ndarray, members: np.ndarray, gid: np.ndarray, entries: list):
    """The paths of a chunk at the last step, after one batched density check."""
    defect = rho - rho.conj().transpose(0, 2, 1)
    herm = np.einsum("gab,gab->g", defect.conj(), defect).real.tolist()
    drift = (rho.trace(axis1=1, axis2=2).real - 1.0).tolist()
    for h, e in zip(herm, drift):
        h, e = math.sqrt(h), abs(e)
        if not (h <= 1e-8 and e <= 1e-8):
            raise InvariantViolation(
                "trajectory state left the density-matrix manifold "
                f"(hermiticity defect {h:.3e}, trace drift {e:.3e})")
    if len(rho) == 1:
        yield SampledPath(members, rho[0], entries[0])
        return
    ordered = members[np.argsort(gid, kind="stable")]
    ends = np.bincount(gid, minlength=len(rho)).cumsum().tolist()
    for g, (a, b) in enumerate(zip([0] + ends, ends)):
        yield SampledPath(ordered[a:b], rho[g], entries[g])
