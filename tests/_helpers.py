"""Shared random generators and reference oracles for the test suite.

Everything is driven by explicit ``numpy`` Generators so failures
reproduce; tests derive their generator from a frozen seed.
"""

import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from qevents import (DEFAULT_TOL, DEGENERACY_TOL, RANK_RCOND, SPAN_TOL, BranchRecord,
                     DensityState, DetectionVerdict, EventRecord, FiniteAlgebra,
                     InvariantViolation, PartitionOfUnity, TrajectoryResult, adjoint,
                     ambient_representative, antihermitian_defect, centralizer, contains,
                     operator_norm, spectral_decompose, substream)
from qevents.centralizers import _state_in_frame
from qevents.events import _ambient, _detect, _resolve_policy, _sample_paths, _weight_gap
from qevents.histories import enumerate_protocols, lsw_probability
from qevents.mesoscopic import _lgamma, _log_posterior_rows, _logsumexp, _xlogy


def rng(seed: int, stream: int = 0) -> np.random.Generator:
    return substream(seed, stream)


def random_complex(gen: np.random.Generator, dim: int) -> np.ndarray:
    return gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))


def random_hermitian(gen: np.random.Generator, dim: int) -> np.ndarray:
    G = random_complex(gen, dim)
    return (G + G.conj().T) / 2.0


def random_unitary(gen: np.random.Generator, dim: int) -> np.ndarray:
    Q, R = np.linalg.qr(random_complex(gen, dim))
    # fix the phase ambiguity so the distribution is Haar
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_density(gen: np.random.Generator, dim: int, rank: int | None = None) -> DensityState:
    r = dim if rank is None else rank
    G = gen.standard_normal((dim, r)) + 1j * gen.standard_normal((dim, r))
    M = G @ G.conj().T
    return DensityState(M / np.trace(M).real)


def random_blocks(gen: np.random.Generator, dim: int, blocks: int) -> list[np.ndarray]:
    """Indicator projections of a random partition of the basis indices."""
    assert 1 <= blocks <= dim
    labels = np.concatenate([np.arange(blocks), gen.integers(0, blocks, dim - blocks)])
    gen.shuffle(labels)
    projs = []
    for b in range(blocks):
        P = np.zeros((dim, dim), dtype=complex)
        idx = np.flatnonzero(labels == b)
        P[idx, idx] = 1.0
        projs.append(P)
    return projs


def random_partition(gen: np.random.Generator, dim: int, blocks: int,
                     rotate: bool = True) -> PartitionOfUnity:
    projs = random_blocks(gen, dim, blocks)
    if rotate:
        U = random_unitary(gen, dim)
        projs = [U.conj().T @ P @ U for P in projs]
    return PartitionOfUnity(tuple(range(len(projs))), tuple(projs))


def block_algebra() -> FiniteAlgebra:
    """M_2 (+) C on C^3: two minimal central projections, of ranks 2 and 1."""
    units = []
    for i, j in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]:
        E = np.zeros((3, 3), dtype=complex)
        E[i, j] = 1.0
        units.append(E)
    return FiniteAlgebra.from_span(units)


def tensor_ambient(gen: np.random.Generator, n: int, m: int, scalars: int = 0) -> FiniteAlgebra:
    """M_n (x) 1_m (+) C^scalars in a Haar-random frame."""
    d = n * m + scalars
    return FiniteAlgebra(d, random_unitary(gen, d), ((n, m),) + ((1, 1),) * scalars)


def in_tensor_block(ambient: FiniteAlgebra, x: np.ndarray, rest=None) -> np.ndarray:
    """V (x (x) 1_m (+) diag(rest)) V* for the first block (n, m) of the ambient."""
    n, m = ambient.blocks[0]
    d = ambient.dim
    inner = np.zeros((d, d), dtype=complex)
    inner[:n * m, :n * m] = np.kron(x, np.eye(m))
    if rest is not None:
        inner[n * m:, n * m:] = np.diag(rest)
    V = ambient.unitary
    return V @ inner @ adjoint(V)


def tensor_state(gen: np.random.Generator, ambient: FiniteAlgebra, q: np.ndarray,
                 rest=None) -> DensityState:
    """A state whose in-ambient representative is ``in_tensor_block(ambient, q, rest)``
    normalized, plus a part outside the ambient, as large as positivity allows."""
    Q = in_tensor_block(ambient, q, rest)
    Q /= np.trace(Q).real
    H = random_hermitian(gen, ambient.dim)
    outside = H - ambient.project(H)[0]
    size = operator_norm(outside)
    if size > 1e-12:
        Q = Q + 0.5 * np.linalg.eigvalsh(Q).min() / size * outside
    return DensityState(Q)


# -- span oracles ------------------------------------------------------------
#
# Generic linear algebra on the span of an algebra, held as HS-orthonormal
# rows of a (k, dim^2) array: the reference path for the closed forms that
# ``qevents.algebras`` reads off the Wedderburn form (V, blocks).


def vec(ops) -> np.ndarray:
    """Stack matrices as rows of a (k, dim^2) coefficient array."""
    return np.stack([np.asarray(A, dtype=complex).reshape(-1) for A in ops])


def unvec(rows: np.ndarray, dim: int) -> tuple[np.ndarray, ...]:
    return tuple(row.reshape(dim, dim).copy() for row in rows)


def orthonormal_rows(rows: np.ndarray, rcond: float = RANK_RCOND) -> np.ndarray:
    """Orthonormal basis (as rows) of the row span, via rank-revealing SVD."""
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1])
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return rows[:0]
    return vh[s > rcond * s[0]]


def span_rows(algebra: FiniteAlgebra) -> np.ndarray:
    """HS-orthonormal rows spanning an algebra, from its basis."""
    return vec(algebra.basis)


def reference_residual(rows: np.ndarray, X: np.ndarray) -> float:
    """HS norm of the component of X orthogonal to the row span."""
    v = np.asarray(X, dtype=complex).reshape(-1)
    return float(np.linalg.norm(v - rows.T @ (rows.conj() @ v)))


def reference_project(rows: np.ndarray, X: np.ndarray) -> np.ndarray:
    """HS projection of X onto the row span."""
    X = np.asarray(X, dtype=complex)
    return (rows.T @ (rows.conj() @ X.reshape(-1))).reshape(X.shape)


def reference_commutant(rows: np.ndarray, dim: int, rcond: float = RANK_RCOND) -> np.ndarray:
    """Rows spanning the commutant, the nullspace of X -> [B, X] over the span.

    Solves [B, X] = 0 for every row B as one stacked linear map on
    vectorized X; the nullspace rows come out HS-orthonormal.
    """
    eye = np.eye(dim)
    # row-major vec: vec(BX - XB) = (B (x) 1 - 1 (x) B^T) vec(X)
    M = np.vstack([np.kron(B, eye) - np.kron(eye, B.T) for B in unvec(rows, dim)])
    _, s, vh = np.linalg.svd(M, full_matrices=False)
    # floor the reference scale at 1: the rows are HS-normalized, so an
    # all-noise constraint matrix (everything commutes) must have rank 0
    cutoff = rcond * max(s[0], 1.0) if s.size else 0.0
    return vh[int(np.sum(s > cutoff)):].conj()


def reference_intersection(rows_a: np.ndarray, rows_b: np.ndarray,
                           rcond: float = RANK_RCOND) -> np.ndarray:
    """Orthonormal rows spanning the intersection of two row spans."""
    # Pairs (x, y) with A^T x = B^T y make up the nullspace of [A^T, -B^T].
    stacked = np.hstack([rows_a.T, -rows_b.T])
    _, s, vh = np.linalg.svd(stacked)
    cutoff = rcond * max(s[0], 1.0) if s.size else 0.0
    null = vh[int(np.sum(s > cutoff)):].conj()
    if null.shape[0] == 0:
        return rows_a[:0]
    return orthonormal_rows(null[:, : rows_a.shape[0]] @ rows_a, rcond)


def reference_center(rows: np.ndarray, dim: int) -> np.ndarray:
    """Rows spanning the intersection of the span with its commutant."""
    return reference_intersection(rows, reference_commutant(rows, dim))


def reference_check_closure(rows: np.ndarray, dim: int, tol: float = SPAN_TOL) -> None:
    """Raise unless the span is closed under adjoints and all pairwise products."""
    mats = np.stack(unvec(rows, dim))
    for k, B in enumerate(mats):
        r = reference_residual(rows, adjoint(B))
        if r > tol:
            raise InvariantViolation(f"span not *-closed: adjoint of basis {k} exits by {r:.3e}")
    m = len(mats)
    prods = np.einsum("aij,bjk->abik", mats, mats).reshape(m * m, dim * dim)
    resid = prods - (prods @ rows.conj().T) @ rows
    worst = float(np.linalg.norm(resid, axis=1).max())
    if worst > tol:
        raise InvariantViolation(f"span not multiplicatively closed: product exits by {worst:.3e}")


def reference_minimal_projections(rows: np.ndarray, dim: int,
                                  tol: float = SPAN_TOL) -> tuple[np.ndarray, ...]:
    """Minimal projections of an abelian span containing the identity.

    A generic Hermitian element of the span separates the atoms; its
    clustered eigenprojections are exactly the minimal projections.  The
    draw is retried with fresh deterministic coefficients if an unlucky
    combination merges two atoms.
    """
    basis = unvec(rows, dim)
    for A in basis:
        for B in basis:
            if operator_norm(A @ B - B @ A) > tol:
                raise InvariantViolation("minimal projections need an abelian algebra")
    herms = [H for B in basis for H in ((B + adjoint(B)) / 2.0, (B - adjoint(B)) / 2.0j)]
    for attempt in range(8):
        coeff = np.random.default_rng(attempt).standard_normal(len(herms))
        dec = spectral_decompose(sum(c * H for c, H in zip(coeff, herms)),
                                 degeneracy_tol=DEGENERACY_TOL)
        if len(dec.projections) == len(basis) and all(
                reference_residual(rows, P) <= tol for P in dec.projections):
            return dec.projections
    raise InvariantViolation("could not resolve the minimal projections")


def reference_equal_span(rows_a: np.ndarray, rows_b: np.ndarray, dim: int,
                         tol: float = SPAN_TOL) -> tuple[bool, float]:
    """Mutual containment of two row spans; (equal, worst residual)."""
    worst = max([reference_residual(rows_b, A) for A in unvec(rows_a, dim)]
                + [reference_residual(rows_a, B) for B in unvec(rows_b, dim)])
    return worst <= tol, worst


def reference_is_maximal_abelian(rows: np.ndarray, ambient_rows: np.ndarray, dim: int,
                                 tol: float = SPAN_TOL) -> bool:
    """Whether the span is abelian and equals its relative commutant in the ambient span."""
    basis = unvec(rows, dim)
    for B in basis:
        r = reference_residual(ambient_rows, B)
        if r > tol:
            raise InvariantViolation(f"algebra not inside ambient: residual {r:.3e}")
    for i, A in enumerate(basis):
        for B in basis[i + 1:]:
            if np.linalg.norm(A @ B - B @ A) > tol:
                return False
    relative = reference_intersection(reference_commutant(rows, dim), ambient_rows)
    return (relative.shape[0] == rows.shape[0]
            and reference_equal_span(rows, relative, dim, tol)[0])


class ReferenceCentralizer(NamedTuple):
    centralizer: FiniteAlgebra
    center: FiniteAlgebra
    central_projections: tuple[np.ndarray, ...]


def reference_centralizer(ambient: FiniteAlgebra, state: DensityState) -> ReferenceCentralizer:
    """Centralizer, its center and the center's atoms by generic linear algebra.

    The test oracle for ``qevents.centralizer``: the centralizer is the
    nullspace of A -> [Q, A] on the ambient span (Q the state's in-span
    representative), its center comes from ``reference_center`` and the
    atoms from ``reference_minimal_projections``.  Duck-types as a report
    for ``reference_detect``.
    """
    Q = ambient_representative(ambient, state)
    d = ambient.dim
    cols = np.stack([(Q @ E - E @ Q).reshape(-1) for E in ambient.basis], axis=1)
    _, s, vh = np.linalg.svd(cols)
    # reference scale floored at 1 (orthonormal basis, trace-one state):
    # when Q commutes with everything the whole column stack is noise and
    # the nullspace must be the full span
    cutoff = RANK_RCOND * max(s[0], 1.0) if s.size else 0.0
    null_coeff = vh[int(np.sum(s > cutoff)):].conj()
    cent_rows = orthonormal_rows(null_coeff @ span_rows(ambient))
    center_rows = reference_center(cent_rows, d)
    return ReferenceCentralizer(FiniteAlgebra.from_span(unvec(cent_rows, d)),
                                FiniteAlgebra.from_span(unvec(center_rows, d)),
                                reference_minimal_projections(center_rows, d))


def reference_pinched_centralizer(ambient: FiniteAlgebra, state: DensityState) -> FiniteAlgebra:
    """The centralizer as the span of the pinched ambient basis, sum_l E_l B E_l.

    The oracle for ``CentralizerReport.centralizer`` where eigenvalues merge
    within ``DEGENERACY_TOL`` but not within ``reference_centralizer``'s
    rank cutoff: the E_l are the report's own clustered eigenprojections.
    Costs d^4 memory and d^6 time for full access; small d only.
    """
    report = centralizer(ambient, state)
    basis = np.stack(ambient.basis)
    pinched = sum(E @ basis @ E for E in report.state_spectral.projections)
    return FiniteAlgebra.from_span(pinched, dim=ambient.dim)


def reference_expect_onto_centralizer(ambient: FiniteAlgebra, state: DensityState,
                                      A: np.ndarray) -> np.ndarray:
    """sum_l E_l A E_l over the report's dense clustered eigenprojections E_l.

    The oracle for ``qevents.expect_onto_centralizer``, which pinches in the
    report's eigenbasis: O(k d^3) for k clusters.  Re-projected onto the
    ambient span when rounding (or an A outside the span) leaves it, as the
    fast path does.
    """
    out = sum(E @ A @ E for E in centralizer(ambient, state).state_spectral.projections)
    projected, residual = ambient.project(out)
    return projected if residual > 1e-14 else out


def reference_expect_onto_center(state, A, atoms, tol=DEFAULT_TOL):
    """sum_a c_a z_a over dense atoms z_a, with c_a = phi(z_a A z_a) / phi(z_a).

    The oracle for ``expect_onto_center``: atoms the state gives no weight
    (phi(z_a) <= tol) take the normalized trace instead.  Returns the
    d x d result with the coefficients, weights and fallback atoms.
    """
    out = np.zeros_like(A, dtype=complex)
    coeffs, weights, fallback = [], [], []
    for j, z in enumerate(atoms):
        w = float(np.real(state.expect(z)))
        block = z @ A @ z
        if w > tol:
            c = complex(state.expect(block)) / w
        else:
            fallback.append(j)
            c = complex(np.trace(block)) / float(np.real(np.trace(z)))
        out += c * z
        coeffs.append(c)
        weights.append(w)
    return out, tuple(coeffs), tuple(weights), tuple(fallback)


def reference_detect(state, partition, time, restriction, report,
                     safety=0.5, tol=DEFAULT_TOL) -> DetectionVerdict:
    """The event criterion by the dense path, one projection at a time.

    The oracle for detection: each CE(P) is formed as a d x d matrix by
    ``reference_expect_onto_center`` over the dense atoms
    ``report.central_projections`` (of a report, or of
    ``reference_centralizer``), and the distance is ``operator_norm(CE(P) - P)``.
    """
    for P in partition.projections:
        ok, r = contains(restriction, P, SPAN_TOL)
        if not ok:
            raise InvariantViolation(
                f"partition not inside the restriction algebra at time {time}: residual {r:.3e}")
    atoms = report.central_projections
    distance = max(operator_norm(reference_expect_onto_center(state, P, atoms)[0] - P)
                   for P in partition.projections)
    gap = _weight_gap(state, partition)
    admissible = partition.size >= 2 and gap > tol
    threshold = safety * gap / partition.size if admissible else float("nan")
    return DetectionVerdict(admissible and distance <= threshold, float(time), float(distance),
                            threshold, partition, float(gap), admissible)


class ReferencePath(NamedTuple):
    """One distinct outcome path of ``reference_sample_paths``."""

    members: np.ndarray                  # sample indices, ascending
    history: tuple
    branch_log: tuple
    state: np.ndarray                    # final density matrix of the path


def reference_sample_paths(frame, initial, samples, draw, safety=0.5, record_policy="always",
                           require_detection=True, tol=DEFAULT_TOL, steps=None):
    """The batched sampler one group at a time, depth first, with eager records.

    The test oracle for ``qevents.events._sample_paths``, which advances a
    chunk of groups one time step at a time: each group pops off a stack,
    computes its verdict and Born weights, assigns its samples' outcomes
    with one ``searchsorted`` over ``draw(members, j)`` (j the group's event
    count) and pushes one child per drawn outcome, lowest label on top.
    """
    steps = len(frame.times) if steps is None else steps
    should_record = _resolve_policy(record_policy)
    if not require_detection and any(len(c) != 1 for c in frame.partitions[:steps]):
        raise ValueError("unconditional stepping needs exactly one candidate per time")

    pending = [(0, initial.matrix, np.arange(samples), (), (), 0)]
    while pending:
        k, rho, members, log, history, fired = pending.pop()
        if k == steps:
            herm = float(np.linalg.norm(rho - rho.conj().T))
            drift = abs(float(rho.trace().real) - 1.0)
            if herm > 1e-8 or drift > 1e-8:
                raise InvariantViolation(
                    "trajectory state left the density-matrix manifold "
                    f"(hermiticity defect {herm:.3e}, trace drift {drift:.3e})")
            yield ReferencePath(members, history, log, rho)
            continue
        t = frame.times[k]
        verdict = None
        if require_detection:
            state = DensityState(rho, validate=False)
            report = centralizer(_ambient(frame, k), state)
            R = _state_in_frame(report, state)
            verdicts = [_detect(frame, k, state, p, report, R, safety, tol)
                        for p in frame.partitions[k]]
            firing = sorted((v for v in verdicts if v.happened), key=lambda v: v.distance)
            if not firing:
                skipped = BranchRecord(t, False, any(v.admissible for v in verdicts),
                                       min(v.distance for v in verdicts),
                                       None, None, None, False)
                pending.append((k + 1, rho, members, log + (skipped,), history, fired))
                continue
            verdict = firing[0]
            partition = verdict.partition
        else:
            partition = frame.partitions[k][0]

        stack = partition.stack
        weights = np.einsum("ab,nba->n", rho, stack).real
        np.maximum(weights, 0.0, out=weights)
        cum = np.cumsum(weights)
        total = cum[-1]
        if total <= 0.0:
            raise InvariantViolation(f"total branch weight vanished at time {t}")
        idx = np.searchsorted(cum, draw(members, np.full(members.size, fired)) * total,
                              side="right")
        np.minimum(idx, len(cum) - 1, out=idx)
        recorded = bool(should_record(t))
        if not recorded:
            dephased = sum(P @ rho @ P for P in stack)
        children = []
        for j in np.flatnonzero(np.bincount(idx)).tolist():
            p = float(weights[j] / total)
            label = partition.labels[j]
            entry = BranchRecord(t, True,
                                 verdict.admissible if verdict else None,
                                 verdict.distance if verdict else None,
                                 verdict.threshold if verdict else None,
                                 label, p, recorded)
            if recorded:
                child = stack[j] @ rho @ stack[j] / weights[j]
                events = history + (EventRecord(t, label, p, True),)
            else:
                child, events = dephased, history
            children.append((k + 1, child, members[idx == j], log + (entry,), events, fired + 1))
        pending.extend(reversed(children))


def reference_trajectory(frame, initial, safety=0.5, record_policy="always", rng_seed=0,
                         require_detection=True, tol=DEFAULT_TOL) -> TrajectoryResult:
    """One trajectory by a plain per-sample loop over the frame times.

    The test oracle for the batched sampler behind ``qevents.run_trajectory``:
    the event verdict, the Born weights and one ``rng.random()`` per fired
    time are computed for this single sample, step by step.
    """
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else substream(int(rng_seed))
    should_record = _resolve_policy(record_policy)
    rho = initial.matrix
    history, branch = [], []
    for k, t in enumerate(frame.times):
        candidates = frame.partitions[k]
        state_k = DensityState(rho, validate=False)
        verdict = None
        if require_detection:
            report = centralizer(_ambient(frame, k), state_k)
            R = _state_in_frame(report, state_k)
            verdicts = [_detect(frame, k, state_k, p, report, R, safety, tol) for p in candidates]
            firing = [v for v in verdicts if v.happened]
            if not firing:
                branch.append(BranchRecord(t, False, any(v.admissible for v in verdicts),
                                           min(v.distance for v in verdicts),
                                           None, None, None, False))
                continue
            firing.sort(key=lambda v: v.distance)
            verdict = firing[0]
            partition = verdict.partition
        else:
            if len(candidates) != 1:
                raise ValueError("unconditional stepping needs exactly one candidate per time")
            partition = candidates[0]

        stack = np.stack(partition.projections)
        weights = np.einsum("ab,nba->n", rho, stack).real
        np.clip(weights, 0.0, None, out=weights)
        cum = np.cumsum(weights)
        idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        idx = min(idx, len(cum) - 1)
        outcome = partition.labels[idx]
        p = float(weights[idx] / cum[-1])

        recorded = bool(should_record(t))
        if recorded:
            P = stack[idx]
            rho = P @ rho @ P / weights[idx]
            history.append(EventRecord(t, outcome, p, True))
        else:
            rho = sum(Pj @ rho @ Pj for Pj in stack)
        branch.append(BranchRecord(
            t, True,
            verdict.admissible if verdict else None,
            verdict.distance if verdict else None,
            verdict.threshold if verdict else None,
            outcome, p, recorded))
    return TrajectoryResult(tuple(history), DensityState(rho), tuple(branch))


def reference_validate_projection_family(projections, complete=True, tol=DEFAULT_TOL) -> None:
    """Projection-family validation with an SVD-based spectral norm for every check.

    The test oracle for ``qevents.operators.validate_projection_family``,
    which decides most checks by a Frobenius bound or on the diagonals.
    """
    projections = [np.asarray(P, dtype=complex) for P in projections]
    dim = projections[0].shape[0]
    for k, P in enumerate(projections):
        if P.shape[0] != dim:
            raise ValueError("projections must share one dimension")
        h = antihermitian_defect(P)
        if h > tol:
            raise InvariantViolation(f"projection {k} not Hermitian: defect {h:.3e}")
        r = operator_norm(P @ P - P)
        if r > tol:
            raise InvariantViolation(f"projection {k} not idempotent: ||P^2 - P|| = {r:.3e}")
    for i in range(len(projections)):
        for j in range(i + 1, len(projections)):
            r = operator_norm(projections[i] @ projections[j])
            if r > tol:
                raise InvariantViolation(
                    f"projections {i},{j} not orthogonal: ||P_i P_j|| = {r:.3e}")
    if complete:
        r = operator_norm(sum(projections) - np.eye(dim))
        if r > tol:
            raise InvariantViolation(f"projections do not sum to identity: residual {r:.3e}")


def reference_validate_density(matrix, tol=DEFAULT_TOL) -> None:
    """Density-matrix validation by SVD (Hermiticity) and ``eigvalsh`` (positivity).

    The test oracle for ``DensityState(matrix, tol)``.
    """
    M = np.asarray(matrix, dtype=complex)
    h = antihermitian_defect(M)
    if h > tol:
        raise InvariantViolation(f"density matrix not Hermitian: defect {h:.3e}")
    M = (M + adjoint(M)) / 2.0
    w = np.linalg.eigvalsh(M)
    if w.min() < -tol:
        raise InvariantViolation(f"density matrix has negative weight {w.min():.3e}")
    tr = float(np.real(np.trace(M)))
    if abs(tr - 1.0) > tol:
        raise InvariantViolation(f"density matrix trace {tr!r} differs from 1")


def reference_unitarity_defect(U) -> float:
    """||U*U - 1|| by SVD, the oracle of every unitarity check."""
    U = np.asarray(U, dtype=complex)
    return operator_norm(adjoint(U) @ U - np.eye(U.shape[0]))


def run_capped(script: str, cap_bytes: int = 1 << 30,
               timeout: float = 120.0) -> subprocess.CompletedProcess:
    """Run a Python script in a child whose address space is capped at ``cap_bytes``.

    The child sets ``RLIMIT_AS`` on itself before importing anything, so an
    allocation beyond the cap raises ``MemoryError`` there instead of
    growing the test process.  It runs with one BLAS thread and imports
    this checkout's qevents.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    prologue = ("import resource\n"
                f"resource.setrlimit(resource.RLIMIT_AS, ({cap_bytes}, {cap_bytes}))\n")
    return subprocess.run([sys.executable, "-c", prologue + script],
                          capture_output=True, text=True, env=env, timeout=timeout)


def outcome(fn, *args, **kwargs):
    """(exception type, message) raised by ``fn(*args, **kwargs)``, or (None, None)."""
    try:
        fn(*args, **kwargs)
    except Exception as exc:  # the type itself is what the caller compares
        return type(exc), str(exc)
    return None, None


def reference_sampler_vs_measure(frame, initial, steps, samples, seed=0) -> float:
    """Total-variation distance with one ``lsw_probability`` call per protocol.

    The test oracle for ``qevents.sampler_vs_measure``, which takes the exact
    measure from one walk of the outcome tree; the sampled side is the same.
    """
    exact = {p.outcomes: lsw_probability(frame, initial, p)
             for p in enumerate_protocols(frame, steps)}
    uniforms = substream(seed).random((samples, steps))
    paths = _sample_paths(frame, initial, samples, lambda members, j: uniforms[members, j],
                          record_policy="always", require_detection=False, steps=steps)
    counts = {tuple(rec.outcome for rec in path.history): path.members.size
              for path in paths}
    tv = 0.0
    for key in set(exact) | set(counts):
        tv += abs(counts.get(key, 0) / samples - exact.get(key, 0.0))
    return 0.5 * tv


def draw_clicks(model, n: int, count: int, seed, stream):
    """The float form of ``sample_protocols``' draw: latent labels, then chunks of clicks.

    Returns the labels and an iterator of ``(rows, clicks)``, where
    ``clicks`` is the boolean block ``random() < p`` of the protocols in the
    slice ``rows``.  The test oracle for the integer-threshold click pass,
    which compares raw Philox words with per-hypothesis thresholds instead.
    """
    gen = substream(seed, stream)
    w = model.weights / model.weights.sum()
    latent = gen.choice(model.num_hypotheses, size=count, p=w)
    step = max(1, int(4_000_000 // max(n, 1)))

    def chunks():
        for start in range(0, count, step):
            rows = slice(start, min(start + step, count))
            u = gen.random((rows.stop - start, n))
            yield rows, u < model.p_plus[latent[rows]][:, None]

    return latent, chunks()


def reference_sample_protocols(model, n: int, count: int, seed=0, stream=0):
    """``(outcomes, latent)`` of ``sample_protocols``, built eagerly as an int8 matrix.

    The test oracle for ``qevents.sample_protocols``, which keeps only the +1
    counts and replays ``ProtocolSample.outcomes`` on demand.
    """
    n, count = int(n), int(count)
    latent, chunks = draw_clicks(model, n, count, seed, stream)
    outcomes = np.empty((count, n), dtype=np.int8)
    for rows, clicks in chunks:
        outcomes[rows] = np.where(clicks, 1, -1)
    return outcomes, latent.astype(np.int64)


def reference_posterior_entropies(model, sample) -> np.ndarray:
    """Posterior entropies in bits, one row of log-weights per protocol.

    The test oracle for ``qevents.posterior_entropies``, which computes one
    row per distinct +1 count and spreads the rows out.
    """
    lw = _log_posterior_rows(model, sample.plus_counts(), sample.n)
    totals = _logsumexp(lw)
    if not np.isfinite(totals).all():
        raise ValueError("zero-probability protocol has no posterior")
    norm = lw - totals[:, None]
    w = np.exp(norm)
    terms = np.zeros_like(w)
    terms[w > 0] = w[w > 0] * norm[w > 0]
    return -terms.sum(axis=1) / np.log(2.0)


def reference_binom_logpmf(ks, n: int, p: float) -> np.ndarray:
    """log of the binomial(n, p) mass at the integers ``ks``, for one p.

    The per-call form of ``mesoscopic._binom_logpmf``, which shares the
    lgamma terms across a row per click probability.
    """
    ks = np.asarray(ks, dtype=float)
    rest = n - ks
    log_comb = math.lgamma(n + 1) - (_lgamma(ks + 1) + _lgamma(rest + 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(rest == 0.0, 0.0, rest * np.log1p(-p))
    return log_comb + _xlogy(ks, p) + tail


def reference_log_band_mass(n: int, epsilon: float, center: float, q: float) -> float:
    """``log_band_mass`` from a log-pmf computed on the band alone.

    The test oracle for ``mesoscopic.log_band_masses``, which computes one
    row per q and masks it once per band.
    """
    ks = np.arange(n + 1)
    mask = np.abs(ks / n - center) < epsilon
    if not mask.any():
        return -math.inf
    return min(float(_logsumexp(reference_binom_logpmf(ks[mask], n, q))), 0.0)


def reference_outcome_tree(frame, initial, steps: int) -> tuple[dict, float]:
    """Leaf masses and the largest prefix-marginal gap, by dense products.

    The test oracle for ``qevents.histories._walk_outcome_tree``, which
    multiplies diagonals when the state and the partitions have them: here
    every node is ``P @ sigma @ P`` of d x d matrices and its mass the real
    trace, whatever the structure.
    """
    leaves, gap = {}, 0.0

    def walk(k, outcomes, sigma, mass):
        nonlocal gap
        if k == steps:
            leaves[outcomes] = mass
            return
        partition = frame.partitions[k][0]
        child_sum = 0.0
        for label, P in zip(partition.labels, partition.projections):
            child = P @ sigma @ P
            child_mass = float(np.real(np.trace(child)))
            child_sum += child_mass
            walk(k + 1, outcomes + (label,), child, child_mass)
        gap = max(gap, abs(child_sum - mass))

    walk(0, (), initial.matrix, 1.0)
    return leaves, gap
