"""Shared random generators and reference oracles for the test suite.

Everything is driven by explicit ``numpy`` Generators so failures
reproduce; tests derive their generator from a frozen seed.
"""

from typing import NamedTuple

import numpy as np

from qevents import (DEFAULT_TOL, RANK_RCOND, BranchRecord, DensityState, EventRecord,
                     FiniteAlgebra, InvariantViolation, PartitionOfUnity, TrajectoryResult,
                     adjoint, ambient_representative, antihermitian_defect, center,
                     centralizer, minimal_projections, operator_norm, substream)
from qevents.algebras import _orthonormal_rows, _unvec, _vec
from qevents.events import _ambient, _detect, _resolve_policy, _sample_paths
from qevents.histories import enumerate_protocols, lsw_probability


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


class ReferenceCentralizer(NamedTuple):
    centralizer: FiniteAlgebra
    center: FiniteAlgebra
    central_projections: tuple[np.ndarray, ...]


def reference_centralizer(ambient: FiniteAlgebra, state: DensityState) -> ReferenceCentralizer:
    """Centralizer, its center and the center's atoms by generic linear algebra.

    The test oracle for ``qevents.centralizer``: the centralizer is the
    nullspace of A -> [Q, A] on the ambient span (Q the state's in-span
    representative), its center comes from ``center`` and the atoms from
    ``minimal_projections``.  Duck-types as a report for
    ``expect_onto_center``.
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
    cent_rows = null_coeff @ _vec(ambient.basis)
    cent = FiniteAlgebra(d, _unvec(_orthonormal_rows(cent_rows), d), True)
    cent_center = center(cent)
    return ReferenceCentralizer(cent, cent_center, minimal_projections(cent_center))


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
            restriction = _ambient(frame, k)
            report = centralizer(restriction, state_k)
            verdicts = [_detect(state_k, p, t, restriction, report, safety, tol)
                        for p in candidates]
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
