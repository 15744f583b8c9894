"""State-dependent structure of an algebra: centralizer, center, pinchings.

Given a state on an ambient algebra, the centralizer is the set of elements
the state cannot distinguish order on (the functional kills every commutator
against them): the relative commutant of the state's in-span representative
Q, known in closed form.  With the ambient V ((+)_i M_{n_i} (x) 1_{m_i}) V*,
Q = V ((+)_i q_i (x) 1_{m_i}) V*.  One checked eigh per block shape gives
q_i = u_i diag(w_i) u_i*, and F = V ((+)_i u_i (x) 1_{m_i}) is an eigenbasis
of Q.  The eigenvalues of all blocks cluster together; each atom of the
center, z_i E_l for a block indicator z_i and a clustered eigenprojection
E_l, is F_a F_a* for a run F_a of F's columns, and the centralizer is
(+)_{i,l} M_{r_il} (x) 1_{m_i} in the frame F.  Detection and the center
expectation work in that frame: O(d^3) per projection, whatever the number
of atoms.  Both conditional expectations stay inside the ambient span by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolation
from .algebras import FiniteAlgebra, SPAN_TOL, center, contains, minimal_projections
from .operators import (DEFAULT_TOL, DEGENERACY_TOL, DensityState,
                        PartitionOfUnity, SpectralDecomposition, _chained_clusters,
                        _checked_eigh, adjoint, as_operator, operator_norm)

__all__ = [
    "CentralizerReport",
    "ambient_representative",
    "centralizer",
    "minimal_projections",
    "expect_onto_centralizer",
    "expect_onto_center",
    "incoherence_defect",
    "IncoherenceDefect",
]


@dataclass(frozen=True, eq=False)
class CentralizerReport:
    """Centralizer and center of a state on an ambient algebra, in column blocks.

    ``frame`` is the eigenbasis F of Q.  Atom a owns F's columns from
    ``starts[a]`` to the next (``atoms`` maps columns to atoms), has
    multiplicity ``multiplicities[a]`` and lies in cluster ``clusters[a]``
    of mean ``eigenvalues[clusters[a]]``; the rest are cached views.
    """

    ambient: FiniteAlgebra
    frame: np.ndarray
    starts: np.ndarray
    atoms: np.ndarray
    multiplicities: np.ndarray
    clusters: np.ndarray
    eigenvalues: np.ndarray

    @cached_property
    def central_projections(self) -> tuple[np.ndarray, ...]:
        """The atoms F_a F_a*, the minimal projections of the center."""
        ends = [*self.starts[1:].tolist(), self.ambient.dim]
        blocks = (self.frame[:, a:b] for a, b in zip(self.starts.tolist(), ends))
        return tuple(Fa @ adjoint(Fa) for Fa in blocks)

    @cached_property
    def state_spectral(self) -> SpectralDecomposition:
        """Q's clusters, each the union of its atoms' columns."""
        label = self.clusters[self.atoms]
        order = np.argsort(label, kind="stable")
        starts = np.searchsorted(label[order], np.arange(len(self.eigenvalues)))
        return SpectralDecomposition._from_eigh(self.eigenvalues, self.frame[:, order], starts)

    @cached_property
    def centralizer(self) -> FiniteAlgebra:
        """(+)_{i,l} M_{r_il} (x) 1_{m_i} in the frame F: one block per atom."""
        ranks = np.bincount(self.atoms) // self.multiplicities
        return FiniteAlgebra(self.ambient.dim, self.frame,
                             tuple(zip(ranks.tolist(), self.multiplicities.tolist())))

    @cached_property
    def center(self) -> FiniteAlgebra:
        """The abelian algebra of the atoms: one block (1, r_il m_i) per block of the centralizer."""
        return center(self.centralizer)


def ambient_representative(ambient: FiniteAlgebra, state: DensityState) -> np.ndarray:
    """Density matrix of the state as seen by the ambient algebra.

    The unique element Q of the span with tr(Q X) = tr(rho X) for every X in
    the span: the Hilbert-Schmidt projection of the density matrix.  For the
    full matrix algebra this is the density matrix itself.
    """
    P = state.matrix
    if state.dim != ambient.dim:
        raise ValueError("state and algebra dimensions differ")
    if ambient.algebra_dim == ambient.dim * ambient.dim:
        return P
    Q, _ = ambient.project(P)
    # *-algebra, Hermitian input: the projection is Hermitian up to rounding
    return (Q + adjoint(Q)) / 2.0


def centralizer(ambient: FiniteAlgebra, state: DensityState) -> CentralizerReport:
    """Centralizer report of a state on an ambient algebra.

    The blocks q_i of Q are read off V* rho V as ``FiniteAlgebra.project``
    averages them (rho itself for the full matrix algebra).  Eigenvalues
    within ``DEGENERACY_TOL`` (chained) share a cluster, whose mean weighs
    each by its multiplicity m_i.

    The report is kept on the state (``DensityState._reports``), one per
    ambient object, so another call with the same ambient returns it again.
    Every full matrix algebra of one dimension has the same report, so
    those share one entry, keyed by ("full", dimension).
    """
    d, V = ambient.dim, ambient.unitary
    full = ambient.blocks == ((d, 1),)
    key = ("full", d) if full else id(ambient)
    report = state._reports.get(key)
    if report is not None:
        return report
    if not ambient.contains_identity:
        raise InvariantViolation("ambient algebra must contain the identity")
    if state.dim != d:
        raise ValueError("state and algebra dimensions differ")
    if full:
        V, groups, stacks = None, [np.arange(d).reshape(1, d, 1)], [state.matrix[None]]
    else:
        groups = [cols for cols, _ in ambient._groups]
        stacks = ambient._block_means((adjoint(V) @ state.matrix @ V).reshape(-1))
    columns, vals, mult, opens = [], [], [], []
    for cols, q in zip(groups, stacks):
        g, n, m = cols.shape
        w, u = _checked_eigh(q, 1e-8)
        if V is None:
            columns.append(u[0])
        else:   # a block of size 1 has eigenvector 1
            W = V[:, cols.reshape(-1)].reshape(d, g, n, m)
            columns.append((W if n == 1 else np.einsum("xgam,gab->xgbm", W, u)).reshape(d, -1))
        vals.append(w.reshape(-1))
        mult.append(np.full(g * n, m))
        opens.append(np.arange(g * n) % n == 0)
    # one entry per eigenvalue of a block, in F's column order, owning m columns;
    # an atom is a run of one block's eigenvalues in one cluster
    frame, vals, mult, opens = (x[0] if len(x) == 1 else np.concatenate(x, axis=x[0].ndim - 1)
                                for x in (columns, vals, mult, opens))
    order = np.argsort(vals, kind="stable")
    new_cluster, eigenvalues = _chained_clusters(vals[order], mult[order], DEGENERACY_TOL)
    cluster = np.empty(len(vals), dtype=int)
    cluster[order] = np.cumsum(new_cluster) - 1
    opens[1:] |= cluster[1:] != cluster[:-1]
    at = np.flatnonzero(opens)
    report = state._reports[key] = CentralizerReport(
        ambient, frame, (np.cumsum(mult) - mult)[at], np.repeat(np.cumsum(opens) - 1, mult),
        mult[at], cluster[at], eigenvalues)
    return report


def _state_in_frame(report: CentralizerReport, state: DensityState) -> np.ndarray:
    """R = F* rho F, the state in the report's frame: one per report and state."""
    return adjoint(report.frame) @ state.matrix @ report.frame


def _center_coefficients(report: CentralizerReport, R: np.ndarray,
                         stack: np.ndarray, parts=(np.real, np.imag)):
    """Coefficients c of CE(P_j) = sum_a c_ja z_a for the (N, d, d) ``stack`` of P_j.

    In the frame F the atoms are diagonal blocks, so c_a = tr(R_a B_a) / w_a
    for R = F* rho F (``_state_in_frame``), B = F* P F and w_a = tr R_a =
    phi(z_a), or tr B_a / tr 1_a where w_a <= ``DEFAULT_TOL``.  Each of the ``parts``
    (real, imaginary) is summed and divided on its own; the others stay 0.
    Returns c, B and w.
    """
    F, Fh, starts, label = report.frame, adjoint(report.frame), report.starts, report.atoms
    B = Fh @ stack @ F
    # tr(R_a B_a) sums R[x, y] B[y, x] over x and y in atom a
    cross = np.add.reduceat(R * B.transpose(0, 2, 1), starts, axis=2)
    cross = cross[:, np.arange(len(label)), label]
    w = np.add.reduceat(np.diagonal(R).real, starts)
    sizes = np.bincount(label)
    diagonal = np.diagonal(B, axis1=1, axis2=2)
    c = np.zeros((B.shape[0], len(sizes)), dtype=complex)
    for part in parts:
        np.divide(np.add.reduceat(part(diagonal), starts, axis=1), sizes, out=part(c))
        np.divide(np.add.reduceat(part(cross), starts, axis=1), w, out=part(c),
                  where=w > DEFAULT_TOL)
    return c, B, w


def _center_distance(report: CentralizerReport, R: np.ndarray,
                     stack: np.ndarray) -> float:
    """max_j ||CE(P_j) - P_j||, by one batched eigvalsh of F* (CE(P) - P) F = diag(c) - B,
    for R = ``_state_in_frame(report, state)``."""
    c, B, _ = _center_coefficients(report, R, stack, parts=(np.real,))
    H, diagonal = -B, np.arange(B.shape[-1])
    H[:, diagonal, diagonal] += c.real[:, report.atoms]
    return float(np.abs(np.linalg.eigvalsh(H)).max())


def _in_ambient(ambient: FiniteAlgebra, A) -> np.ndarray:
    """A as a matrix, checked to lie in the ambient within ``SPAN_TOL``."""
    A = as_operator(A, ambient.dim)
    ok, r = contains(ambient, A, SPAN_TOL)
    if not ok:
        raise InvariantViolation(f"operator outside the ambient algebra: residual {r:.3e}")
    return A


class PinchInfo(NamedTuple):
    ambient_residual: float


def expect_onto_centralizer(ambient: FiniteAlgebra, state: DensityState,
                            A: np.ndarray, return_info: bool = False):
    """Pinching conditional expectation onto the centralizer of the state.

    Sums E_l A E_l over the clustered eigenprojections E_l of the state's
    in-span representative, in its eigenbasis F: F (M o F*AF) F*, with
    M[x, y] = 1 where columns x and y of F share a cluster and 0 elsewhere.
    The result lies in the ambient span; it is re-projected onto the span if
    rounding pushed it out, with the residual reported via ``return_info``.
    """
    A = _in_ambient(ambient, A)
    report = centralizer(ambient, state)
    F, Fh = report.frame, adjoint(report.frame)
    cluster = report.clusters[report.atoms]
    out = F @ np.where(cluster[:, None] == cluster[None, :], Fh @ A @ F, 0.0) @ Fh
    projected, residual = ambient.project(out)
    if residual > 1e-14:
        out = projected
    if return_info:
        return out, PinchInfo(float(residual))
    return out


class CenterExpectationInfo(NamedTuple):
    coefficients: tuple[complex, ...]
    weights: tuple[float, ...]
    fallback_atoms: tuple[int, ...]


def expect_onto_center(ambient: FiniteAlgebra, state: DensityState,
                       A: np.ndarray, return_info: bool = False):
    """Conditional expectation onto the center of the centralizer.

    Writes the output as sum_j c_j z_j over the minimal central projections,
    with c_j the state average of z_j A z_j on the block.  Blocks the state
    gives no weight to (phi(z_j) <= ``DEFAULT_TOL``) fall back to the
    normalized trace; which atoms that happened on is reported via
    ``return_info``.
    """
    A = _in_ambient(ambient, A)
    report = centralizer(ambient, state)
    c, _, w = _center_coefficients(report, _state_in_frame(report, state), A[None])
    out = (report.frame * c[0, report.atoms]) @ adjoint(report.frame)
    if return_info:
        return out, CenterExpectationInfo(tuple(c[0].tolist()), tuple(w.tolist()),
                                          tuple(np.flatnonzero(w <= DEFAULT_TOL).tolist()))
    return out


class IncoherenceDefect(NamedTuple):
    lhs: float
    bound: float
    delta_prime: float


def incoherence_defect(ambient: FiniteAlgebra, state: DensityState,
                       partition: PartitionOfUnity, A: np.ndarray,
                       use_center: bool = True) -> IncoherenceDefect:
    """Defect of evaluating the state incoherently along a partition.

    Returns (lhs, bound, delta_prime) with
    lhs    = |phi(A) - sum_j phi(P_j A P_j)|,
    delta' = max_j || CE(P_j) - P_j || for the chosen conditional
             expectation (center by default, centralizer otherwise),
    bound  = 4 N delta' ||A||.
    The inequality lhs <= bound holds identically; it is asserted here up to
    an absolute rounding allowance and violations raise.
    """
    A = _in_ambient(ambient, A)
    if use_center:
        # one R for all N projections, as detection's distance
        for P in partition.projections:
            _in_ambient(ambient, P)
        report = centralizer(ambient, state)
        delta_prime = _center_distance(report, _state_in_frame(report, state), partition.stack)
    else:   # the expectation checks that P lies in the ambient
        delta_prime = max(operator_norm(expect_onto_centralizer(ambient, state, P) - P)
                          for P in partition.projections)
    pinched = 0.0 + 0.0j
    for P in partition.projections:
        pinched += state.expect(P @ A @ P)
    lhs = abs(state.expect(A) - pinched)
    n_outcomes = partition.size
    bound = 4.0 * n_outcomes * delta_prime * operator_norm(A)
    slack = 1e-12 * n_outcomes * max(1.0, operator_norm(A))
    if lhs > bound + slack:
        raise InvariantViolation(
            f"incoherence bound violated: lhs {lhs:.6e} > bound {bound:.6e}")
    return IncoherenceDefect(float(lhs), float(bound), float(delta_prime))
