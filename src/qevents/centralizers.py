"""State-dependent structure of an algebra: centralizer, center, pinchings.

Given a state on an ambient algebra, the centralizer is the set of elements
the state cannot distinguish order on (the functional kills every commutator
against them).  In terms of the state's in-span representative Q it is the
relative commutant of Q in the ambient, which is known in closed form.
Write the ambient as A = (+)_i M_{n_i} (x) 1_{m_i} with minimal central
projections z_i, and let E_l = V_l V_l* be the clustered eigenprojections of
Q, V_l the orthonormal eigenvector columns of cluster l.  Then the
centralizer is the pinching of A, sum_l E_l A E_l, and the minimal
projections of its center are the nonzero products z_i E_l.

Cost per state, for a state with k eigenvalue clusters on C^d:

- Every ambient: one eigh of Q, checked by one Gram and one reconstruction
  residual (two d^3 products).
- A factor (one z: full access or any M_n (x) 1_m): the atoms are the E_l
  themselves and detection never forms them.  For the N projections of a
  candidate it computes V* P V, the center coefficients from the diagonal
  blocks, and the distance from one batched eigvalsh: O(N d^3) in all,
  whatever k.
- Any other ambient: the products z_i E_l are formed and validated
  pairwise, and each conditional expectation is a sum over atoms:
  O(a^2 d^3) per state for a atoms.

The z_i depend on the ambient alone and are cached on it.  Both conditional
expectations (onto the centralizer by pinching, onto the center by weighted
block averages) stay inside the ambient span by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolation
from .algebras import FiniteAlgebra, SPAN_TOL, center, contains, minimal_projections
from .operators import (DEFAULT_TOL, DEGENERACY_TOL, DensityState,
                        PartitionOfUnity, SpectralDecomposition, adjoint,
                        as_operator, operator_norm, spectral_decompose,
                        validate_projection_family)

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
    """Centralizer and center of a state on an ambient algebra.

    ``state_spectral`` is the clustered spectral decomposition of the
    density matrix restricted to the ambient algebra (its in-span
    representative Q), in eigenvector form.  ``central_projections`` are
    the minimal projections of the center, the atoms used by
    ``expect_onto_center``.  On a factor ambient they are the
    eigenprojections E_l = V_l V_l* of Q, built on first read; detection
    reads the columns V_l instead.  On any other ambient the function
    ``centralizer`` forms and validates the products z_i E_l.  The
    ``centralizer`` and ``center`` algebras are built in closed form on
    first use.  All three are cached with ``cached_property``.
    """

    ambient: FiniteAlgebra
    state_spectral: SpectralDecomposition

    @cached_property
    def central_projections(self) -> tuple[np.ndarray, ...]:
        """The nonzero products z_i E_l; the E_l themselves on a factor."""
        zs = self.ambient.minimal_central_projections
        if len(zs) == 1:
            return self.state_spectral.projections
        products = (z @ E for z in zs for E in self.state_spectral.projections)
        atoms = tuple(P for P in products if np.trace(P).real > 0.5)
        validate_projection_family(atoms, complete=True)
        return atoms

    @cached_property
    def centralizer(self) -> FiniteAlgebra:
        """(+)_i (+)_l M_{r_il} (x) 1_{m_i}, in the frame of the eigenvectors of each Q_i.

        In the ambient's frame W, Q = (+)_i Q_i (x) 1_{m_i}.  Q_i is read off
        the clustered Q (each cluster at its mean eigenvalue) as the
        multiplicity average of W_i* Q W_i, and each of its eigenvalues is
        assigned the nearest cluster of Q, so the r_il are the ranks of the
        report's clusters in block i.
        """
        spec, d = self.state_spectral, self.ambient.dim
        lam = np.asarray(spec.eigenvalues)
        per_column = np.repeat(lam, np.diff([*spec.starts, d]))
        columns, blocks = [], []
        for W in self.ambient._block_frames():
            _, n, m = W.shape
            X = adjoint(W.reshape(d, -1)) @ spec.vectors
            q = np.einsum("aubu->ab", ((X * per_column) @ adjoint(X)).reshape(n, m, n, m)) / m
            vals, u = np.linalg.eigh((q + adjoint(q)) / 2.0)
            label = np.abs(vals[:, None] - lam[None, :]).argmin(axis=1)
            turned = np.einsum("xam,ab->xbm", W, u)
            for l in np.unique(label):
                cols = np.flatnonzero(label == l)
                columns.append(turned[:, cols, :].reshape(d, -1))
                blocks.append((cols.size, m))
        return FiniteAlgebra(d, np.hstack(columns), tuple(blocks))

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


def centralizer(ambient: FiniteAlgebra, state: DensityState,
                tol: float = DEFAULT_TOL,
                degeneracy_tol: float = DEGENERACY_TOL) -> CentralizerReport:
    """Centralizer report of a state on an ambient algebra.

    The atoms of the center are the nonzero products z_i E_l of the
    ambient's minimal central projections with the clustered
    eigenprojections of the state's in-span representative Q; eigenvalues
    of Q within ``degeneracy_tol`` share one atom.
    """
    if not ambient.contains_identity:
        raise InvariantViolation("ambient algebra must contain the identity")
    Q = ambient_representative(ambient, state)
    spectral = spectral_decompose(Q, degeneracy_tol=degeneracy_tol, tol=max(tol, 1e-8))
    report = CentralizerReport(ambient, spectral)
    if len(ambient.minimal_central_projections) > 1:
        report.central_projections   # not a factor: the atoms z_i E_l are formed and checked now
    return report


def _factor_center_distance(report: CentralizerReport, state: DensityState,
                            stack: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """max_j ||CE(P_j) - P_j|| for the center expectation on a factor ambient.

    ``stack`` holds the P_j as one (N, d, d) array.  In the eigenbasis V of
    Q the atoms are the diagonal blocks of the identity, so CE(P) =
    V diag(c) V* with c_l = tr(R_l B_l) / w_l for R = V* rho V, B = V* P V
    and w_l = tr R_l, or the normalized trace tr B_l / r_l where w_l <=
    ``tol``, exactly as ``expect_onto_center`` weighs the atom V_l V_l*.
    The distance is then the largest |eigenvalue| of the Hermitian
    diag(c) - B: one ``eigvalsh`` batched over the stack.
    """
    spec = report.state_spectral
    V, starts = spec.vectors, spec.starts
    d = V.shape[0]
    sizes = np.diff([*starts, d])
    label = np.repeat(np.arange(starts.size), sizes)
    R = adjoint(V) @ state.matrix @ V
    B = adjoint(V) @ stack @ V
    # tr(R_l B_l) sums R[a, b] B[b, a] over a and b in cluster l
    cross = np.add.reduceat(R * B.transpose(0, 2, 1), starts, axis=2)[:, np.arange(d), label]
    weighted = np.add.reduceat(cross.real, starts, axis=1)
    w = np.add.reduceat(np.diagonal(R).real, starts)
    c = np.add.reduceat(np.diagonal(B, axis1=1, axis2=2).real, starts, axis=1) / sizes
    np.divide(weighted, w, out=c, where=w > tol)
    H = -B
    H[:, np.arange(d), np.arange(d)] += c[:, label]
    return float(np.abs(np.linalg.eigvalsh(H)).max())


class PinchInfo(NamedTuple):
    ambient_residual: float


def expect_onto_centralizer(ambient: FiniteAlgebra, state: DensityState,
                            A: np.ndarray, tol: float = SPAN_TOL,
                            report: CentralizerReport | None = None,
                            check_ambient: bool = True,
                            return_info: bool = False):
    """Pinching conditional expectation onto the centralizer of the state.

    Sums P_j A P_j over the clustered eigenprojections of the state's
    in-span representative.  The result lies in the ambient span; it is
    re-projected onto the span if rounding pushed it out, with the residual
    reported via ``return_info``.
    """
    A = as_operator(A, ambient.dim)
    if check_ambient:
        ok, r = contains(ambient, A, tol)
        if not ok:
            raise InvariantViolation(f"operator outside the ambient algebra: residual {r:.3e}")
    if report is None:
        report = centralizer(ambient, state)
    out = np.zeros_like(A)
    for P in report.state_spectral.projections:
        out += P @ A @ P
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
                       A: np.ndarray, tol: float = DEFAULT_TOL,
                       report: CentralizerReport | None = None,
                       check_ambient: bool = True,
                       return_info: bool = False):
    """Conditional expectation onto the center of the centralizer.

    Writes the output as sum_j c_j z_j over the minimal central projections,
    with c_j the state average of z_j A z_j on the block.  Blocks the state
    gives no weight to (phi(z_j) <= tol) fall back to the normalized trace;
    which atoms that happened on is reported via ``return_info``.
    """
    A = as_operator(A, ambient.dim)
    if check_ambient:
        ok, r = contains(ambient, A, SPAN_TOL)
        if not ok:
            raise InvariantViolation(f"operator outside the ambient algebra: residual {r:.3e}")
    if report is None:
        report = centralizer(ambient, state)
    out = np.zeros_like(A)
    coeffs = []
    weights = []
    fallback = []
    for j, z in enumerate(report.central_projections):
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
    if return_info:
        return out, CenterExpectationInfo(tuple(coeffs), tuple(weights), tuple(fallback))
    return out


class IncoherenceDefect(NamedTuple):
    lhs: float
    bound: float
    delta_prime: float


def incoherence_defect(ambient: FiniteAlgebra, state: DensityState,
                       partition: PartitionOfUnity, A: np.ndarray,
                       use_center: bool = True,
                       tol: float = DEFAULT_TOL) -> IncoherenceDefect:
    """Defect of evaluating the state incoherently along a partition.

    Returns (lhs, bound, delta_prime) with
    lhs    = |phi(A) - sum_j phi(P_j A P_j)|,
    delta' = max_j || CE(P_j) - P_j || for the chosen conditional
             expectation (center by default, centralizer otherwise),
    bound  = 4 N delta' ||A||.
    The inequality lhs <= bound holds identically; it is asserted here up to
    an absolute rounding allowance and violations raise.
    """
    A = as_operator(A, ambient.dim)
    report = centralizer(ambient, state)
    ok, r = contains(ambient, A, SPAN_TOL)
    if not ok:
        raise InvariantViolation(f"operator outside the ambient algebra: residual {r:.3e}")
    phi_A = state.expect(A)
    pinched = 0.0 + 0.0j
    delta_prime = 0.0
    for P in partition.projections:
        ok, r = contains(ambient, P, SPAN_TOL)
        if not ok:
            raise InvariantViolation(f"partition leaves the ambient algebra: residual {r:.3e}")
        pinched += state.expect(P @ A @ P)
        if use_center:
            ce = expect_onto_center(ambient, state, P, report=report, check_ambient=False)
        else:
            ce = expect_onto_centralizer(ambient, state, P, report=report, check_ambient=False)
        delta_prime = max(delta_prime, operator_norm(ce - P))
    lhs = abs(phi_A - pinched)
    n_outcomes = partition.size
    bound = 4.0 * n_outcomes * delta_prime * operator_norm(A)
    slack = 1e-12 * n_outcomes * max(1.0, operator_norm(A))
    if lhs > bound + slack:
        raise InvariantViolation(
            f"incoherence bound violated: lhs {lhs:.6e} > bound {bound:.6e}")
    return IncoherenceDefect(float(lhs), float(bound), float(delta_prime))
